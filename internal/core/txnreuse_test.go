package core

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"anywheredb/internal/btree"
	"anywheredb/internal/table"
	"anywheredb/internal/val"
)

// reuseDB opens a database with table w (id, v, pad), ids 1..5 committed
// (v = id), and a unique index on id.
func reuseDB(t *testing.T) (*DB, *Conn) {
	t.Helper()
	db := openDB(t, Options{})
	c := conn(t, db)
	mustExec(t, c, "CREATE TABLE w (id INT, v INT, pad VARCHAR(40))")
	mustExec(t, c, "INSERT INTO w VALUES (1, 1, 'a'), (2, 2, 'bb'), (3, 3, 'ccc'), (4, 4, 'dddd'), (5, 5, 'eeeee')")
	mustExec(t, c, "CREATE UNIQUE INDEX w_id ON w (id)")
	return db, c
}

// heapAndIndex renders w's heap (each row with its RID) and its index (each
// key with the RID it names).
func heapAndIndex(t *testing.T, db *DB) (heap, index []string) {
	t.Helper()
	tbl, _ := db.Table("w")
	if err := tbl.Scan(func(rid table.RID, row []val.Value) (bool, error) {
		heap = append(heap, fmt.Sprintf("%v %v", rid, row))
		return true, nil
	}); err != nil {
		t.Fatal(err)
	}
	var it btree.Iterator
	defer it.Close()
	ix := tbl.IndexByName("w_id")
	for err := ix.Tree.First(&it); it.Valid(); it.Next() {
		if err != nil {
			t.Fatal(err)
		}
		index = append(index, fmt.Sprintf("%x %v", it.Key(), table.RIDFromBytes(it.Value())))
	}
	if err := it.Err(); err != nil {
		t.Fatal(err)
	}
	return heap, index
}

// TestConnTxnReuseLeaksNothing: a connection begins every transaction in
// the one it keeps. After an explicit transaction that inserts, updates,
// deletes and rolls back, neither the autocommit INSERT nor the BEGIN READ
// ONLY that follow on the same connection sees an undo record, a version
// entry, a lock, a scratch byte or the snapshot of it: the table's heap and
// index are a fresh connection's after the same INSERT.
func TestConnTxnReuseLeaksNothing(t *testing.T) {
	db, c := reuseDB(t)
	tbl, _ := db.Table("w")
	mustExec(t, c, "BEGIN")
	first := c.tx.ID()
	if c.tx != &c.txn {
		t.Fatal("BEGIN did not begin in the connection's transaction")
	}
	mustExec(t, c, "INSERT INTO w VALUES (10, 10, 'a row the rollback takes back')")
	mustExec(t, c, "UPDATE w SET v = 20, pad = 'longer than it was' WHERE id = 2")
	mustExec(t, c, "DELETE FROM w WHERE id = 3")
	if d := c.tx.UndoDepth(); d != 3 {
		t.Fatalf("undo depth %d after three changes, want 3", d)
	}
	mustExec(t, c, "ROLLBACK")

	// The connection is clean between transactions, and so is the engine.
	clean := func(when string) {
		t.Helper()
		if d := c.txn.UndoDepth(); d != 0 {
			t.Errorf("%s: the connection's transaction holds %d undo records", when, d)
		}
		if n := tbl.VersionCount(); n != 0 {
			t.Errorf("%s: %d version entries left", when, n)
		}
		if n := db.locks.HeldCount(first); n != 0 {
			t.Errorf("%s: the rolled-back transaction still holds %d locks", when, n)
		}
		if txs := db.txns.Transactions(); len(txs) != 0 {
			t.Errorf("%s: transactions %+v still registered", when, txs)
		}
		if snaps := db.txns.Snapshots(); len(snaps) != 0 {
			t.Errorf("%s: snapshots %+v still registered", when, snaps)
		}
	}
	clean("after the rollback")

	mustExec(t, c, "INSERT INTO w VALUES (11, 11, 'k')")
	clean("after the autocommit insert")
	if got := c.txn.ID(); got == first {
		t.Fatal("the autocommit insert ran under the rolled-back transaction's id")
	}

	mustExec(t, c, "BEGIN READ ONLY")
	if c.tx != &c.txn || !c.tx.ReadOnly() || c.tx.UndoDepth() != 0 {
		t.Fatalf("BEGIN READ ONLY: own %v, read-only %v, undo depth %d", c.tx == &c.txn, c.tx.ReadOnly(), c.tx.UndoDepth())
	}
	if s := c.tx.Snapshot(); s == nil || s.CSN != db.txns.CommitSeq() || s.Self != 0 {
		t.Fatalf("BEGIN READ ONLY snapshot %+v, want one at the commit horizon %d", s, db.txns.CommitSeq())
	}
	if txs := db.txns.Transactions(); len(txs) != 1 || txs[0].ID != c.tx.ID() || !txs[0].ReadOnly || txs[0].UndoBytes != 0 {
		t.Fatalf("sys.transactions under BEGIN READ ONLY: %+v", txs)
	}
	got := renderRows(mustQuery(t, c, "SELECT id, v, pad FROM w ORDER BY id"), true)
	mustExec(t, c, "COMMIT")
	clean("after the read-only transaction")
	want := []string{"1|1|a", "2|2|bb", "3|3|ccc", "4|4|dddd", "5|5|eeeee", "11|11|k"}
	if !slices.Equal(got, want) {
		t.Fatalf("BEGIN READ ONLY reads %v, want %v", got, want)
	}

	fresh, fc := reuseDB(t)
	mustExec(t, fc, "INSERT INTO w VALUES (11, 11, 'k')")
	heap, index := heapAndIndex(t, db)
	freshHeap, freshIndex := heapAndIndex(t, fresh)
	if !slices.Equal(heap, freshHeap) {
		t.Errorf("heap after the reused transactions:\n%v\nwant a fresh connection's:\n%v", heap, freshHeap)
	}
	if !slices.Equal(index, freshIndex) {
		t.Errorf("index after the reused transactions:\n%v\nwant a fresh connection's:\n%v", index, freshIndex)
	}
}

// TestConnTxnReuseRace: four connections, each reusing its transaction,
// interleave autocommit inserts, explicit transactions that insert, update
// and delete and roll back, and autocommit inserts a unique index refuses,
// while a snapshot reader scans. The reader only ever sees committed rows,
// each with v = 1, and a count that never falls; at the end the heap holds
// exactly the acknowledged rows, each found once through the index.
func TestConnTxnReuseRace(t *testing.T) {
	const writers, rounds = 4, 60
	db := openDB(t, Options{})
	c := conn(t, db)
	mustExec(t, c, "CREATE TABLE w (id INT, v INT, pad VARCHAR(40))")
	mustExec(t, c, "CREATE UNIQUE INDEX w_id ON w (id)")

	var acked atomic.Int64
	stop := make(chan struct{})
	var readers sync.WaitGroup
	readers.Add(1)
	go func() {
		defer readers.Done()
		rc, err := db.Connect()
		if err != nil {
			t.Error(err)
			return
		}
		defer rc.Close()
		last := int64(0)
		for {
			select {
			case <-stop:
				return
			default:
			}
			rows, err := rc.Query("SELECT count(*), sum(v), max(v) FROM w")
			if err != nil {
				t.Error(err)
				return
			}
			r := rows.All()[0]
			n := r[0].AsInt()
			if n > 0 && (r[1].AsInt() != n || r[2].AsInt() != 1) {
				t.Errorf("snapshot of %d rows: sum(v) %v, max(v) %v, want %d and 1", n, r[1], r[2], n)
				return
			}
			if n < last {
				t.Errorf("a snapshot saw %d rows after one saw %d", n, last)
				return
			}
			last = n
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c, err := db.Connect()
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			id := func(round, k int) int64 { return int64(round*100 + w*10 + k) }
			exec := func(sql string) error {
				_, err := c.Exec(sql)
				return err
			}
			for r := 0; r < rounds; r++ {
				for _, sql := range []string{
					fmt.Sprintf("INSERT INTO w VALUES (%d, 1, 'kept %d')", id(r, 0), r),
					fmt.Sprintf("INSERT INTO w VALUES (%d, 1, 'kept')", id(r, 1)),
					"BEGIN",
					fmt.Sprintf("INSERT INTO w VALUES (%d, 1000, 'taken back')", id(r, 2)),
					fmt.Sprintf("UPDATE w SET v = 1000, pad = 'a longer pad, taken back' WHERE id = %d", id(r, 0)),
					fmt.Sprintf("DELETE FROM w WHERE id = %d", id(r, 1)),
					"ROLLBACK",
				} {
					if err := exec(sql); err != nil {
						t.Errorf("writer %d: %s: %v", w, sql, err)
						return
					}
				}
				acked.Add(2)
				err := exec(fmt.Sprintf("INSERT INTO w VALUES (%d, 1, 'refused')", id(r, 0)))
				if !errors.Is(err, table.ErrUnique) {
					t.Errorf("writer %d: a duplicate of id %d: %v, want a unique violation", w, id(r, 0), err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	readers.Wait()
	if t.Failed() {
		return
	}

	rows := mustQuery(t, c, "SELECT count(*), sum(v) FROM w").All()[0]
	if n := acked.Load(); rows[0].AsInt() != n || rows[1].AsInt() != n {
		t.Fatalf("count(*), sum(v) = %v, %v, want %d acknowledged rows of v = 1", rows[0], rows[1], n)
	}
	for r := 0; r < rounds; r++ {
		for w := 0; w < writers; w++ {
			for k := 0; k < 3; k++ {
				id := int64(r*100 + w*10 + k)
				want := 1
				if k == 2 {
					want = 0
				}
				if got := mustQuery(t, c, "SELECT v FROM w WHERE id = ?", val.NewInt(id)).Count(); got != want {
					t.Fatalf("id %d: the index finds %d rows, want %d", id, got, want)
				}
			}
		}
	}
}
