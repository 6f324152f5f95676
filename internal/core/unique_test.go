package core

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"anywheredb/internal/table"
	"anywheredb/internal/val"
)

// uniqueRows reads table w's (id, v) pairs in v order, through a scan.
func uniqueRows(t *testing.T, c *Conn) string {
	t.Helper()
	return fmt.Sprint(mustQuery(t, c, "SELECT id, v FROM w ORDER BY v").All())
}

// TestUpdateOntoUniqueKeyIsRefused: an UPDATE that gives a row a key a
// unique index already holds fails and leaves the table and the index as
// they were — in place, and when the new row no longer fits its page and
// would move — and the database reopens after a crash.
func TestUpdateOntoUniqueKeyIsRefused(t *testing.T) {
	dir := t.TempDir()
	db := openDB(t, Options{Dir: dir})
	c := conn(t, db)
	mustExec(t, c, "CREATE TABLE w (id INT, v INT, pad VARCHAR(4000))")
	mustExec(t, c, "CREATE UNIQUE INDEX w_id ON w (id)")
	for i := 1; i <= 3; i++ {
		mustExec(t, c, "INSERT INTO w VALUES (?, ?, ?)", val.NewInt(int64(i)), val.NewInt(int64(10*i)), val.NewStr(strings.Repeat("p", 1000)))
	}
	want := uniqueRows(t, c)
	refused := func(sql string, params ...val.Value) {
		t.Helper()
		if _, err := c.Exec(sql, params...); !errors.Is(err, table.ErrUnique) {
			t.Fatalf("%s: err %v, want %v", sql, err, table.ErrUnique)
		}
		if got := uniqueRows(t, c); got != want {
			t.Fatalf("%s changed the table: %s, was %s", sql, got, want)
		}
	}
	refused("UPDATE w SET id = 1 WHERE id = 2")
	// Inside a transaction the statement fails alone, and the transaction
	// commits what else it did: the back-out must be logged, or recovery
	// redoes the refused change.
	mustExec(t, c, "BEGIN")
	refused("UPDATE w SET id = 1 WHERE v = 20")
	// Three 1 000-byte rows share a page: grown to 3 000 bytes, the row
	// would move.
	refused("UPDATE w SET id = 3, pad = ? WHERE id = 2", val.NewStr(strings.Repeat("q", 3000)))
	mustExec(t, c, "UPDATE w SET v = 31 WHERE id = 3")
	mustExec(t, c, "COMMIT")
	want = uniqueRows(t, c)

	checkIndex := func(db *DB, c *Conn) {
		t.Helper()
		tbl, _ := db.Table("w")
		if n := tbl.Indexes[0].Tree.Stats.Entries.Load(); n != 3 {
			t.Errorf("the index holds %d entries for 3 rows", n)
		}
		for id, v := range map[int64]int64{1: 10, 2: 20, 3: 31} {
			if rows := mustQuery(t, c, "SELECT v FROM w WHERE id = ?", val.NewInt(id)).All(); len(rows) != 1 || rows[0][0].I != v {
				t.Errorf("id %d through the index: %v, want v = %d", id, rows, v)
			}
		}
	}
	checkIndex(db, c)
	db2, c2 := crashAndReopen(t, db, dir)
	if got := uniqueRows(t, c2); got != want {
		t.Fatalf("after the crash the table is %s, want %s", got, want)
	}
	checkIndex(db2, c2)
}

// TestConcurrentUniqueInserts: connections that insert the same keys at
// once commit each key exactly once, and the database reopens after a
// crash with its unique index intact.
func TestConcurrentUniqueInserts(t *testing.T) {
	const conns, ids = 8, 1000
	dir := t.TempDir()
	db := openDB(t, Options{Dir: dir})
	mustExec(t, conn(t, db), "CREATE TABLE w (id INT, v INT)")
	mustExec(t, conn(t, db), "CREATE UNIQUE INDEX w_id ON w (id)")
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		c := conn(t, db)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for id := 0; id < ids; id++ {
				if _, err := c.Exec("INSERT INTO w VALUES (?, ?)", val.NewInt(int64(id)), val.NewInt(int64(w))); err != nil && !errors.Is(err, table.ErrUnique) {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	check := func(c *Conn) {
		t.Helper()
		rows := mustQuery(t, c, "SELECT COUNT(*), COUNT(DISTINCT id) FROM w").All()
		if n, distinct := rows[0][0].I, rows[0][1].I; n != ids || distinct != ids {
			t.Fatalf("%d rows, %d distinct ids; want %d of each", n, distinct, ids)
		}
	}
	check(conn(t, db))
	_, c2 := crashAndReopen(t, db, dir)
	check(c2)
}

// TestFailedStatementInTxnIsTakenBackWhole: a statement that fails part-way
// inside an explicit transaction takes back everything it did — the rows a
// multi-row INSERT placed before its duplicate, the row a multi-row UPDATE
// changed before its collision — and nothing the transaction did before it.
// COMMIT makes exactly the surviving statements durable, and a crash after
// it recovers the same rows.
func TestFailedStatementInTxnIsTakenBackWhole(t *testing.T) {
	dir := t.TempDir()
	db := openDB(t, Options{Dir: dir})
	c := conn(t, db)
	mustExec(t, c, "CREATE TABLE w (id INT, v INT, pad VARCHAR(40))")
	mustExec(t, c, "CREATE UNIQUE INDEX w_id ON w (id)")
	for i := 1; i <= 5; i++ {
		mustExec(t, c, "INSERT INTO w VALUES (?, ?, 'p')", val.NewInt(int64(i)), val.NewInt(int64(i)))
	}
	const want = "[[1 1] [2 2] [3 3] [4 4] [5 5] [50 6]]"
	check := func(c *Conn, when string) {
		t.Helper()
		if got := uniqueRows(t, c); got != want {
			t.Errorf("%s: the table is %s, want %s", when, got, want)
		}
		for id, n := range map[int64]int{1: 1, 4: 1, 5: 1, 10: 0, 50: 1, 100: 0} {
			if rows := mustQuery(t, c, "SELECT v FROM w WHERE id = ?", val.NewInt(id)).All(); len(rows) != n {
				t.Errorf("%s: id %d through the index: %v, want %d rows", when, id, rows, n)
			}
		}
	}

	mustExec(t, c, "BEGIN")
	mustExec(t, c, "INSERT INTO w VALUES (50, 6, 'kept')")
	for _, sql := range []string{
		"INSERT INTO w VALUES (100, 1, 'x'), (1, 1, 'dup')",
		"UPDATE w SET id = 10 WHERE id >= 4",
	} {
		if _, err := c.Exec(sql); !errors.Is(err, table.ErrUnique) {
			t.Fatalf("%s: err %v, want %v", sql, err, table.ErrUnique)
		}
	}
	check(c, "inside the transaction")
	mustExec(t, c, "COMMIT")
	check(c, "after COMMIT")
	tbl, _ := db.Table("w")
	if n := tbl.Indexes[0].Tree.Stats.Entries.Load(); n != 6 {
		t.Errorf("the index holds %d entries for 6 rows", n)
	}
	_, c2 := crashAndReopen(t, db, dir)
	check(c2, "after a crash")
}
