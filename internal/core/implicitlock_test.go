package core

import (
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"anywheredb/internal/table"
	"anywheredb/internal/val"
)

// ridOf is the location of the row of table name whose first column is id,
// read with no snapshot: uncommitted rows included.
func ridOf(t *testing.T, db *DB, name string, id int64) table.RID {
	t.Helper()
	tbl, _ := db.Table(name)
	var at table.RID
	if err := tbl.Scan(func(rid table.RID, row []val.Value) (bool, error) {
		if row[0].I == id {
			at = rid
		}
		return true, nil
	}); err != nil {
		t.Fatal(err)
	}
	return at
}

// execAsync runs sql on c in a goroutine. Its result arrives on the returned
// channel once the statement is done.
func execAsync(c *Conn, sql string, params ...val.Value) <-chan execResult {
	done := make(chan execResult, 1)
	go func() {
		res, err := c.Exec(sql, params...)
		done <- execResult{res, err}
	}()
	return done
}

type execResult struct {
	res Result
	err error
}

// mustBlock fails the test unless the statement behind done is seen waiting
// for a row lock (lock.waits moves past waits) before it finishes.
func mustBlock(t *testing.T, db *DB, waits int64, done <-chan execResult, what string) {
	t.Helper()
	deadline := time.Now().Add(time.Second)
	for counter(t, db, "lock.waits") == waits {
		select {
		case r := <-done:
			t.Fatalf("%s finished without waiting: %+v, %v", what, r.res, r.err)
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s neither waited nor finished", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestMovedRowWaitsForItsWriter: an UPDATE that moves its row leaves the new
// copy locked by its insert marker alone. Another transaction's write that
// finds the row there must wait for the mover, and whatever it reports must
// be what the table holds, before a crash and after recovery — a write that
// went ahead on the uncommitted copy was lost when the mover rolled back.
func TestMovedRowWaitsForItsWriter(t *testing.T) {
	for _, commit := range []bool{true, false} {
		dir := t.TempDir()
		db := openDB(t, Options{Dir: dir})
		c1, c2 := conn(t, db), conn(t, db)
		mustExec(t, c1, "CREATE TABLE w (id INT, v INT, pad VARCHAR(3000))")
		for id := 1; id <= 10; id++ {
			mustExec(t, c1, "INSERT INTO w VALUES (?, 0, ?)", val.NewInt(int64(id)), val.NewStr(strings.Repeat("p", 200)))
		}
		home := ridOf(t, db, "w", 2)
		big := strings.Repeat("q", 3000)
		mustExec(t, c1, "BEGIN")
		mustExec(t, c1, "UPDATE w SET pad = ? WHERE id = 2", val.NewStr(big))
		if ridOf(t, db, "w", 2) == home {
			t.Fatal("the UPDATE did not move its row; test proves nothing")
		}
		waits := counter(t, db, "lock.waits")
		done := execAsync(c2, "UPDATE w SET v = 99 WHERE id = 2")
		mustBlock(t, db, waits, done, "an UPDATE of the moved row")
		if commit {
			mustExec(t, c1, "COMMIT")
		} else {
			mustExec(t, c1, "ROLLBACK")
		}
		r := <-done
		if r.err != nil {
			t.Fatal(r.err)
		}
		n := r.res.RowsAffected
		if commit && n != 1 {
			t.Fatalf("after the mover committed the UPDATE affected %d rows, want 1", n)
		}
		wantV, wantPad := int64(0), strings.Repeat("p", 200)
		if n == 1 {
			wantV = 99
		}
		if commit {
			wantPad = big
		}
		check := func(db *DB, when string) {
			rows := mustQuery(t, conn(t, db), "SELECT v, pad FROM w WHERE id = 2").All()
			if len(rows) != 1 || rows[0][0].I != wantV || rows[0][1].S != wantPad {
				t.Fatalf("commit=%v %s: id 2 is %d rows %v, want one with v = %d after a reported %d", commit, when, len(rows), rows, wantV, n)
			}
		}
		check(db, "before the crash")
		db.Crash()
		check(openDB(t, Options{Dir: dir}), "after recovery")
	}
}

// TestInsertIntoEmptiedSlotIsNotShadowed: a transaction that waited for an
// insert which then rolled back holds an X lock cell on a slot that is empty.
// A new insert may land in that slot (an insert takes no cell) and the cell
// guards nothing of it: when its holder targets the new row it must give
// way and wait for the new row's inserter, not write over its uncommitted
// row.
func TestInsertIntoEmptiedSlotIsNotShadowed(t *testing.T) {
	db := openDB(t, Options{})
	w, t2, t3 := conn(t, db), conn(t, db), conn(t, db)
	mustExec(t, w, "CREATE TABLE w (id INT, v INT)")
	for id := 1; id <= 5; id++ {
		mustExec(t, w, "INSERT INTO w VALUES (?, 0)", val.NewInt(int64(id)))
	}

	mustExec(t, w, "BEGIN")
	mustExec(t, w, "INSERT INTO w VALUES (7, 0)")
	slot := ridOf(t, db, "w", 7)
	mustExec(t, t2, "BEGIN")
	waits := counter(t, db, "lock.waits")
	done := execAsync(t2, "UPDATE w SET v = v + 1 WHERE id = 7")
	mustBlock(t, db, waits, done, "an UPDATE of an uncommitted insert")
	mustExec(t, w, "ROLLBACK")
	if r := <-done; r.err != nil || r.res.RowsAffected != 0 {
		t.Fatalf("UPDATE of a rolled-back insert: %+v, %v, want 0 rows", r.res, r.err)
	}

	mustExec(t, t3, "BEGIN")
	mustExec(t, t3, "INSERT INTO w VALUES (7, 5)")
	if got := ridOf(t, db, "w", 7); got != slot {
		t.Fatalf("the second insert took %v, not the emptied slot %v; test proves nothing", got, slot)
	}
	waits = counter(t, db, "lock.waits")
	done = execAsync(t2, "UPDATE w SET v = v + 1 WHERE id = 7")
	mustBlock(t, db, waits, done, "an UPDATE of the row inserted into the emptied slot")
	mustExec(t, t3, "COMMIT")
	if r := <-done; r.err != nil || r.res.RowsAffected != 1 {
		t.Fatalf("UPDATE after the inserter committed: %+v, %v, want 1 row", r.res, r.err)
	}
	mustExec(t, t2, "COMMIT")
	if rows := mustQuery(t, w, "SELECT v FROM w WHERE id = 7").All(); len(rows) != 1 || rows[0][0].I != 6 {
		t.Fatalf("id 7 is %v, want one row with v = 6", rows)
	}
}

// TestImplicitRowLockStress: eight connections insert rows, increment
// counters on rows the others have just inserted (found, committed or not,
// by the target scan, which reads no snapshot), grow rows so that they move,
// and commit or roll back at random. Every increment a committed statement
// reported must be in the table exactly once, no row may be duplicated, and
// recovery after a crash must agree. CI runs this with -race -count=2.
func TestImplicitRowLockStress(t *testing.T) {
	dir := t.TempDir()
	db := openDB(t, Options{Dir: dir})
	db.locks.Timeout = 100 * time.Millisecond
	mustExec(t, conn(t, db), "CREATE TABLE s (id INT, n INT, pad VARCHAR(1600))")

	var (
		mu       sync.Mutex
		recent   []int64             // ids inserted lately, committed or not
		inserted = map[int64]bool{}  // committed inserts
		count    = map[int64]int64{} // committed increments per id
	)
	const workers = 8
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c, err := db.Connect()
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			rng := rand.New(rand.NewSource(int64(w)))
			next := int64(w) << 32
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := c.Exec("BEGIN"); err != nil {
					t.Error(err)
					return
				}
				var ins []int64
				incs := map[int64]int64{}
				failed := false
				for op := 1 + rng.Intn(3); op > 0 && !failed; op-- {
					var err error
					switch k := rng.Intn(10); {
					case k < 4:
						next++
						if _, err = c.Exec("INSERT INTO s VALUES (?, 0, 'x')", val.NewInt(next)); err == nil {
							ins = append(ins, next)
							mu.Lock()
							recent = append(recent, next)
							if len(recent) > 32 {
								recent = recent[1:]
							}
							mu.Unlock()
						}
					default:
						mu.Lock()
						if len(recent) == 0 {
							mu.Unlock()
							continue
						}
						id := recent[rng.Intn(len(recent))]
						mu.Unlock()
						sql, params := "UPDATE s SET n = n + 1 WHERE id = ?", []val.Value{val.NewInt(id)}
						if k >= 8 {
							sql = "UPDATE s SET n = n + 1, pad = ? WHERE id = ?"
							params = append([]val.Value{val.NewStr(strings.Repeat("g", 1+rng.Intn(1500)))}, params...)
						}
						var res Result
						if res, err = c.Exec(sql, params...); err == nil {
							incs[id] += res.RowsAffected
						}
					}
					failed = err != nil
				}
				if failed || rng.Intn(3) == 0 {
					if _, err := c.Exec("ROLLBACK"); err != nil {
						t.Error(err)
						return
					}
					continue
				}
				if _, err := c.Exec("COMMIT"); err != nil {
					t.Error(err)
					return
				}
				mu.Lock()
				for _, id := range ins {
					inserted[id] = true
				}
				for id, n := range incs {
					count[id] += n
				}
				mu.Unlock()
			}
		}(w)
	}
	time.Sleep(1500 * time.Millisecond)
	close(stop)
	wg.Wait()
	if t.Failed() {
		return
	}

	total := int64(0)
	for id, n := range count {
		if n > 0 && !inserted[id] {
			t.Fatalf("id %d has %d committed increments but no committed insert", id, n)
		}
		total += n
	}
	if len(inserted) == 0 || total == 0 {
		t.Fatalf("%d committed inserts, %d committed increments: the stress proves nothing", len(inserted), total)
	}
	check := func(db *DB, when string) {
		seen := map[int64]bool{}
		for _, r := range mustQuery(t, conn(t, db), "SELECT id, n FROM s").All() {
			id := r[0].I
			if seen[id] {
				t.Fatalf("%s: id %d is in the table twice", when, id)
			}
			seen[id] = true
			if !inserted[id] {
				t.Fatalf("%s: id %d is in the table but its insert never committed", when, id)
			}
			if r[1].I != count[id] {
				t.Fatalf("%s: id %d counts %d, want the %d increments committed", when, id, r[1].I, count[id])
			}
		}
		if len(seen) != len(inserted) {
			t.Fatalf("%s: %d rows, want the %d committed inserts", when, len(seen), len(inserted))
		}
	}
	check(db, "before the crash")
	t.Logf("%d rows, %d increments, %d implicit lock conversions, %d lock timeouts",
		len(inserted), total, counter(t, db, "lock.implicit_conversions"), counter(t, db, "lock.timeouts"))
	db.Crash()
	check(openDB(t, Options{Dir: dir}), "after recovery")
}
