package core

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"anywheredb/internal/faultinject"
	"anywheredb/internal/lock"
	"anywheredb/internal/store"
	"anywheredb/internal/table"
	"anywheredb/internal/val"
)

// crashAndReopen kills db without a checkpoint and opens the directory
// again under ParanoidRecovery.
func crashAndReopen(t *testing.T, db *DB, dir string) (*DB, *Conn) {
	t.Helper()
	db.Crash()
	db2 := openDB(t, Options{Dir: dir, ParanoidRecovery: true})
	return db2, conn(t, db2)
}

func countRows(t *testing.T, c *Conn, tbl string) int64 {
	t.Helper()
	return mustQuery(t, c, "SELECT COUNT(*) FROM "+tbl).All()[0][0].I
}

func logSize(t *testing.T, dir string) int64 {
	t.Helper()
	st, err := os.Stat(filepath.Join(dir, "anywhere.log"))
	if err != nil {
		t.Fatal(err)
	}
	return st.Size()
}

// syncHook is an injector that injects nothing and runs next, once, inside
// the next store sync.
type syncHook struct{ next func() }

func (h *syncHook) Fault(op faultinject.Op, _ uint64, _ []byte) ([]byte, error) {
	if f := h.next; op == faultinject.OpSync && f != nil {
		h.next = nil
		f()
	}
	return nil, nil
}

func (h *syncHook) Crashpoint(string) error { return nil }

// TestDDLDurableAtAck: a schema change that has been acknowledged survives
// a crash, and a checkpoint — whoever asks for it — never makes an open
// transaction's writes permanent.
func TestDDLDurableAtAck(t *testing.T) {
	// Each case starts from a database holding table s (id, v) with rows
	// 1..40, cleanly closed and reopened, runs its statements, crashes (or
	// whatever the case does instead) and checks what a reopen finds.
	seed := func(t *testing.T) (string, *DB, *Conn) {
		dir := t.TempDir()
		db, err := Open(Options{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		c := conn(t, db)
		mustExec(t, c, "CREATE TABLE s (id INT, v INT)")
		for i := 1; i <= 40; i++ {
			mustExec(t, c, "INSERT INTO s VALUES (?, ?)", val.NewInt(int64(i)), val.NewInt(int64(i*10)))
		}
		c.Close()
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
		if db, err = Open(Options{Dir: dir}); err != nil {
			t.Fatal(err)
		}
		return dir, db, conn(t, db)
	}

	t.Run("unique index", func(t *testing.T) {
		dir, db, c := seed(t)
		mustExec(t, c, "CREATE UNIQUE INDEX s_id ON s (id)")
		db2, c2 := crashAndReopen(t, db, dir)
		tbl, _ := db2.Table("s")
		if len(tbl.Indexes) != 1 || !tbl.Indexes[0].Unique {
			t.Fatalf("acknowledged CREATE UNIQUE INDEX lost in the crash: %d indexes", len(tbl.Indexes))
		}
		if _, err := c2.Exec("INSERT INTO s VALUES (7, 0)"); err == nil || !strings.Contains(err.Error(), "unique") {
			t.Fatalf("duplicate key accepted after the crash (err %v)", err)
		}
	})

	t.Run("new table and its committed row", func(t *testing.T) {
		dir, db, c := seed(t)
		mustExec(t, c, "CREATE TABLE w (a INT)")
		mustExec(t, c, "INSERT INTO w VALUES (7)")
		_, c2 := crashAndReopen(t, db, dir)
		rows, err := c2.Query("SELECT a FROM w")
		if err != nil {
			t.Fatalf("acknowledged CREATE TABLE lost in the crash: %v", err)
		}
		if rows.Count() != 1 || rows.All()[0][0].I != 7 {
			t.Fatalf("committed row of the new table: %v", rows.All())
		}
	})

	t.Run("dropped table", func(t *testing.T) {
		dir, db, c := seed(t)
		mustExec(t, c, "DROP TABLE s")
		_, c2 := crashAndReopen(t, db, dir)
		if _, err := c2.Query("SELECT id FROM s"); err == nil {
			t.Fatal("acknowledged DROP TABLE undone by the crash")
		}
	})

	t.Run("statistics", func(t *testing.T) {
		dir, db, c := seed(t)
		for i := 41; i <= 50; i++ { // what the last checkpoint's histograms do not know
			mustExec(t, c, "INSERT INTO s VALUES (?, 0)", val.NewInt(int64(i)))
		}
		mustExec(t, c, "CREATE STATISTICS s")
		db2, _ := crashAndReopen(t, db, dir)
		tbl, _ := db2.Table("s")
		if got := tbl.Hists[0].Total(); got != 50 {
			t.Fatalf("histogram of s.id describes %.0f rows after the crash, want 50", got)
		}
	})

	// An open transaction's rows must be gone after a crash whatever
	// checkpointed meanwhile, and the log must be kept for as long as the
	// transaction is open — and not longer.
	openTxn := func(t *testing.T, db *DB) *Conn {
		w := conn(t, db)
		mustExec(t, w, "BEGIN")
		mustExec(t, w, "INSERT INTO s VALUES (1000, 1)")
		mustExec(t, w, "UPDATE s SET v = -1 WHERE id = 3")
		return w
	}
	checkUntouched := func(t *testing.T, c *Conn) {
		t.Helper()
		if n := countRows(t, c, "s"); n != 40 {
			t.Fatalf("%d rows after recovery, want 40: the open transaction's insert became permanent", n)
		}
		if v := mustQuery(t, c, "SELECT v FROM s WHERE id = 3").All()[0][0].I; v != 30 {
			t.Fatalf("row 3 has v = %d after recovery, want 30: the open transaction's update became permanent", v)
		}
	}

	t.Run("open transaction across ALTER STORE", func(t *testing.T) {
		dir, db, c := seed(t)
		openTxn(t, db)
		mustExec(t, c, "ALTER TABLE s STORE COLUMNAR")
		_, c2 := crashAndReopen(t, db, dir)
		checkUntouched(t, c2)
	})

	t.Run("open transaction across Checkpoint", func(t *testing.T) {
		dir, db, _ := seed(t)
		w := openTxn(t, db)
		if err := db.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		if logSize(t, dir) == 0 {
			t.Fatal("checkpoint truncated the log under an open transaction")
		}
		truncates, _ := db.Telemetry().Value("wal.truncates")
		// Once the transaction ends the next checkpoint does truncate.
		mustExec(t, w, "ROLLBACK")
		if err := db.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		if after, _ := db.Telemetry().Value("wal.truncates"); after != truncates+1 {
			t.Fatalf("wal.truncates %d → %d: the log stayed pinned after its transaction ended", truncates, after)
		}
		mustExec(t, w, "BEGIN")
		mustExec(t, w, "INSERT INTO s VALUES (1000, 1)")
		mustExec(t, w, "UPDATE s SET v = -1 WHERE id = 3")
		if err := db.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		_, c2 := crashAndReopen(t, db, dir)
		checkUntouched(t, c2)
	})

	// A transaction open when the checkpoint begins can dirty a page the
	// flush has already passed and commit before the truncation is decided:
	// the manager is quiet by then, and the log is that page's only redo.
	t.Run("transaction committing inside Checkpoint", func(t *testing.T) {
		dir, db, _ := seed(t)
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
		hook := &syncHook{}
		db = openDB(t, Options{Dir: dir, Injector: hook})
		w := conn(t, db)
		mustExec(t, w, "BEGIN")
		mustExec(t, w, "INSERT INTO s VALUES (1000, 1)")
		hook.next = func() { // between the page flush and the truncation
			mustExec(t, w, "INSERT INTO s VALUES (1001, 1)")
			mustExec(t, w, "COMMIT")
		}
		if err := db.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		if hook.next != nil {
			t.Fatal("the checkpoint never synced")
		}
		_, c2 := crashAndReopen(t, db, dir)
		if n := countRows(t, c2, "s"); n != 42 {
			t.Fatalf("%d rows after recovery, want 42: the checkpoint truncated a committed transaction's records", n)
		}
	})

	t.Run("open transaction across Close", func(t *testing.T) {
		dir, db, _ := seed(t)
		openTxn(t, db)
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
		db2 := openDB(t, Options{Dir: dir, ParanoidRecovery: true})
		checkUntouched(t, conn(t, db2))
	})
}

// TestCreateIndexUnderConcurrentInserts: CREATE INDEX beside connections
// that keep inserting. Every row committed before, during or after the
// build must be reachable through the index.
func TestCreateIndexUnderConcurrentInserts(t *testing.T) {
	db := openDB(t, Options{Dir: t.TempDir()})
	c := conn(t, db)
	mustExec(t, c, "CREATE TABLE t (id INT, v INT)")
	mustExec(t, c, "BEGIN")
	for i := 0; i < 3000; i++ {
		mustExec(t, c, "INSERT INTO t VALUES (?, 0)", val.NewInt(int64(i)))
	}
	mustExec(t, c, "COMMIT")

	const writers = 4
	var next atomic.Int64
	next.Store(3000)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan error, writers+1)
	// A reader plans (reading the table's index list with no lock held) and
	// runs point lookups throughout; rows 0..2999 are there whatever path the
	// plan takes.
	rc := conn(t, db)
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer rc.Close()
		for id := int64(0); ; id = (id + 7) % 3000 {
			select {
			case <-stop:
				return
			default:
			}
			if rows, err := rc.Query(fmt.Sprintf("SELECT v FROM t WHERE id = %d", id)); err != nil || rows.Count() != 1 {
				errs <- fmt.Errorf("reader: id %d: %v", id, err)
				return
			}
			time.Sleep(200 * time.Microsecond)
		}
	}()
	for w := 0; w < writers; w++ {
		wc := conn(t, db)
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer wc.Close()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := wc.Exec("INSERT INTO t VALUES (?, 1)", val.NewInt(next.Add(1))); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	for next.Load() < 3200 && len(errs) == 0 { // the writers are demonstrably running
		runtime.Gosched()
	}
	// The lock manager has no queue: under a steady stream of writers the
	// exclusive request can time out, which the statement reports and a
	// client retries.
	for try := 0; ; try++ {
		_, err := c.Exec("CREATE INDEX t_id ON t (id)")
		if err == nil {
			break
		}
		if !errors.Is(err, lock.ErrTimeout) || try == 5 {
			t.Fatalf("CREATE INDEX: %v", err)
		}
	}
	built := next.Load()
	for next.Load() < built+200 && len(errs) == 0 { // and keep going after the build
		runtime.Gosched()
	}
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("beside the build: %v", err)
	}

	tbl, _ := db.Table("t")
	ix := tbl.IndexByName("t_id")
	if ix == nil {
		t.Fatal("index missing")
	}
	heap := map[int64]bool{}
	if err := tbl.Scan(func(_ table.RID, row []val.Value) (bool, error) {
		heap[row[0].I] = true
		return true, nil
	}); err != nil {
		t.Fatal(err)
	}
	if got := ix.Tree.Stats.Entries.Load(); got != int64(len(heap)) {
		t.Errorf("index holds %d entries, heap %d rows", got, len(heap))
	}
	plan := strings.Join(renderExplain(mustQuery(t, c, "EXPLAIN SELECT v FROM t WHERE id = 5")), "\n")
	if !strings.Contains(plan, "IndexScan(t.t_id)") {
		t.Fatalf("point lookup does not use the index:\n%s", plan)
	}
	missing := 0
	for id := range heap {
		if mustQuery(t, c, "SELECT v FROM t WHERE id = ?", val.NewInt(id)).Count() != 1 {
			missing++
		}
	}
	if missing > 0 {
		t.Fatalf("%d of %d committed rows are invisible through the index", missing, len(heap))
	}
}

// TestRecoveryReusesIndexPages: recovery rebuilds every index; the trees it
// replaces must go back to the file, or each crash grows main.db by the
// size of its indexes.
func TestRecoveryReusesIndexPages(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	c := conn(t, db)
	mustExec(t, c, "CREATE TABLE big (id INT, pad VARCHAR(40))")
	mustExec(t, c, "BEGIN")
	for i := 0; i < 20000; i++ {
		mustExec(t, c, "INSERT INTO big VALUES (?, ?)", val.NewInt(int64(i)), val.NewStr(fmt.Sprintf("pad-%030d", i)))
	}
	mustExec(t, c, "COMMIT")
	mustExec(t, c, "CREATE UNIQUE INDEX big_id ON big (id)")
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	var pages []uint64
	for cycle := 0; cycle < 4; cycle++ {
		mustExec(t, c, "INSERT INTO big VALUES (?, 'x')", val.NewInt(int64(20000+cycle)))
		db.Crash()
		if db, err = Open(Options{Dir: dir, ParanoidRecovery: true}); err != nil {
			t.Fatal(err)
		}
		c = conn(t, db)
		pages = append(pages, db.Store().PageCount(store.MainFile))
		if n := countRows(t, c, "big"); n != int64(20001+cycle) {
			t.Fatalf("cycle %d: %d rows", cycle, n)
		}
		if got := mustQuery(t, c, "SELECT pad FROM big WHERE id = 12345"); got.Count() != 1 {
			t.Fatalf("cycle %d: rebuilt index lost a key", cycle)
		}
	}
	db.Close()
	if first, last := pages[0], pages[len(pages)-1]; float64(last) > 1.02*float64(first) {
		t.Fatalf("main.db page count across four crash/recover cycles: %v — recovery leaks its indexes", pages)
	}
	t.Logf("main.db pages after each recovery: %v", pages)
}
