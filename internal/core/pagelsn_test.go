package core

import (
	"errors"
	"math/rand"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"anywheredb/internal/faultinject"
	"anywheredb/internal/store"
	"anywheredb/internal/table"
	"anywheredb/internal/val"
	"anywheredb/internal/wal"
)

func checkpoint(t *testing.T, db *DB) {
	t.Helper()
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
}

// TestLSNsOutliveATruncate: a heap page is stamped late in one log epoch,
// and nothing touches it again until a checkpoint has truncated the log.
// The next epoch's first record then updates it, and the machine crashes
// before the page is written. Had LSNs restarted with the new log, that
// record would compare older than the page's stamp and recovery would skip
// it. The truncate is taken in the same process, by the recovery after a
// crash at checkpoint.before_truncate, and just before a crash that leaves
// the new log holding nothing but its header.
func TestLSNsOutliveATruncate(t *testing.T) {
	for _, arm := range []string{"same process", "crash before the truncate", "crash after the truncate"} {
		t.Run(arm, func(t *testing.T) {
			dir := t.TempDir()
			crash := &crashAt{}
			db := openDB(t, Options{Dir: dir, Injector: crash})
			c := conn(t, db)
			mustExec(t, c, "CREATE TABLE p (id INT, v INT)")
			mustExec(t, c, "CREATE TABLE q (id INT, pad VARCHAR(200))")
			mustExec(t, c, "INSERT INTO p VALUES (1, 10)")
			mustExec(t, c, "BEGIN")
			for i := 0; i < 300; i++ {
				mustExec(t, c, "INSERT INTO q VALUES (?, ?)", val.NewInt(int64(i)), val.NewStr(strings.Repeat("q", 200)))
			}
			mustExec(t, c, "COMMIT")
			mustExec(t, c, "UPDATE p SET v = 11 WHERE id = 1") // stamped some 70 KB into the epoch
			switch arm {
			case "same process":
				checkpoint(t, db)
			case "crash before the truncate":
				crash.name = "checkpoint.before_truncate"
				if err := db.Checkpoint(); !errors.Is(err, faultinject.ErrCrashed) {
					t.Fatalf("checkpoint: %v, want the crash", err)
				}
				db.Crash()
				db = openDB(t, Options{Dir: dir}) // replays the epoch, then truncates it
			case "crash after the truncate":
				checkpoint(t, db)
				db.Crash()
				db = openDB(t, Options{Dir: dir})
			}
			mustExec(t, conn(t, db), "UPDATE p SET v = 12 WHERE id = 1")
			db.Crash()

			db2 := openDB(t, Options{Dir: dir, ParanoidRecovery: true})
			if v := mustQuery(t, conn(t, db2), "SELECT v FROM p WHERE id = 1").All()[0][0].I; v != 12 {
				t.Fatalf("after recovery v = %d, want the 12 the new epoch committed", v)
			}
		})
	}
}

// crashAt crashes the machine at the crashpoint it names.
type crashAt struct{ name string }

func (c *crashAt) Fault(faultinject.Op, uint64, []byte) ([]byte, error) { return nil, nil }

func (c *crashAt) Crashpoint(name string) error {
	if name == c.name {
		return faultinject.Crashed(errors.New(name))
	}
	return nil
}

// TestTornFirstWriteOfAnEpochRepairs: a heap page imaged and written in one
// log epoch is written there again without a new image, its changes since
// being stamped. A checkpoint's truncate takes that image with the log, so
// the page's first write-back in the next epoch images it again. That write
// tears, and recovery repairs the page from the new image.
func TestTornFirstWriteOfAnEpochRepairs(t *testing.T) {
	dir := t.TempDir()
	tear := &tearPage{}
	db := openDB(t, Options{Dir: dir, Injector: tear})
	c := conn(t, db)
	mustExec(t, c, "CREATE TABLE t (id INT, v INT)")
	for i := 0; i < 20; i++ {
		mustExec(t, c, "INSERT INTO t VALUES (?, ?)", val.NewInt(int64(i)), val.NewInt(int64(i)))
	}
	checkpoint(t, db)
	tbl, _ := db.Table("t")
	pid := tbl.FirstPage()
	write := func(v int64, wantImages int64) error {
		t.Helper()
		before := counter(t, db, "buffer.images_logged")
		mustExec(t, c, "UPDATE t SET v = ? WHERE id = 7", val.NewInt(v))
		err := db.Pool().FlushPage(pid)
		if got := counter(t, db, "buffer.images_logged") - before; got != wantImages {
			t.Fatalf("writing v = %d logged %d images, want %d", v, got, wantImages)
		}
		return err
	}
	for _, w := range []struct{ v, images int64 }{
		{100, 1}, // the epoch's first write-back of the page
		{101, 0}, // its change since is stamped
	} {
		if err := write(w.v, w.images); err != nil {
			t.Fatal(err)
		}
	}
	checkpoint(t, db)
	tear.page.Store(uint64(pid))
	if err := write(102, 1); !errors.Is(err, faultinject.ErrCrashed) {
		t.Fatalf("the next epoch's first write-back: %v, want the torn write's crash", err)
	}
	db.Crash()

	db2 := openDB(t, Options{Dir: dir, ParanoidRecovery: true})
	got := mustQuery(t, conn(t, db2), "SELECT COUNT(*), SUM(v), MAX(v) FROM t").All()[0]
	if got[0].I != 20 || got[1].I != 190-7+102 || got[2].I != 102 {
		t.Fatalf("after recovery COUNT, SUM, MAX(v) = %v, want 20, %d, 102", got, 190-7+102)
	}
}

// tearPage, once given a page, tears the next write of it and then acts as
// a crashed machine.
type tearPage struct {
	page    atomic.Uint64
	crashed atomic.Bool
}

func (c *tearPage) Fault(op faultinject.Op, arg uint64, data []byte) ([]byte, error) {
	if c.crashed.Load() {
		return nil, faultinject.Crashed(errors.New("after the crash"))
	}
	if op == faultinject.OpWrite && arg != 0 && arg == c.page.Load() {
		c.crashed.Store(true)
		return append([]byte(nil), data[:len(data)/3]...), faultinject.Crashed(errors.New("torn write"))
	}
	return nil, nil
}

func (c *tearPage) Crashpoint(string) error {
	if c.crashed.Load() {
		return faultinject.Crashed(errors.New("after the crash"))
	}
	return nil
}

// TestRecoveryImagesAPageOnce: recovery under a pool far smaller than what
// it replays writes pages back mid-redo. A page it restored from an image,
// whose changes since it stamps as it redoes them, goes out without a new
// image; a page it found no image of is imaged once. Such a recovery is
// crashed at recovery.after_redo: it must have written pages it did not
// image, and appended at most one image per page. A paranoid reopen then
// returns every committed row.
func TestRecoveryImagesAPageOnce(t *testing.T) {
	const rows, txns = 4000, 400
	dir := t.TempDir()
	small := Options{Dir: dir, PoolMinPages: 16, PoolInitPages: 16, PoolMaxPages: 16}
	db := openDB(t, small)
	c := loadRMW(t, db, rows)
	rng := rand.New(rand.NewSource(26))
	for i := 0; i < txns; i++ {
		rmw(t, c, rng.Int63n(rows))
	}
	db.Crash()

	before := len(loggedImages(t, dir))
	crash := &crashRecovery{written: map[store.PageID]bool{}}
	small.Injector = crash
	if _, err := Open(small); !errors.Is(err, faultinject.ErrCrashed) {
		t.Fatalf("recovery: %v, want the crash at recovery.after_redo", err)
	}
	perPage := map[store.PageID]int{}
	appended := loggedImages(t, dir)[before:]
	for _, id := range appended {
		if perPage[id]++; perPage[id] > 1 {
			t.Errorf("recovery imaged page %v %d times", id, perPage[id])
		}
	}
	unimaged := 0
	for id := range crash.written {
		if perPage[id] == 0 {
			unimaged++
		}
	}
	t.Logf("the crashed recovery wrote %d pages and appended %d images: %d pages went out on an image the log already held",
		len(crash.written), len(appended), unimaged)
	if unimaged == 0 {
		t.Fatal("recovery imaged every page it wrote")
	}

	db2 := openDB(t, Options{Dir: dir, ParanoidRecovery: true})
	got := mustQuery(t, conn(t, db2), "SELECT SUM(v), COUNT(*) FROM acct").All()[0]
	want := int64(txns)
	for id := 0; id < rows; id++ {
		want += int64(id % 1000)
	}
	if got[0].I != want || got[1].I != rows {
		t.Fatalf("after recovery SUM(v) = %d over %d rows, want %d over %d", got[0].I, got[1].I, want, rows)
	}
}

// loggedImages lists, in log order, the pages the durable log of the
// database in dir holds images of.
func loggedImages(t *testing.T, dir string) []store.PageID {
	t.Helper()
	log, err := wal.Open(filepath.Join(dir, "anywhere.log"))
	if err != nil {
		t.Fatal(err)
	}
	defer log.CloseNoFlush()
	var ids []store.PageID
	if err := log.Scan(func(_ wal.LSN, r *wal.Record) error {
		if r.Type == wal.RecPageImage {
			ids = append(ids, r.Page)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return ids
}

// crashRecovery notes every main-file page written and crashes the
// machine at recovery.after_redo.
type crashRecovery struct {
	mu      sync.Mutex
	written map[store.PageID]bool
}

func (c *crashRecovery) Fault(op faultinject.Op, arg uint64, _ []byte) ([]byte, error) {
	if id := store.PageID(arg); op == faultinject.OpWrite && id.File() == store.MainFile {
		c.mu.Lock()
		c.written[id] = true
		c.mu.Unlock()
	}
	return nil, nil
}

func (c *crashRecovery) Crashpoint(name string) error {
	if name == "recovery.after_redo" {
		return faultinject.Crashed(errors.New(name))
	}
	return nil
}

// TestBackedOutInsertStaysOut: an INSERT logs its record under the page
// latch, before the unique index has been asked for the key. When the index
// refuses it the row is backed out and the backing out logged, so a
// transaction that goes on to commit cannot bring the row back at recovery.
func TestBackedOutInsertStaysOut(t *testing.T) {
	dir := t.TempDir()
	db := openDB(t, Options{Dir: dir})
	c := conn(t, db)
	mustExec(t, c, "CREATE TABLE t (id INT, v INT)")
	mustExec(t, c, "CREATE UNIQUE INDEX t_id ON t (id)")
	for i := 0; i < 10; i++ {
		mustExec(t, c, "INSERT INTO t VALUES (?, ?)", val.NewInt(int64(i)), val.NewInt(int64(i)))
	}
	mustExec(t, c, "BEGIN")
	if _, err := c.Exec("INSERT INTO t VALUES (3, 100)"); !errors.Is(err, table.ErrUnique) {
		t.Fatalf("insert of a held key: %v, want ErrUnique", err)
	}
	mustExec(t, c, "UPDATE t SET v = v + 1 WHERE id = 3")
	mustExec(t, c, "COMMIT")
	db.Crash()

	db2 := openDB(t, Options{Dir: dir, ParanoidRecovery: true})
	got := mustQuery(t, conn(t, db2), "SELECT COUNT(*), SUM(v) FROM t").All()[0]
	if got[0].I != 10 || got[1].I != 46 {
		t.Fatalf("after recovery COUNT, SUM(v) = %v, want 10, 46: the backed-out row came back", got)
	}
}

// TestRolledBackPagesNeedNoImage: a rollback's compensations are logged
// records, each stamped on the page it changes, as forward changes are.
// Under a 16-page pool a multi-row UPDATE is rolled back over pages this
// log epoch has imaged already. Every compensated page then carries the LSN
// of the last record naming it, a compensation, and writing the pages back
// logs no new image of any of them.
func TestRolledBackPagesNeedNoImage(t *testing.T) {
	db := openDB(t, Options{Dir: t.TempDir(), PoolMinPages: 16, PoolInitPages: 16, PoolMaxPages: 16})
	c := conn(t, db)
	mustExec(t, c, "CREATE TABLE t (id INT, v INT, pad VARCHAR(200))")
	mustExec(t, c, "BEGIN")
	for i := 0; i < 300; i++ {
		mustExec(t, c, "INSERT INTO t VALUES (?, 0, ?)", val.NewInt(int64(i)), val.NewStr(strings.Repeat("p", 200)))
	}
	mustExec(t, c, "COMMIT")
	checkpoint(t, db)
	// The epoch's first write-back of each page images it.
	mustExec(t, c, "UPDATE t SET v = 1")
	if err := db.Pool().FlushAll(); err != nil {
		t.Fatal(err)
	}
	tbl, _ := db.Table("t")
	pages := map[store.PageID]bool{}
	if err := tbl.Scan(func(rid table.RID, _ []val.Value) (bool, error) { pages[rid.Page] = true; return true, nil }); err != nil {
		t.Fatal(err)
	}
	if len(pages) < 16 {
		t.Fatalf("the table spans %d pages, want more than the pool holds", len(pages))
	}

	_, start := db.WAL().Position()
	mustExec(t, c, "BEGIN")
	mustExec(t, c, "UPDATE t SET v = 2")
	mustExec(t, c, "ROLLBACK")
	if err := db.Pool().FlushAll(); err != nil {
		t.Fatal(err)
	}
	if err := db.WAL().Flush(); err != nil {
		t.Fatal(err)
	}
	last := map[store.PageID]*wal.Record{}
	if err := db.WAL().ScanFrom(start, func(_ wal.LSN, r *wal.Record) error {
		switch {
		case !pages[r.Page]:
		case r.Type == wal.RecPageImage:
			t.Errorf("page %v imaged again after its rollback", r.Page)
		default:
			last[r.Page] = r
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for pid := range pages {
		r := last[pid]
		if r == nil || !r.Undo {
			t.Fatalf("page %v: last record %+v, want a compensation", pid, r)
		}
		f, err := db.Pool().Get(pid)
		if err != nil {
			t.Fatal(err)
		}
		f.RLock()
		lsn := f.Data.LSN()
		f.RUnlock()
		db.Pool().Unpin(f, false)
		if lsn != r.LSN {
			t.Errorf("page %v stamped %d, want its compensation's LSN %d", pid, lsn, r.LSN)
		}
	}
	if got := mustQuery(t, c, "SELECT COUNT(*), SUM(v) FROM t").All()[0]; got[0].I != 300 || got[1].I != 300 {
		t.Fatalf("after the rollback COUNT, SUM(v) = %v, want 300, 300", got)
	}
}
