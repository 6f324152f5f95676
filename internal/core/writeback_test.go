package core

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"anywheredb/internal/faultinject"
	"anywheredb/internal/page"
	"anywheredb/internal/val"
	"anywheredb/internal/wal"
)

// rmwOptions is the benchmark's rmw_cold rig: a 128-page pool pinned so the
// governor cannot resize it, over a table about seven times its size.
func rmwOptions(dir string) Options {
	return Options{Dir: dir, PoolMinPages: 128, PoolInitPages: 128, PoolMaxPages: 128}
}

// loadRMW loads rows of the benchmark's shape under a unique index on id and
// checkpoints, so the measured part starts from a clean pool.
func loadRMW(t testing.TB, db *DB, rows int) *Conn {
	t.Helper()
	c := conn(t, db)
	loadKV(t, c, "acct", rows)
	mustExec(t, c, "CREATE UNIQUE INDEX acct_id ON acct (id)")
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	return c
}

// TestColdWriteBackRidesTheCommitFlush: under a pool seven times smaller
// than the table, nearly every read-modify-write transaction steals a dirty
// page. That write-back used to force a log flush of its own (1.90 flushes
// per transaction), and once it rode the next commit's flush it still
// logged a 4 KB image of the page first (0.9 images per transaction). Now a
// page is imaged once per checkpoint: after a first pass over the table has
// imaged every page, a transaction logs its update and its commit, costs
// its commit's flush and nothing else — while the steal path demonstrably
// runs, and a crash afterwards loses nothing.
func TestColdWriteBackRidesTheCommitFlush(t *testing.T) {
	const rows, txns = 30000, 2000
	dir := t.TempDir()
	db := openDB(t, rmwOptions(dir))
	c := loadRMW(t, db, rows)
	tbl, _ := db.Table("acct")
	first := 0
	for id := 0; id < rows; id += rows / int(tbl.PageCount()) / 2 {
		rmw(t, c, int64(id))
		first++
	}
	flushes, writebacks := counter(t, db, "wal.flushes"), counter(t, db, "buffer.writebacks")
	syncs, images := counter(t, db, "buffer.writeback_syncs"), counter(t, db, "buffer.images_logged")
	rng := rand.New(rand.NewSource(25))
	for i := 0; i < txns; i++ {
		rmw(t, c, rng.Int63n(rows))
	}
	perTxn := float64(counter(t, db, "wal.flushes")-flushes) / txns
	wbPerTxn := float64(counter(t, db, "buffer.writebacks")-writebacks) / txns
	imgPerTxn := float64(counter(t, db, "buffer.images_logged")-images) / txns
	t.Logf("after a first pass of %d transactions, per transaction: %.3f log flushes, %.3f write-backs, %.3f images logged, %.3f syncs the pool forced",
		first, perTxn, wbPerTxn, imgPerTxn, float64(counter(t, db, "buffer.writeback_syncs")-syncs)/txns)
	if perTxn > 1.02 {
		t.Errorf("%.3f log flushes per transaction, want ≤ 1.02: write-backs still pay for their own sync", perTxn)
	}
	if imgPerTxn > 0.05 {
		t.Errorf("%.3f images logged per transaction, want ≤ 0.05: pages imaged this checkpoint are imaged again", imgPerTxn)
	}
	if wbPerTxn < 0.5 {
		t.Errorf("%.3f write-backs per transaction, want ≥ 0.5: the steal path did not run", wbPerTxn)
	}
	db.Crash()

	db2 := openDB(t, Options{Dir: dir, ParanoidRecovery: true})
	c2 := conn(t, db2)
	got := mustQuery(t, c2, "SELECT SUM(v), COUNT(*) FROM acct").All()[0]
	var want int64
	for id := 0; id < rows; id++ {
		want += int64(id % 1000)
	}
	if want += int64(first + txns); got[0].I != want || got[1].I != rows {
		t.Fatalf("after the crash SUM(v) = %d over %d rows, want %d over %d", got[0].I, got[1].I, want, rows)
	}
}

// TestCreateIndexCheckpointSyncsOnce: the checkpoint that makes CREATE
// UNIQUE INDEX durable images every dirty page under one log sync per
// FlushAll instead of one per page (669 syncs at the parent for this size).
func TestCreateIndexCheckpointSyncsOnce(t *testing.T) {
	db := openDB(t, Options{Dir: t.TempDir(), PoolMinPages: 4096, PoolInitPages: 4096, PoolMaxPages: 4096})
	c := conn(t, db)
	loadKV(t, c, "kv", 20000)
	before, pages := counter(t, db, "wal.flushes"), counter(t, db, "buffer.writebacks")
	mustExec(t, c, "CREATE UNIQUE INDEX kv_id ON kv (id)")
	syncs, pages := counter(t, db, "wal.flushes")-before, counter(t, db, "buffer.writebacks")-pages
	t.Logf("CREATE UNIQUE INDEX over 20 000 rows: %d log syncs for %d page writes", syncs, pages)
	if syncs > 8 {
		t.Errorf("CREATE UNIQUE INDEX cost %d log syncs, want ≤ 8", syncs)
	}
	if pages < 100 {
		t.Errorf("its checkpoint wrote %d pages: the test is not exercising the batch", pages)
	}
}

// BenchmarkColdReadModifyWrite is rmw_cold through core.Conn without the
// wire: one BEGIN/SELECT/UPDATE/COMMIT per op on 30 000 rows under a
// 128-page pool. It reports the log syncs and pool-forced syncs per op.
func BenchmarkColdReadModifyWrite(b *testing.B) {
	const rows = 30000
	db := openDB(b, rmwOptions(b.TempDir()))
	c := loadRMW(b, db, rows)
	rng := rand.New(rand.NewSource(25))
	flushes, forced := counter(b, db, "wal.flushes"), counter(b, db, "buffer.writeback_syncs")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rmw(b, c, rng.Int63n(rows))
	}
	b.StopTimer()
	b.ReportMetric(float64(counter(b, db, "wal.flushes")-flushes)/float64(b.N), "syncs/op")
	b.ReportMetric(float64(counter(b, db, "buffer.writeback_syncs")-forced)/float64(b.N), "forced-syncs/op")
}

// unwrittenImages crashes nothing; it reads the durable log and main.db of
// a crashed database in dir and counts, by page type, the pages whose
// newest logged image differs from what the page holds on disk — images
// recovery will restore although their bytes never reached (or tore on)
// the page.
func unwrittenImages(t *testing.T, dir string) map[page.Type]int {
	t.Helper()
	log, err := wal.Open(filepath.Join(dir, "anywhere.log"))
	if err != nil {
		t.Fatal(err)
	}
	plan, err := log.Analyze()
	log.CloseNoFlush()
	if err != nil {
		t.Fatal(err)
	}
	disk, err := os.ReadFile(filepath.Join(dir, "main.db"))
	if err != nil {
		t.Fatal(err)
	}
	out := map[page.Type]int{}
	for id, im := range plan.Images {
		at := int(id.Index()) * page.Size
		onDisk := make([]byte, page.Size)
		if at < len(disk) {
			copy(onDisk, disk[at:])
		}
		if string(onDisk) != string(im.After) {
			out[page.Buf(im.After).Type()]++
		}
	}
	return out
}

// TestImagedUnwrittenPagesRecover: an eviction now logs a page's image and
// writes the page later, so a crash can find images whose bytes never
// reached their pages. Recovery restores them like any image. For a heap
// and an index page that is shown by crashing a steady insert stream under
// a small pool (logged pages converge by replay; index trees are rebuilt
// after any replay); for the catalog, by tearing the first catalog page a
// schema change's checkpoint writes, so the rest of the chain is imaged
// and unwritten — and it must still come back only as a committed set.
func TestImagedUnwrittenPagesRecover(t *testing.T) {
	t.Run("index and heap pages", func(t *testing.T) {
		const rows = 6000
		dir := t.TempDir()
		db := openDB(t, Options{Dir: dir, PoolMinPages: 32, PoolInitPages: 32, PoolMaxPages: 32})
		c := conn(t, db)
		mustExec(t, c, "CREATE TABLE t (k INT, v INT)")
		mustExec(t, c, "CREATE UNIQUE INDEX t_k ON t (k)")
		keys := rand.New(rand.NewSource(7)).Perm(rows)
		for lo := 0; lo < rows; lo += 50 {
			mustExec(t, c, "BEGIN")
			for _, k := range keys[lo : lo+50] {
				mustExec(t, c, "INSERT INTO t VALUES (?, ?)", val.NewInt(int64(k)), val.NewInt(int64(k)*3))
			}
			mustExec(t, c, "COMMIT")
		}
		// Then re-key rows at random, so heap pages (updated in place) and
		// index leaves (an entry leaves each) are stolen dirty in random order:
		// the load filled both nearly in order.
		model := make(map[int64]int64, rows)
		for k := 0; k < rows; k++ {
			model[int64(k)] = int64(k) * 3
		}
		urng, next := rand.New(rand.NewSource(8)), int64(rows)
		for i := 0; i < 40; i++ {
			mustExec(t, c, "BEGIN")
			for j := 0; j < 10; j++ {
				k := int64(urng.Intn(rows))
				if _, ok := model[k]; !ok {
					continue
				}
				mustExec(t, c, "UPDATE t SET k = ?, v = v + 1 WHERE k = ?", val.NewInt(next), val.NewInt(k))
				model[next] = model[k] + 1
				delete(model, k)
				next++
			}
			mustExec(t, c, "COMMIT")
		}
		db.Crash()
		got := unwrittenImages(t, dir)
		t.Logf("imaged but unwritten at the crash, by page type: %v", got)
		if got[page.TypeIndex] == 0 || got[page.TypeTable] == 0 {
			t.Fatalf("no index or heap page was imaged and unwritten at the crash: %v", got)
		}
		db2 := openDB(t, Options{Dir: dir, ParanoidRecovery: true})
		c2 := conn(t, db2)
		if n := countRows(t, c2, "t"); n != rows {
			t.Fatalf("%d rows after recovery, want %d", n, rows)
		}
		tbl, _ := db2.Table("t")
		if n := tbl.Indexes[0].Tree.Stats.Entries.Load(); n != rows {
			t.Fatalf("the index holds %d entries for %d rows", n, rows)
		}
		for k, v := range model {
			if r := mustQuery(t, c2, "SELECT v FROM t WHERE k = ?", val.NewInt(k)).All(); len(r) != 1 || r[0][0].I != v {
				t.Fatalf("k = %d through the index: %v, want v = %d", k, r, v)
			}
		}
	})

	t.Run("catalog chain", func(t *testing.T) {
		dir := t.TempDir()
		long := func(i int) string { return fmt.Sprintf("t%d_%s", i, strings.Repeat("wide_", 160)) }
		db := openDB(t, Options{Dir: dir})
		c := conn(t, db)
		for i := 0; i < 3; i++ {
			mustExec(t, c, fmt.Sprintf("CREATE TABLE %s (a INT)", long(i)))
			mustExec(t, c, fmt.Sprintf("INSERT INTO %s VALUES (%d)", long(i), i))
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
		tear := &tearCatalog{}
		db = openDB(t, Options{Dir: dir, Injector: tear})
		c = conn(t, db)
		tear.armed.Store(true)
		if _, err := c.Exec(fmt.Sprintf("CREATE TABLE %s (a INT)", long(3))); !errors.Is(err, faultinject.ErrCrashed) {
			t.Fatalf("CREATE TABLE under a torn catalog write: %v, want the crash", err)
		}
		db.Crash()
		got := unwrittenImages(t, dir)
		t.Logf("imaged but unwritten (or torn) at the crash, by page type: %v", got)
		if got[page.TypeCatalog] < 2 {
			t.Fatalf("want the torn catalog page and at least one imaged, unwritten one: %v", got)
		}
		db2 := openDB(t, Options{Dir: dir, ParanoidRecovery: true})
		c2 := conn(t, db2)
		// The schema change's set committed before its pages were written: it
		// is wholly present, and so is everything before it.
		for i := 0; i < 4; i++ {
			want := int64(1)
			if i == 3 {
				want = 0
			}
			if n := countRows(t, c2, long(i)); n != want {
				t.Fatalf("table t%d holds %d rows after recovery, want %d", i, n, want)
			}
		}
	})
}

// tearCatalog, once armed, tears the first catalog page write it sees and
// then acts as a crashed machine.
type tearCatalog struct {
	armed, crashed atomic.Bool
}

func (c *tearCatalog) Fault(op faultinject.Op, _ uint64, data []byte) ([]byte, error) {
	if c.crashed.Load() {
		return nil, faultinject.Crashed(errors.New("after the crash"))
	}
	if op == faultinject.OpWrite && c.armed.Load() && page.Buf(data).Type() == page.TypeCatalog {
		c.crashed.Store(true)
		return append([]byte(nil), data[:len(data)/2]...), faultinject.Crashed(errors.New("torn catalog write"))
	}
	return nil, nil
}

func (c *tearCatalog) Crashpoint(string) error {
	if c.crashed.Load() {
		return faultinject.Crashed(errors.New("after the crash"))
	}
	return nil
}

// TestRedoOfAMovedRowsOlderUpdate: a row is updated in place, then grows
// out of its full page (a logged delete plus an insert elsewhere), and a
// neighbour grows into most of the room it left; the page's newest image
// holds that state. Replayed onto the image, the row's first update no
// longer fits where the row used to be: recovery once stopped there
// ("could not restore page … slot …") and the database did not open. The
// image is stamped with the LSN of the neighbour's update, so redo now
// replays none of the records it already holds. rmw_cold reaches this once
// a run commits enough increments for values to outgrow their encoding.
func TestRedoOfAMovedRowsOlderUpdate(t *testing.T) {
	dir := t.TempDir()
	db := openDB(t, Options{Dir: dir})
	c := conn(t, db)
	mustExec(t, c, "CREATE TABLE m (id INT, s VARCHAR(250))")
	mustExec(t, c, "BEGIN")
	for i := 0; i < 200; i++ {
		mustExec(t, c, "INSERT INTO m VALUES (?, ?)", val.NewInt(int64(i)), val.NewStr(strings.Repeat("a", 60)))
	}
	mustExec(t, c, "COMMIT")
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	tbl, _ := db.Table("m")
	first := tbl.FirstPage()
	mustExec(t, c, "UPDATE m SET s = ? WHERE id = 0", val.NewStr(strings.Repeat("b", 60)))  // in place
	mustExec(t, c, "UPDATE m SET s = ? WHERE id = 0", val.NewStr(strings.Repeat("c", 240))) // moves off the full page
	mustExec(t, c, "UPDATE m SET s = ? WHERE id = 1", val.NewStr(strings.Repeat("d", 125))) // grows into its room
	if err := db.Pool().FlushPage(first); err != nil {
		t.Fatal(err)
	}
	db.Crash()

	db2 := openDB(t, Options{Dir: dir, ParanoidRecovery: true})
	rows := mustQuery(t, conn(t, db2), "SELECT id, s FROM m WHERE id < 2").All()
	got := map[int64]string{}
	for _, r := range rows {
		got[r[0].I] = r[1].S
	}
	if len(got) != 2 || got[0] != strings.Repeat("c", 240) || got[1] != strings.Repeat("d", 125) {
		t.Fatalf("after recovery rows 0 and 1 are %v", rows)
	}
}
