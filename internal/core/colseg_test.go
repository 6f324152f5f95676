package core

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"anywheredb/internal/faultinject"
)

// seedFact creates a scan-friendly table and bulk-inserts n rows
// (k = i, s cycles over four tags, v = 3i), then caps the segment size at
// 64 rows so even small tables seal into several segments.
func seedFact(t testing.TB, db *DB, c *Conn, n int) {
	t.Helper()
	mustExec(t, c, "CREATE TABLE fact (k INT, s VARCHAR(10), v INT)")
	var sb strings.Builder
	sb.WriteString("INSERT INTO fact VALUES ")
	for i := 0; i < n; i++ {
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "(%d, 'tag-%d', %d)", i, i%4, 3*i)
	}
	mustExec(t, c, sb.String())
	tbl, ok := db.Table("fact")
	if !ok {
		t.Fatal("fact table missing")
	}
	tbl.SegmentRows = 64
}

func factSegments(t testing.TB, db *DB) int {
	t.Helper()
	tbl, ok := db.Table("fact")
	if !ok {
		t.Fatal("fact table missing")
	}
	return tbl.SegmentCount()
}

// sysTableRow reads one table's row out of sys.tables.
func sysTableRow(t testing.TB, c *Conn, name string) (storage string, segments int64) {
	t.Helper()
	rows := mustQuery(t, c, "SELECT name, storage, segments FROM sys.tables")
	for _, r := range rows.All() {
		if r[0].S == name {
			return r[1].S, r[2].I
		}
	}
	t.Fatalf("sys.tables has no row for %q", name)
	return "", 0
}

func counter(t testing.TB, db *DB, name string) int64 {
	t.Helper()
	v, ok := db.Telemetry().Value(name)
	if !ok {
		t.Fatalf("telemetry %q not registered", name)
	}
	return v
}

func TestAlterStoreColumnarBasics(t *testing.T) {
	db := openDB(t, Options{})
	c := conn(t, db)
	defer c.Close()
	seedFact(t, db, c, 320)

	mustExec(t, c, "ALTER TABLE fact STORE COLUMNAR")
	if got := factSegments(t, db); got != 5 {
		t.Fatalf("320 rows / 64 per segment: want 5 segments, got %d", got)
	}
	if storage, segs := sysTableRow(t, c, "fact"); storage != "columnar" || segs != 5 {
		t.Fatalf("sys.tables: storage=%q segments=%d", storage, segs)
	}

	// A selective point predicate must skip segments via the zone maps and
	// still produce the exact row.
	skippedBefore := counter(t, db, "colseg.segments_skipped")
	rows := mustQuery(t, c, "SELECT v FROM fact WHERE k = 100")
	if rows.Count() != 1 || rows.All()[0][0].I != 300 {
		t.Fatalf("point query through segments: %v", rows.All())
	}
	if got := counter(t, db, "colseg.segments_skipped"); got <= skippedBefore {
		t.Fatalf("zone maps skipped nothing: %d -> %d", skippedBefore, got)
	}
	if got := counter(t, db, "colseg.decode_rows"); got == 0 {
		t.Fatal("colseg.decode_rows did not move")
	}

	// Inserts append to the delta tail without invalidating the segments.
	mustExec(t, c, "INSERT INTO fact VALUES (1000, 'late', 7)")
	if got := factSegments(t, db); got != 5 {
		t.Fatalf("insert must not invalidate segments, got %d", got)
	}
	rows = mustQuery(t, c, "SELECT COUNT(*) FROM fact")
	if rows.All()[0][0].I != 321 {
		t.Fatalf("count with delta tail: %v", rows.All())
	}
	rows = mustQuery(t, c, "SELECT v FROM fact WHERE k = 1000")
	if rows.Count() != 1 || rows.All()[0][0].I != 7 {
		t.Fatalf("delta row not visible: %v", rows.All())
	}

	// Updates invalidate: the heap is authoritative and sys.tables reverts.
	mustExec(t, c, "UPDATE fact SET v = 1 WHERE k = 5")
	if got := factSegments(t, db); got != 0 {
		t.Fatalf("update must invalidate segments, got %d", got)
	}
	if got := counter(t, db, "colseg.invalidations"); got == 0 {
		t.Fatal("colseg.invalidations did not move")
	}
	if storage, _ := sysTableRow(t, c, "fact"); storage != "row" {
		t.Fatalf("sys.tables after invalidation: storage=%q", storage)
	}
	rows = mustQuery(t, c, "SELECT v FROM fact WHERE k = 5")
	if rows.Count() != 1 || rows.All()[0][0].I != 1 {
		t.Fatalf("post-invalidation read: %v", rows.All())
	}

	// Rebuild, then ALTER back to row.
	mustExec(t, c, "ALTER TABLE fact STORE COLUMNAR")
	if factSegments(t, db) == 0 {
		t.Fatal("rebuild produced no segments")
	}
	// Re-ALTER while already columnar must replace the snapshot cleanly.
	mustExec(t, c, "ALTER TABLE fact STORE COLUMNAR")
	mustExec(t, c, "ALTER TABLE fact STORE ROW")
	if got := factSegments(t, db); got != 0 {
		t.Fatalf("STORE ROW left %d segments", got)
	}
	rows = mustQuery(t, c, "SELECT COUNT(*) FROM fact")
	if rows.All()[0][0].I != 321 {
		t.Fatalf("count after STORE ROW: %v", rows.All())
	}
}

func TestColumnarPersistsAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	c, err := db.Connect()
	if err != nil {
		t.Fatal(err)
	}
	seedFact(t, db, c, 320)
	mustExec(t, c, "ALTER TABLE fact STORE COLUMNAR")
	// Grow a delta tail after the persisted build.
	mustExec(t, c, "INSERT INTO fact VALUES (2000, 'late', 11), (2001, 'late', 12)")
	c.Close()
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2 := openDB(t, Options{Dir: dir})
	c2 := conn(t, db2)
	defer c2.Close()
	if got := factSegments(t, db2); got != 5 {
		t.Fatalf("segments did not survive reopen: %d", got)
	}
	rows := mustQuery(t, c2, "SELECT COUNT(*) FROM fact")
	if rows.All()[0][0].I != 322 {
		t.Fatalf("count after reopen: %v", rows.All())
	}
	rows = mustQuery(t, c2, "SELECT v FROM fact WHERE k = 100")
	if rows.Count() != 1 || rows.All()[0][0].I != 300 {
		t.Fatalf("segment read after reopen: %v", rows.All())
	}
	rows = mustQuery(t, c2, "SELECT v FROM fact WHERE k = 2001")
	if rows.Count() != 1 || rows.All()[0][0].I != 12 {
		t.Fatalf("delta read after reopen: %v", rows.All())
	}

	// An invalidating write followed by a clean restart must come back as
	// row storage with the heap intact.
	mustExec(t, c2, "DELETE FROM fact WHERE k = 2000")
	c2.Close()
	if err := db2.Close(); err != nil {
		t.Fatal(err)
	}
	db3 := openDB(t, Options{Dir: dir})
	c3 := conn(t, db3)
	defer c3.Close()
	if got := factSegments(t, db3); got != 0 {
		t.Fatalf("invalidated snapshot resurrected after reopen: %d segments", got)
	}
	rows = mustQuery(t, c3, "SELECT COUNT(*) FROM fact")
	if rows.All()[0][0].I != 321 {
		t.Fatalf("count after invalidation+reopen: %v", rows.All())
	}
}

// TestColumnarCrashMidBuild crashes between the committed segment build
// and the checkpoint that would publish it. The table must recover fully
// readable from the row heap, with the catalog still saying "row".
func TestColumnarCrashMidBuild(t *testing.T) {
	dir := t.TempDir()
	{
		db, err := Open(Options{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		c, err := db.Connect()
		if err != nil {
			t.Fatal(err)
		}
		seedFact(t, db, c, 320)
		c.Close()
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
	}

	sched := faultinject.NewSchedule(faultinject.Config{
		Seed:        7,
		Crashpoints: map[string]int{"ddl.before_checkpoint": 1},
	})
	db, err := Open(Options{Dir: dir, Injector: sched, ParanoidRecovery: true})
	if err != nil {
		t.Fatal(err)
	}
	c, err := db.Connect()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Exec("ALTER TABLE fact STORE COLUMNAR"); err == nil {
		t.Fatal("ALTER should fail at the ddl.before_checkpoint crashpoint")
	}
	if !sched.Crashed() {
		t.Fatal("crashpoint did not fire")
	}
	db.Crash()

	db2 := openDB(t, Options{Dir: dir, ParanoidRecovery: true})
	c2 := conn(t, db2)
	defer c2.Close()
	if got := factSegments(t, db2); got != 0 {
		t.Fatalf("unpublished build survived the crash: %d segments", got)
	}
	rows := mustQuery(t, c2, "SELECT COUNT(*), SUM(v) FROM fact")
	r := rows.All()[0]
	wantSum := int64(0)
	for i := 0; i < 320; i++ {
		wantSum += int64(3 * i)
	}
	if r[0].I != 320 || r[1].I != wantSum {
		t.Fatalf("heap not intact after crash: count=%d sum=%d want 320/%d", r[0].I, r[1].I, wantSum)
	}
	// The table still works end to end: a rebuild after recovery succeeds.
	mustExec(t, c2, "ALTER TABLE fact STORE COLUMNAR")
	if factSegments(t, db2) == 0 {
		t.Fatal("rebuild after crash recovery produced no segments")
	}
}

// TestReorgPromotes drives the storage reorganizer directly: a scan-heavy
// table above the size floor is promoted to columnar; a tiny table is not.
func TestReorgPromotes(t *testing.T) {
	db := openDB(t, Options{ReorgMinRows: 100})
	c := conn(t, db)
	defer c.Close()
	seedFact(t, db, c, 320)
	mustExec(t, c, "CREATE TABLE tiny (k INT)")
	mustExec(t, c, "INSERT INTO tiny VALUES (1), (2), (3)")

	for i := 0; i < 12; i++ {
		mustQuery(t, c, "SELECT COUNT(*) FROM fact")
		mustQuery(t, c, "SELECT COUNT(*) FROM tiny")
	}
	if n := db.ReorgOnce(); n != 1 {
		t.Fatalf("ReorgOnce promoted %d tables, want 1", n)
	}
	if factSegments(t, db) == 0 {
		t.Fatal("fact not promoted to columnar")
	}
	tiny, _ := db.Table("tiny")
	if tiny.SegmentCount() != 0 {
		t.Fatal("tiny table must stay row-stored")
	}
	if got := counter(t, db, "colseg.reorg_promotions"); got != 1 {
		t.Fatalf("colseg.reorg_promotions = %d, want 1", got)
	}
	// The digests were reset at promotion; with no fresh scans a second
	// pass is a no-op (and the promoted table is skipped anyway).
	if n := db.ReorgOnce(); n != 0 {
		t.Fatalf("second ReorgOnce promoted %d tables, want 0", n)
	}
}

func TestLoadTableStoreColumnar(t *testing.T) {
	db := openDB(t, Options{})
	c := conn(t, db)
	defer c.Close()
	mustExec(t, c, "CREATE TABLE ld (k INT, s VARCHAR(16))")

	path := filepath.Join(t.TempDir(), "ld.csv")
	var sb strings.Builder
	for i := 0; i < 200; i++ {
		fmt.Fprintf(&sb, "%d,name-%d\n", i, i)
	}
	if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
		t.Fatal(err)
	}

	res := mustExec(t, c, fmt.Sprintf("LOAD TABLE ld FROM '%s' STORE COLUMNAR", path))
	if res.RowsAffected != 200 {
		t.Fatalf("loaded %d rows, want 200", res.RowsAffected)
	}
	tbl, _ := db.Table("ld")
	if tbl.SegmentCount() == 0 {
		t.Fatal("LOAD ... STORE COLUMNAR left the table row-stored")
	}
	rows := mustQuery(t, c, "SELECT s FROM ld WHERE k = 137")
	if rows.Count() != 1 || rows.All()[0][0].S != "name-137" {
		t.Fatalf("point read after load: %v", rows.All())
	}
}

// TestDifferentialColumnarVsRow runs the shared differential workload on a
// row-stored engine and a columnar one (small segments, rebuilt after
// every invalidating DML) and demands identical results throughout. The
// EXPLAIN comparison is skipped: scan costs — and therefore join order —
// legitimately differ between the storage formats.
func TestDifferentialColumnarVsRow(t *testing.T) {
	rowDB := openDB(t, Options{})
	colDB := openDB(t, Options{})
	rc, cc := conn(t, rowDB), conn(t, colDB)
	defer rc.Close()
	defer cc.Close()
	diffSeed(t, rc)
	diffSeed(t, cc)

	columnarize := func() {
		for _, name := range []string{"emp", "dept", "badge"} {
			tbl, ok := colDB.Table(name)
			if !ok {
				t.Fatalf("table %q missing", name)
			}
			tbl.SegmentRows = 64
			mustExec(t, cc, "ALTER TABLE "+name+" STORE COLUMNAR")
			if tbl.SegmentCount() == 0 {
				t.Fatalf("table %q did not seal into segments", name)
			}
		}
	}
	columnarize()

	for _, q := range diffWorkload {
		if q.dml {
			res, err := rc.Exec(q.sql)
			if err != nil {
				t.Fatalf("row: %q: %v", q.sql, err)
			}
			cres, err := cc.Exec(q.sql)
			if err != nil {
				t.Fatalf("columnar: %q: %v", q.sql, err)
			}
			if cres.RowsAffected != res.RowsAffected {
				t.Errorf("%q: affected %d vs %d on row path", q.sql, cres.RowsAffected, res.RowsAffected)
			}
			// Updates/deletes invalidated the snapshot; reseal so the rest
			// of the workload keeps exercising the columnar path.
			columnarize()
			continue
		}
		want := renderRows(mustQuery(t, rc, q.sql, q.params...), q.ordered)
		got := renderRows(mustQuery(t, cc, q.sql, q.params...), q.ordered)
		diffCompare(t, q, "columnar", got, want)
	}

	if got := counter(t, colDB, "colseg.decode_rows"); got == 0 {
		t.Fatal("differential workload never decoded a segment")
	}
}
