package core

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"anywheredb/internal/exec"
	"anywheredb/internal/val"
)

// loadFact fills table name with n rows of the benchmark's fact shape.
func loadFact(t testing.TB, c *Conn, name string, n int) {
	t.Helper()
	mustExec(t, c, "CREATE TABLE "+name+" (id INT, grp INT, v INT, pad VARCHAR(72))")
	mustExec(t, c, "BEGIN")
	for lo := 0; lo < n; lo += 500 {
		var sb strings.Builder
		for i := lo; i < lo+500 && i < n; i++ {
			fmt.Fprintf(&sb, ", (%d, %d, %d, 'pad-%02d')", i, i%16, i%1000, i%64)
		}
		mustExec(t, c, "INSERT INTO "+name+" VALUES "+sb.String()[2:])
	}
	mustExec(t, c, "COMMIT")
}

// pageRequests is every buffer-pool page request so far, hit or miss.
func pageRequests(t testing.TB, db *DB) int64 {
	return counter(t, db, "buffer.hits") + counter(t, db, "buffer.misses")
}

// TestLimitOneStopsTheScan: a scan is pulled, not materialised, so what
// SELECT … LIMIT 1 costs does not depend on the table: the same few page
// requests over 5 000 heap rows and over 50 000, and over segments one
// window of one row, with every other segment never reached.
func TestLimitOneStopsTheScan(t *testing.T) {
	db := openDB(t, Options{VacuumInterval: -1})
	c := conn(t, db)
	loadFact(t, c, "small", 5000)
	loadFact(t, c, "big", 50000)
	cost := func(table string) int64 {
		q := "SELECT v FROM " + table + " LIMIT 1"
		mustQuery(t, c, q) // the statement is prepared and planned once before it is measured
		before := pageRequests(t, db)
		if rows := mustQuery(t, c, q); rows.Count() != 1 || rows.All()[0][0].I != 0 {
			t.Fatalf("%s: %v", q, rows.All())
		}
		return pageRequests(t, db) - before
	}
	small, big := cost("small"), cost("big")
	if small != big || big > 3 {
		t.Errorf("LIMIT 1 made %d page requests over 5 000 rows and %d over 50 000; want the same, at most 3", small, big)
	}

	mustExec(t, c, "ALTER TABLE big STORE COLUMNAR")
	decoded := counter(t, db, "colseg.decode_rows")
	if rows := mustQuery(t, c, "SELECT v FROM big LIMIT 1"); rows.Count() != 1 || rows.All()[0][0].I != 0 {
		t.Fatalf("columnar LIMIT 1: %v", rows.All())
	}
	if got := counter(t, db, "colseg.decode_rows") - decoded; got < 1 || got > exec.DefaultBatchSize {
		t.Errorf("columnar LIMIT 1 decoded windows of %d rows in all, want one window", got)
	}
	// EXPLAIN ANALYZE says what became of the segments.
	plan := mustQuery(t, c, "EXPLAIN ANALYZE SELECT v FROM big LIMIT 1").All()
	scan := plan[len(plan)-1][0].S
	if want := fmt.Sprintf("segments=%d skipped=0 unreached=%d", 7, 6); !strings.Contains(scan, want) {
		t.Errorf("EXPLAIN ANALYZE scan line %q, want %q in it", scan, want)
	}
	plan = mustQuery(t, c, "EXPLAIN ANALYZE SELECT v FROM big WHERE id = 9000 LIMIT 1").All()
	scan = plan[len(plan)-1][0].S
	if want := "segments=7 skipped=1 unreached=5"; !strings.Contains(scan, want) {
		t.Errorf("EXPLAIN ANALYZE scan line %q, want %q in it", scan, want)
	}
}

// TestScanFeedbackCountsRowsProduced: the reorganizer's scan signal is the
// rows a scan handed out, reported once when it closes — not the size of
// the table it was stopped in.
func TestScanFeedbackCountsRowsProduced(t *testing.T) {
	db := openDB(t, Options{VacuumInterval: -1})
	c := conn(t, db)
	loadFact(t, c, "fact", 5000)
	scanned := func() (scans, rows int64) {
		for _, a := range db.FlightRecorder().Access().Snapshot() {
			if a.Table == "fact" {
				return a.Scans, a.ScanRows
			}
		}
		return 0, 0
	}
	scans0, rows0 := scanned()
	mustQuery(t, c, "SELECT v FROM fact LIMIT 10")
	scans1, rows1 := scanned()
	if scans1 != scans0+1 || rows1 != rows0+10 {
		t.Errorf("LIMIT 10 reported %d scans of %d rows, want 1 of 10", scans1-scans0, rows1-rows0)
	}
	mustQuery(t, c, "SELECT COUNT(*) FROM fact")
	if scans2, rows2 := scanned(); scans2 != scans1+1 || rows2 != rows1+5000 {
		t.Errorf("a full scan reported %d scans of %d rows, want 1 of 5000", scans2-scans1, rows2-rows1)
	}
}

// TestScanAggAllocationCeiling: the benchmark's scan_agg statement over its
// 50 000-row columnar table allocates one window's typed vectors per
// execution — two 1 024-value int64 columns — and no boxed copy of them
// between the decode and the aggregate. It measured 48 433 B and 203
// objects; the ceiling is 1.25× that. (A statement that boxed its windows
// allocated 277 KB; one that copied the table, 15.8 MB and 27 800 objects.)
func TestScanAggAllocationCeiling(t *testing.T) {
	db := openDB(t, Options{VacuumInterval: -1, PoolMinPages: 4096, PoolInitPages: 4096, PoolMaxPages: 4096})
	c := conn(t, db)
	loadFact(t, c, "fact", 50000)
	mustExec(t, c, "ALTER TABLE fact STORE COLUMNAR")
	stmt := db.Prepare("SELECT grp, COUNT(*), SUM(v) FROM fact WHERE v < ? GROUP BY grp")
	run := func(bound int64) {
		_, rows, err := c.Run(context.Background(), stmt, []val.Value{val.NewInt(bound)})
		if err != nil {
			t.Fatal(err)
		}
		if rows.Count() != 16 {
			t.Fatalf("%d groups", rows.Count())
		}
	}
	for i := 0; i < 3; i++ {
		run(550)
	}
	decoded := counter(t, db, "colseg.decode_rows")
	const runs = 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		run(500 + int64(i)*10)
	}
	runtime.ReadMemStats(&after)
	bytes := (after.TotalAlloc - before.TotalAlloc) / runs
	objects := (after.Mallocs - before.Mallocs) / runs
	t.Logf("%d B and %d objects per execution", bytes, objects)
	if bytes > 60_000 || objects > 250 {
		t.Errorf("scan_agg allocates %d B and %d objects per execution, want at most 60 000 B and 250", bytes, objects)
	}
	if got := (counter(t, db, "colseg.decode_rows") - decoded) / runs; got != 50000 {
		t.Errorf("colseg.decode_rows moved %d per execution, want the table's 50 000", got)
	}
}
