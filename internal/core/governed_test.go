package core

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"anywheredb/internal/exec"
	"anywheredb/internal/mem"
	"anywheredb/internal/store"
)

// The probe table of the governed-statement tests: f is some 40 times the
// small pool, d is a build input some 8 times its soft limit.
const (
	govRows   = 200000
	govGroups = 150000
	govDim    = 30000
)

func seedGoverned(t testing.TB, c *Conn) {
	t.Helper()
	mustExec(t, c, "CREATE TABLE f (k INT, g INT, s VARCHAR(40))")
	mustExec(t, c, "CREATE TABLE d (k INT, g INT)")
	load := func(table string, n int, row func(sb *strings.Builder, i int)) {
		for lo := 0; lo < n; lo += 1000 {
			var sb strings.Builder
			sb.WriteString("INSERT INTO " + table + " VALUES ")
			for i := lo; i < lo+1000; i++ {
				if i > lo {
					sb.WriteString(", ")
				}
				row(&sb, i)
			}
			mustExec(t, c, sb.String())
		}
	}
	load("f", govRows, func(sb *strings.Builder, i int) {
		fmt.Fprintf(sb, "(%d, %d, 'payload-%032d')", i*7919%govRows, i%govGroups, i)
	})
	load("d", govDim, func(sb *strings.Builder, i int) { fmt.Fprintf(sb, "(%d, %d)", i, i*7%govDim) })
}

// governedBaseline is what a finished statement must leave behind.
type governedBaseline struct{ pinned, tempUsed int }

func tempUsed(t testing.TB, db *DB) int {
	t.Helper()
	free, err := db.st.FreeList(store.TempFile)
	if err != nil {
		t.Fatal(err)
	}
	return int(db.st.PageCount(store.TempFile)) - len(free)
}

func baselineOf(t testing.TB, db *DB) governedBaseline {
	return governedBaseline{db.pool.PinnedCount(), tempUsed(t, db)}
}

func (b governedBaseline) check(t testing.TB, db *DB, what string) {
	t.Helper()
	if n, _ := db.reg.Value("mem.leaked_pages"); n != 0 {
		t.Errorf("%s: %d pages still charged to a finished task", what, n)
	}
	if n := db.pool.PinnedCount(); n != b.pinned {
		t.Errorf("%s: %d pages pinned, %d before", what, n, b.pinned)
	}
	if n := tempUsed(t, db); n != b.tempUsed {
		t.Errorf("%s: %d temporary-file pages in use, %d before", what, n, b.tempUsed)
	}
}

func metric(t testing.TB, db *DB, name string) int64 {
	t.Helper()
	v, ok := db.reg.Value(name)
	if !ok {
		t.Fatalf("no metric %s", name)
	}
	return v
}

// findOp returns the first operator of the executed plan that want accepts.
func findOp(op exec.Operator, want func(exec.Operator) bool) exec.Operator {
	if want(exec.Unwrap(op)) {
		return op
	}
	for _, ch := range exec.Children(op) {
		if found := findOp(ch, want); found != nil {
			return found
		}
	}
	return nil
}

func rowStrings(rows *Rows, ordered bool) []string {
	out := make([]string, 0, rows.Count())
	for _, r := range rows.All() {
		out = append(out, fmt.Sprint(r))
	}
	if !ordered {
		sort.Strings(out)
	}
	return out
}

// governedCases are the statements whose memory-intensive operator must be
// seen, squeezed and satisfied by the governor on a pool the input dwarfs.
var governedCases = []struct {
	name, sql string
	ordered   bool
	label     string // the operator's EXPLAIN label
	gaveBack  func(exec.Operator) bool
}{
	{"order by", "SELECT k, s FROM f ORDER BY k", true, "Sort",
		func(op exec.Operator) bool { s, ok := op.(*exec.Sort); return ok && s.Spilled() }},
	{"group by", "SELECT g, COUNT(*) FROM f GROUP BY g", false, "HashGroupBy",
		func(op exec.Operator) bool { g, ok := op.(*exec.HashGroupBy); return ok && g.FellBack() }},
	{"join", "SELECT d.k, f.k FROM d, f WHERE d.g = f.g", false, "HashJoin",
		func(op exec.Operator) bool { j, ok := op.(*exec.HashJoin); return ok && j.SpilledPartitions() > 0 }},
}

// TestStatementsAreGoverned: on a 64-page pool (soft limit 16 pages, hard
// limit 48) every memory-intensive operator charges what it holds, is asked
// to give it back, does, and leaves nothing behind — whether the statement
// finishes, is cancelled, or dies at the hard limit.
func TestStatementsAreGoverned(t *testing.T) {
	if testing.Short() {
		t.Skip("loads a 200 000-row table twice")
	}
	small := openDB(t, Options{PoolMinPages: 56, PoolInitPages: 64, PoolMaxPages: 64, VacuumInterval: -1})
	big := openDB(t, Options{PoolMinPages: 4096, PoolInitPages: 4096, PoolMaxPages: 4096, VacuumInterval: -1})
	cs, cb := conn(t, small), conn(t, big)
	seedGoverned(t, cs)
	seedGoverned(t, cb)
	base := baselineOf(t, small)
	hard := int64(3 * 64 / 4)

	for _, tc := range governedCases {
		t.Run(tc.name, func(t *testing.T) {
			releases, denials := metric(t, small, "mem.release_requests"), metric(t, small, "mem.denials")
			peaks := metric(t, small, "mem.peak_pages")
			rows := mustQuery(t, cs, tc.sql)
			if got := metric(t, small, "mem.release_requests"); got <= releases {
				t.Errorf("mem.release_requests stayed at %d: the governor never asked", got)
			}
			if got := metric(t, small, "mem.denials"); got != denials {
				t.Errorf("mem.denials rose from %d to %d", denials, got)
			}
			if got := metric(t, small, "mem.peak_pages"); got != peaks+1 {
				t.Errorf("mem.peak_pages observed %d statements, want 1", got-peaks)
			}
			if findOp(rows.Plan().Root, tc.gaveBack) == nil {
				t.Errorf("no %s in the plan reports that it gave memory back", tc.label)
			}
			// What EXPLAIN ANALYZE prints for the operator is what it charged.
			for _, line := range explainRows(rows.Plan(), true).All() {
				if strings.TrimSpace(line[0].S) != tc.label {
					continue
				}
				if peak := line[5].I; peak <= 0 || peak > hard {
					t.Errorf("%s mem_pages = %d, want in (0, %d]", tc.label, peak, hard)
				}
			}
			want := rowStrings(mustQuery(t, cb, tc.sql), tc.ordered)
			got := rowStrings(rows, tc.ordered)
			if len(got) != len(want) {
				t.Fatalf("%d rows, %d on the large pool", len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("row %d: %s, on the large pool %s", i, got[i], want[i])
				}
			}
			base.check(t, small, tc.name)
		})
	}

	t.Run("cancelled", func(t *testing.T) {
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
		defer cancel()
		if _, err := cs.QueryContext(ctx, governedCases[0].sql); !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("want the deadline, got %v", err)
		}
		base.check(t, small, "cancelled sort")
	})

	t.Run("hard limit", func(t *testing.T) {
		// A DISTINCT aggregate's seen-set cannot be given back: it is charged
		// all the same, so only the hard limit bounds it.
		const q = "SELECT COUNT(DISTINCT g) FROM f"
		if _, err := cs.Query(q); !errors.Is(err, mem.ErrHardLimit) {
			t.Fatalf("want mem.ErrHardLimit, got %v", err)
		}
		base.check(t, small, "statement over the hard limit")
		if got := mustQuery(t, cb, q).All()[0][0].I; got != govGroups {
			t.Fatalf("large pool: COUNT(DISTINCT g) = %d", got)
		}
	})

	t.Run("four connections", func(t *testing.T) {
		// Each sorts under a quarter of the shared pool (12 pages, soft and
		// hard) while the vacuum runs and the pool is resized under them.
		stop := make(chan struct{})
		var churn sync.WaitGroup
		churn.Add(1)
		go func() {
			defer churn.Done()
			for size := 56; ; size = 120 - size {
				select {
				case <-stop:
					return
				default:
				}
				small.VacuumOnce()
				small.pool.Resize(size)
			}
		}()
		releases := metric(t, small, "mem.release_requests")
		var wg sync.WaitGroup
		for i := 0; i < 4; i++ {
			c := conn(t, small)
			wg.Add(1)
			go func() {
				defer wg.Done()
				rows, err := c.Query("SELECT k FROM f ORDER BY k")
				if err != nil {
					t.Error(err)
					return
				}
				for i, r := range rows.All() {
					if r[0].I != int64(i) {
						t.Errorf("row %d has k = %d", i, r[0].I)
						return
					}
				}
			}()
		}
		wg.Wait()
		close(stop)
		churn.Wait()
		small.pool.Resize(64)
		if got := metric(t, small, "mem.release_requests"); got == releases {
			t.Error("no statement was asked to give memory back")
		}
		base.check(t, small, "four sorts")
	})

	t.Run("scan", func(t *testing.T) {
		// What a scan holds between batches — a carry of heap rows, a window
		// of a segment — is charged to the statement; a squeezed statement's
		// next batch is the smallest there is; Close leaves nothing charged.
		mustExec(t, cs, "ALTER TABLE d STORE COLUMNAR")
		base := baselineOf(t, small) // the segments are new
		for _, name := range []string{"f", "d"} {
			tbl, _ := small.Table(name)
			task := small.memG.Begin()
			ctx := cs.execCtx(task)
			scan := &exec.TableScan{Table: tbl, ZoneCol: -1}
			if err := scan.Open(ctx); err != nil {
				t.Fatal(err)
			}
			var b exec.Batch
			next := func() int {
				if err := scan.NextBatch(ctx, &b); err != nil {
					t.Fatal(err)
				}
				return b.Len()
			}
			// Soft limit 16 pages: a quarter of it, at 64 rows a page.
			if n := next(); n != 256 || task.UsedPages() == 0 {
				t.Errorf("%s: first batch of %d rows with %d pages charged, want 256 rows and a charge", name, n, task.UsedPages())
			}
			small.memG.SetMPL(64) // soft limit: one page
			n := next()
			small.memG.SetMPL(4)
			if n != exec.MinBatchSize {
				t.Errorf("%s: batch of %d rows under a one-page soft limit, want %d", name, n, exec.MinBatchSize)
			}
			if err := scan.Close(ctx); err != nil {
				t.Fatal(err)
			}
			if used := task.UsedPages(); used != 0 {
				t.Errorf("%s: %d pages charged after Close", name, used)
			}
			task.Finish()
			base.check(t, small, "scan of "+name)
		}
	})
}

// TestReleaseOrderIsThePlans: memory is asked back from the top of the
// plan down (§4.3), so a consumer gives up its own before its input is
// made to. The sort at the root of a join writes runs; the join below it,
// whose build fits the quota, keeps every partition.
func TestReleaseOrderIsThePlans(t *testing.T) {
	db := openDB(t, Options{PoolMinPages: 64, PoolInitPages: 64, PoolMaxPages: 64, VacuumInterval: -1})
	c := conn(t, db)
	mustExec(t, c, "CREATE TABLE a (k INT, g INT)")
	mustExec(t, c, "CREATE TABLE b (k INT, g INT, s VARCHAR(40))")
	mustExec(t, c, "CREATE TABLE x (g INT)")
	var sa, sb strings.Builder
	for i := 0; i < 1000; i++ {
		fmt.Fprintf(&sa, ", (%d, %d)", i, i)
	}
	for i := 0; i < 20000; i++ {
		fmt.Fprintf(&sb, ", (%d, %d, 'payload-%032d')", i*7919%20000, i%1000, i)
	}
	mustExec(t, c, "INSERT INTO a VALUES "+sa.String()[2:])
	mustExec(t, c, "INSERT INTO b VALUES "+sb.String()[2:])
	mustExec(t, c, "INSERT INTO x VALUES (1), (2), (3)")

	rows := mustQuery(t, c, "SELECT a.k, b.k, b.s FROM a, b WHERE a.g = b.g ORDER BY b.k")
	if rows.Count() != 20000 {
		t.Fatalf("%d rows", rows.Count())
	}
	srt, _ := exec.Unwrap(findOp(rows.Plan().Root, func(op exec.Operator) bool { _, ok := op.(*exec.Sort); return ok })).(*exec.Sort)
	if srt == nil || len(rows.Plan().HashJoins) != 1 {
		t.Fatalf("want a sort over one hash join:\n%v", explainRows(rows.Plan(), true).All())
	}
	if join := rows.Plan().HashJoins[0]; !srt.Spilled() || join.SpilledPartitions() != 0 {
		t.Errorf("sort spilled: %v, join partitions evicted: %d; want the sort alone to give memory back",
			srt.Spilled(), join.SpilledPartitions())
	}

	// Depths grow down the tree: sort, group-by, the topmost join, the join
	// below it.
	rows = mustQuery(t, c, "SELECT a.g, COUNT(*) FROM a, b, x WHERE a.g = b.g AND b.g = x.g GROUP BY a.g ORDER BY a.g")
	var depths []int
	var walk func(op exec.Operator)
	walk = func(op exec.Operator) {
		switch o := exec.Unwrap(op).(type) {
		case *exec.Sort:
			depths = append(depths, o.Depth)
		case *exec.HashGroupBy:
			depths = append(depths, o.Depth)
		case *exec.HashJoin:
			depths = append(depths, o.Depth)
		}
		for _, ch := range exec.Children(op) {
			walk(ch)
		}
	}
	walk(rows.Plan().Root)
	if len(depths) != 4 || !slices.IsSorted(depths) || len(slices.Compact(slices.Clone(depths))) != 4 {
		t.Errorf("depths from the root down: %v, want four, strictly increasing", depths)
	}
}
