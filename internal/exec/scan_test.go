package exec

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"anywheredb/internal/colseg"
	"anywheredb/internal/mvcc"
	"anywheredb/internal/table"
	"anywheredb/internal/txn"
	"anywheredb/internal/val"
	"anywheredb/internal/wal"
)

// factTable loads n rows of the benchmark's fact shape — (id, grp, v, pad),
// grp NULL on every eleventh row — seals them into segments of segRows rows
// and then inserts delta more, so a columnar scan of it always crosses from
// segments into a live delta tail.
func factTable(t testing.TB, ctx *Ctx, n, delta, segRows int) *table.Table {
	t.Helper()
	tbl, err := table.Create(ctx.Pool, ctx.St, 0, uint64(7000+n), fmt.Sprintf("fact%d", n), []table.Column{
		{Name: "id", Kind: val.KInt},
		{Name: "grp", Kind: val.KInt},
		{Name: "v", Kind: val.KInt},
		{Name: "pad", Kind: val.KStr},
	})
	if err != nil {
		t.Fatal(err)
	}
	tbl.SegmentRows = segRows
	load := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			grp := val.NewInt(int64(i % 16))
			if i%11 == 0 {
				grp = val.Null
			}
			row := Row{val.NewInt(int64(i)), grp, val.NewInt(int64(i % 1000)), val.NewStr(fmt.Sprintf("pad-%02d", i%64))}
			if _, err := tbl.Insert(nil, row); err != nil {
				t.Fatal(err)
			}
		}
	}
	load(0, n)
	if _, err := tbl.BuildColumnar(nil, false); err != nil {
		t.Fatal(err)
	}
	load(n, n+delta)
	return tbl
}

func encodeRows(rows []Row, sorted bool) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = string(val.EncodeRow(r))
	}
	if sorted {
		sort.Strings(out)
	}
	return out
}

// TestScanFormsAgree: whatever sits above the scan, the vector-form batches
// of a columnar scan and the row-form batches of a heap scan give the same
// rows at every batch size — with a live delta tail, a predicate that
// selects nothing in most windows, and a NULL group key.
func TestScanFormsAgree(t *testing.T) {
	ctx, _ := testCtx(t, 1024)
	const n, delta = 5000, 300
	tbl := factTable(t, ctx, n, delta, 1000)
	if tbl.SegmentCount() != 5 {
		t.Fatalf("%d segments", tbl.SegmentCount())
	}
	// id >= 3500 selects nothing in the windows of the first three segments
	// and part of a window in the fourth; no zone hint, so Filter sees them.
	filtered := func(heap bool) Operator {
		return &Filter{
			Input: &TableScan{Table: tbl, ZoneCol: -1, NoColumnar: heap},
			Pred:  Cmp{Op: ">=", L: Col{Idx: 0}, R: Const{V: val.NewInt(3500)}},
		}
	}
	var keys []Row
	for i := 0; i < 16; i += 3 {
		keys = append(keys, intRow(int64(i)))
	}
	cases := []struct {
		name   string
		build  func(heap bool) Operator
		sorted bool
		want   int
	}{
		{"filter", filtered, false, n + delta - 3500},
		{"filter-general-pred", func(h bool) Operator {
			return &Filter{Input: filtered(h), Pred: Cmp{Op: "=", L: Arith{Op: '%', L: Col{Idx: 2}, R: Const{V: val.NewInt(2)}}, R: Const{V: val.NewInt(1)}}}
		}, false, (n + delta - 3500) / 2},
		{"filter-sort", func(h bool) Operator {
			return &Sort{Input: filtered(h), Keys: []SortKey{{Expr: Col{Idx: 2}}, {Expr: Col{Idx: 0}, Desc: true}}}
		}, false, n + delta - 3500},
		{"filter-join-build", func(h bool) Operator {
			return &HashJoin{Left: filtered(h), Right: rowsOp(keys...), LeftKeys: []Expr{Col{Idx: 1}}, RightKeys: []Expr{Col{Idx: 0}}}
		}, false, -1},
		{"filter-join-probe", func(h bool) Operator {
			return &HashJoin{Left: rowsOp(keys...), Right: filtered(h), LeftKeys: []Expr{Col{Idx: 0}}, RightKeys: []Expr{Col{Idx: 1}}}
		}, false, -1},
		{"filter-distinct", func(h bool) Operator {
			return &HashDistinct{Input: &Project{Input: filtered(h), Exprs: []Expr{Col{Idx: 1}, Col{Idx: 3}}}}
		}, false, -1},
		{"filter-groupby", func(h bool) Operator {
			return &HashGroupBy{Input: filtered(h), Keys: []Expr{Col{Idx: 1}},
				Aggs: []AggSpec{{Fn: AggCountStar}, {Fn: AggSum, Arg: Col{Idx: 2}}, {Fn: AggMax, Arg: Arith{Op: '+', L: Col{Idx: 0}, R: Col{Idx: 2}}}}}
		}, true, 17},
		{"limit", func(h bool) Operator { return &Limit{Input: filtered(h), N: 37} }, false, 37},
		{"limit-bare", func(h bool) Operator {
			return &Limit{Input: &TableScan{Table: tbl, ZoneCol: -1, NoColumnar: h}, N: 1500}
		}, false, 1500},
	}
	for _, tc := range cases {
		ctx.ForceBatchSize = 1024
		want := encodeRows(drain(t, ctx, tc.build(true)), tc.sorted)
		if tc.want >= 0 && len(want) != tc.want {
			t.Fatalf("%s: heap path returned %d rows, want %d", tc.name, len(want), tc.want)
		}
		if len(want) == 0 {
			t.Fatalf("%s: empty reference result", tc.name)
		}
		for _, size := range []int{1, 16, 1024} {
			for _, heap := range []bool{true, false} {
				ctx.ForceBatchSize = size
				got := encodeRows(drain(t, ctx, tc.build(heap)), tc.sorted)
				if len(got) != len(want) {
					t.Errorf("%s heap=%v batch=%d: %d rows, want %d", tc.name, heap, size, len(got), len(want))
					continue
				}
				for i := range got {
					if got[i] != want[i] {
						t.Errorf("%s heap=%v batch=%d: row %d differs", tc.name, heap, size, i)
						break
					}
				}
			}
		}
	}
	ctx.ForceBatchSize = 0
}

// TestScanKernelsAgree: the typed kernels under a vector-form batch —
// col <op> const over int64 and float64 vectors and their NULL bitmaps,
// and HashGroupBy reading columns in place — answer what the heap path
// answers, at batch size 1 and adaptive. The table holds a bit-packed INT
// with NULLs (the group key), an INT column that also holds DOUBLEs in its
// first two segments (mixed raw chunks there, typed raw after), a raw
// DOUBLE with NULLs, a run-length INT with NULL runs and a dictionary
// string; every constant kind meets every operator.
func TestScanKernelsAgree(t *testing.T) {
	ctx, _ := testCtx(t, 1024)
	tbl, err := table.Create(ctx.Pool, ctx.St, 0, 7999, "kernels", []table.Column{
		{Name: "id", Kind: val.KInt}, {Name: "g", Kind: val.KInt}, {Name: "m", Kind: val.KInt},
		{Name: "d", Kind: val.KDouble}, {Name: "r", Kind: val.KInt}, {Name: "s", Kind: val.KStr},
	})
	if err != nil {
		t.Fatal(err)
	}
	tbl.SegmentRows = 1000
	load := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			row := Row{val.NewInt(int64(i)), val.NewInt(int64(i % 7)), val.NewInt(int64(i%1000-500) << 41),
				val.NewDouble(float64(i%100)/4 - 10), val.NewInt(int64(i / 10 % 4)), val.NewStr(fmt.Sprintf("s%d", i%5))}
			if i%5 == 0 {
				row[1] = val.Null
			}
			switch {
			case i%17 == 0:
				row[2] = val.Null
			case i < 2000 && i%13 == 0:
				row[2] = val.NewDouble(float64(i) + 0.5)
			}
			if i%9 == 0 {
				row[3] = val.Null
			}
			if i/10%6 == 5 {
				row[4] = val.Null
			}
			if _, err := tbl.Insert(nil, row); err != nil {
				t.Fatal(err)
			}
		}
	}
	load(0, 5000)
	if _, err := tbl.BuildColumnar(nil, false); err != nil {
		t.Fatal(err)
	}
	load(5000, 5300)
	segs := tbl.Columnar().Segs
	for _, c := range []struct {
		seg, col int
		enc      colseg.Encoding
		kind     colseg.ValueKind
	}{
		{0, 1, colseg.EncBitPack, colseg.Ints}, {0, 2, colseg.EncRaw, colseg.Mixed}, {3, 2, colseg.EncRaw, colseg.Ints},
		{0, 3, colseg.EncRaw, colseg.Doubles}, {0, 4, colseg.EncRLE, colseg.Ints}, {0, 5, colseg.EncDict, colseg.Mixed},
	} {
		if ch := segs[c.seg].Cols[c.col]; ch.Enc != c.enc || ch.VKind != c.kind {
			t.Fatalf("segment %d column %d: %v of value kind %d, want %v of %d", c.seg, c.col, ch.Enc, ch.VKind, c.enc, c.kind)
		}
	}

	type tcase struct {
		name   string
		build  func(heap bool) Operator
		sorted bool
	}
	var cases []tcase
	scan := func(heap bool) Operator { return &TableScan{Table: tbl, ZoneCol: -1, NoColumnar: heap} }
	consts := []val.Value{val.NewInt(3), val.NewInt(-7 << 41), val.NewDouble(2.5), val.NewDouble(-0.5), val.NewStr("s2"), val.Null}
	for _, col := range []int{1, 2, 3, 4, 5} {
		for _, k := range consts {
			for _, op := range []string{"=", "<>", "<", "<=", ">", ">="} {
				pred := Cmp{Op: op, L: Col{Idx: col}, R: Const{V: k}}
				cases = append(cases, tcase{fmt.Sprintf("col%d %s %v", col, op, k), func(h bool) Operator {
					return &Filter{Input: scan(h), Pred: pred}
				}, false})
			}
		}
	}
	aggsOver := func(cols ...int) []AggSpec {
		aggs := []AggSpec{{Fn: AggCountStar}}
		for _, c := range cols {
			for _, fn := range []AggFn{AggCount, AggSum, AggMin, AggMax, AggAvg} {
				aggs = append(aggs, AggSpec{Fn: fn, Arg: Col{Idx: c}})
			}
		}
		return aggs
	}
	for _, key := range [][]Expr{nil, {Col{Idx: 1}}, {Col{Idx: 4}}, {Col{Idx: 5}, Col{Idx: 1}}} {
		cases = append(cases, tcase{fmt.Sprintf("group by %v", key), func(h bool) Operator {
			return &HashGroupBy{Input: scan(h), Keys: key, Aggs: aggsOver(2, 3, 4)}
		}, true})
	}
	cases = append(cases, tcase{"filtered group by", func(h bool) Operator {
		return &HashGroupBy{Input: &Filter{Input: scan(h), Pred: Cmp{Op: "<", L: Col{Idx: 3}, R: Const{V: val.NewInt(5)}}},
			Keys: []Expr{Col{Idx: 1}}, Aggs: aggsOver(2, 3)}
	}, true})

	for _, tc := range cases {
		ctx.ForceBatchSize = 0
		want := encodeRows(drain(t, ctx, tc.build(true)), tc.sorted)
		for _, size := range []int{1, 0} {
			ctx.ForceBatchSize = size
			got := encodeRows(drain(t, ctx, tc.build(false)), tc.sorted)
			if len(got) != len(want) {
				t.Errorf("%s batch=%d: %d rows, heap gives %d", tc.name, size, len(got), len(want))
				continue
			}
			for i := range got {
				if got[i] != want[i] {
					t.Errorf("%s batch=%d: row %d differs from the heap's", tc.name, size, i)
					break
				}
			}
		}
	}
	ctx.ForceBatchSize = 0
}

// TestScanKeepsOnePageOrOneWindow: after any NextBatch a heap scan holds at
// most the rows of one page and a columnar scan the buffers of one window —
// the same bound at ten times the rows.
func TestScanKeepsOnePageOrOneWindow(t *testing.T) {
	ctx, _ := testCtx(t, 4096)
	task := governed(t, ctx, 1000)
	const batch = 128
	ctx.ForceBatchSize = batch
	measure := func(n int, heap bool) (maxHeld, rows int) {
		tbl := factTable(t, ctx, n, 200, 1000)
		s := &TableScan{Table: tbl, ZoneCol: -1, NoColumnar: heap}
		if err := s.Open(ctx); err != nil {
			t.Fatal(err)
		}
		var b Batch
		for {
			if err := s.NextBatch(ctx, &b); err != nil {
				t.Fatal(err)
			}
			if b.Len() == 0 {
				break
			}
			rows += b.Len()
			if _, err := EvalBatch(Col{Idx: 0}, &b, nil); err != nil { // decode something
				t.Fatal(err)
			}
			held := cap(s.page) + s.window.n
			for _, c := range s.window.cols {
				held = max(held, c.capacity())
			}
			if len(s.carry) > len(s.page) {
				t.Fatalf("carry of %d rows from a page of %d", len(s.carry), len(s.page))
			}
			maxHeld = max(maxHeld, held)
			if charged := task.UsedPages(); charged == 0 && (len(s.carry) > 0 || b.vec != nil) {
				t.Fatalf("scan holds %d carried rows / a window of %d and has nothing charged", len(s.carry), s.window.n)
			}
		}
		if err := s.Close(ctx); err != nil {
			t.Fatal(err)
		}
		settled(t, ctx, task)
		return maxHeld, rows
	}
	for _, heap := range []bool{true, false} {
		held1, rows1 := measure(2000, heap)
		held10, rows10 := measure(20000, heap)
		if rows1 != 2200 || rows10 != 20200 {
			t.Fatalf("heap=%v: scanned %d and %d rows", heap, rows1, rows10)
		}
		// A page of these rows holds some 150; a window is one batch. The
		// columnar scan's delta tail is a heap scan, so both see a page.
		if held1 > 2*batch+200 || held10 > held1+16 {
			t.Errorf("heap=%v: scan held up to %d rows' worth at N and %d at 10N; want a page or a window, whatever N", heap, held1, held10)
		}
	}
}

// capacity is how many values the largest of a window column's buffers
// holds.
func (c *vector) capacity() int { return max(cap(c.ints), cap(c.flts), cap(c.vals)) }

// TestLimitDecodesOneColumnOfOneWindow: SELECT v … LIMIT 3 over segments
// decodes the three rows it returns, of the one column it reads, and the
// scan reports the rows it produced — not the table's — when it closes.
func TestLimitDecodesOneColumnOfOneWindow(t *testing.T) {
	ctx, _ := testCtx(t, 1024)
	tbl := factTable(t, ctx, 5000, 100, 1000)
	var reported []int64
	ctx.ScanObs = func(_ string, rows int64) { reported = append(reported, rows) }
	scan := &TableScan{Table: tbl, ZoneCol: -1}
	op := &Limit{Input: &Project{Input: scan, Exprs: []Expr{Col{Idx: 2}}}, N: 3}
	if err := op.Open(ctx); err != nil {
		t.Fatal(err)
	}
	var b Batch
	if err := op.NextBatch(ctx, &b); err != nil {
		t.Fatal(err)
	}
	if rows := b.Rows(); len(rows) != 3 || rows[2][0].I != 2 {
		t.Fatalf("got %v", rows)
	}
	for i, col := range scan.window.cols {
		if want := map[bool]int{true: 3}[i == 2]; col.capacity() != want {
			t.Errorf("column %d: a buffer of %d values, want %d", i, col.capacity(), want)
		}
	}
	if err := op.NextBatch(ctx, &b); err != nil || b.Len() != 0 {
		t.Fatalf("after the limit: %d rows, %v", b.Len(), err)
	}
	if err := op.Close(ctx); err != nil {
		t.Fatal(err)
	}
	if total, skipped, unreached := scan.SegmentStats(); total != 5 || skipped != 0 || unreached != 4 {
		t.Errorf("segments: %d total, %d skipped, %d unreached; want 5, 0, 4", total, skipped, unreached)
	}
	if len(reported) != 1 || reported[0] != 3 {
		t.Errorf("scan feedback %v, want one report of 3 rows", reported)
	}
}

// TestScanUnderConcurrentInserter: a scan that runs batch by batch while
// another transaction inserts and commits sees exactly its snapshot — the
// sealed rows plus whole committed batches — however the inserter's pages
// and the version store change under it. Run with -race.
func TestScanUnderConcurrentInserter(t *testing.T) {
	ctx, _ := testCtx(t, 1024)
	const n, per = 3000, 25
	tbl := factTable(t, ctx, n, 0, 500)
	log, _ := wal.Open("")
	tm := txn.NewManager(log, nil)

	// The inserter holds gate for the length of a transaction, so a scan
	// can choose to open between two of them — on an empty version store,
	// which is when a snapshot scan may read the segments — and then run
	// beside the ones that follow.
	var gate sync.Mutex
	stop := make(chan struct{})
	// Each scan grants the inserter a few transactions, so the table grows
	// with the number of scans and not with how fast inserts have become.
	var budget atomic.Int64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for id := n; ; {
			select {
			case <-stop:
				return
			default:
			}
			if budget.Add(-1) < 0 {
				budget.Add(1)
				runtime.Gosched()
				continue
			}
			gate.Lock()
			tx := tm.Begin()
			for i := 0; i < per; i, id = i+1, id+1 {
				row := Row{val.NewInt(int64(id)), val.NewInt(int64(id % 16)), val.NewInt(int64(id % 1000)), val.NewStr("new")}
				if _, err := tbl.Insert(tx, row); err != nil {
					t.Error(err)
				}
			}
			if err := tx.Commit(); err != nil {
				t.Error(err)
			}
			gate.Unlock()
		}
	}()

	// scanCount opens a scan — between transactions and on a vacuumed store
	// if quiet — and counts what it yields batch by batch.
	scanCount := func(sctx *Ctx, scan *TableScan, quiet bool) int {
		if quiet {
			gate.Lock()
			tbl.VacuumVersions(tm.VacuumThreshold(), tm.IsActive)
		}
		sctx.Snap = tm.AcquireSnapshot(new(mvcc.Snapshot), 0)
		err := scan.Open(sctx)
		if quiet {
			gate.Unlock()
		}
		if err != nil {
			t.Fatal(err)
		}
		defer scan.Close(sctx)
		var b Batch
		for rows := 0; ; rows += b.Len() {
			if err := scan.NextBatch(sctx, &b); err != nil {
				t.Fatal(err)
			}
			if b.Len() == 0 {
				return rows
			}
		}
	}
	columnar, last := 0, 0
	for i := 0; i < 60; i++ {
		budget.Store(20)
		sctx := *ctx
		sctx.ForceBatchSize = 64
		scan := &TableScan{Table: tbl, ZoneCol: -1}
		got := scanCount(&sctx, scan, i%2 == 0)
		again, err := Drain(&sctx, &TableScan{Table: tbl, ZoneCol: -1, NoColumnar: true})
		tm.ReleaseSnapshot(sctx.Snap)
		if err != nil {
			t.Fatal(err)
		}
		if total, _, _ := scan.SegmentStats(); total > 0 {
			columnar++
		}
		if got < n || (got-n)%per != 0 {
			t.Fatalf("scan %d saw %d rows: not the sealed %d plus whole batches of %d", i, got, n, per)
		}
		if len(again) != got {
			t.Fatalf("scan %d: %d rows, then %d from the heap under the same snapshot", i, got, len(again))
		}
		if got < last {
			t.Fatalf("scan %d saw %d rows after a scan that saw %d", i, got, last)
		}
		last = got
	}
	close(stop)
	wg.Wait()
	if columnar < 30 {
		t.Errorf("%d of 60 scans read the segments, want the 30 opened on a quiet store", columnar)
	}
}

// TestBatchIsReadThroughItsAccessors: Batch's representation — the row
// list, the vectors, the selection — is touched in batch.go and nowhere
// else. An operator that read an input batch's rows directly would see
// nothing of a vector-form batch, and one that kept a vector would keep
// scan scratch; both go through Rows, Len, EvalBatch and TestBatch.
func TestBatchIsReadThroughItsAccessors(t *testing.T) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go") && fi.Name() != "batch.go"
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	private := map[string]bool{"rows": true, "vec": true, "sel": true}
	files := 0
	for _, f := range pkgs["exec"].Files {
		files++
		ast.Inspect(f, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok && private[sel.Sel.Name] {
				t.Errorf("%s: .%s used outside batch.go: read batches through Rows/Len/EvalBatch/TestBatch",
					fset.Position(sel.Pos()), sel.Sel.Name)
			}
			return true
		})
	}
	if files < 8 {
		t.Fatalf("parsed only %d files of package exec", files)
	}
}

// BenchmarkScanAggColumnar is the benchmark's scan_agg statement at its
// size, under the executor alone: a filtered GROUP BY over a 50 000-row
// columnar table. -benchmem shows what one execution allocates.
func BenchmarkScanAggColumnar(b *testing.B) {
	ctx, _ := testCtx(b, 4096)
	tbl := factTable(b, ctx, 50000, 0, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := Drain(ctx, scanAgg(tbl))
		if err != nil || len(rows) != 17 {
			b.Fatalf("%d groups, %v", len(rows), err)
		}
	}
}

// scanAgg is SELECT grp, COUNT(*), SUM(v) FROM fact WHERE v < 550 GROUP BY grp
// as opt builds it.
func scanAgg(tbl *table.Table) Operator {
	k := val.NewInt(550)
	return &HashGroupBy{
		Input: &Filter{
			Input: &TableScan{Table: tbl, ZoneCol: 2, ZoneOp: "<", ZoneConst: Const{V: k}},
			Pred:  Cmp{Op: "<", L: Col{Idx: 2}, R: Const{V: k}},
		},
		Keys: []Expr{Col{Idx: 1}},
		Aggs: []AggSpec{{Fn: AggCountStar}, {Fn: AggSum, Arg: Col{Idx: 2}}},
	}
}
