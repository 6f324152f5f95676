package exec

import (
	"fmt"
	"runtime"
	"slices"
	"sort"
	"testing"

	"anywheredb/internal/buffer"
	"anywheredb/internal/mem"
	"anywheredb/internal/store"
	"anywheredb/internal/table"
	"anywheredb/internal/val"
	"anywheredb/internal/vclock"
)

// testCtx builds a context over an in-memory store.
func testCtx(t testing.TB, frames int) (*Ctx, *store.Store) {
	t.Helper()
	st, err := store.Open(store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	pool := buffer.New(st, 8, frames, frames*2)
	return &Ctx{Pool: pool, St: st, Clk: vclock.New(), Workers: 1}, st
}

// governed puts ctx under a governor task with the given soft limit (and a
// hard limit no test reaches).
func governed(t testing.TB, ctx *Ctx, softPages int) *mem.Task {
	t.Helper()
	gov := mem.NewGovernor(func() int { return 10000 }, func() int { return softPages * 4 }, 4)
	task := gov.Begin()
	t.Cleanup(task.Finish)
	ctx.Task = task
	return task
}

// settled checks that a closed plan left nothing charged, nothing pinned
// and no page of the temporary file in use.
func settled(t testing.TB, ctx *Ctx, task *mem.Task) {
	t.Helper()
	if n := task.UsedPages(); n != 0 {
		t.Errorf("%d pages still charged to the task", n)
	}
	if n := ctx.Pool.PinnedCount(); n != 0 {
		t.Errorf("%d pages still pinned", n)
	}
	free, err := ctx.St.FreeList(store.TempFile)
	if err != nil {
		t.Fatal(err)
	}
	if used := int(ctx.St.PageCount(store.TempFile)) - 1 - len(free); used != 0 {
		t.Errorf("%d temporary-file pages not returned", used)
	}
}

// rowsOp materializes fixed rows.
func rowsOp(rows ...Row) *Materialized { return &Materialized{RowsData: rows} }

func intRow(vals ...int64) Row {
	r := make(Row, len(vals))
	for i, v := range vals {
		r[i] = val.NewInt(v)
	}
	return r
}

func mkTable(t testing.TB, ctx *Ctx, name string, n int, keyMod int64) *table.Table {
	t.Helper()
	tbl, err := table.Create(ctx.Pool, ctx.St, store.MainFile, uint64(len(name)+n), name, []table.Column{
		{Name: "id", Kind: val.KInt},
		{Name: "grp", Kind: val.KInt},
		{Name: "name", Kind: val.KStr},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		_, err := tbl.Insert(nil, Row{val.NewInt(int64(i)), val.NewInt(int64(i) % keyMod), val.NewStr(fmt.Sprintf("%s-%d", name, i))})
		if err != nil {
			t.Fatal(err)
		}
	}
	return tbl
}

func drain(t testing.TB, ctx *Ctx, op Operator) []Row {
	t.Helper()
	rows, err := Drain(ctx, op)
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

func TestFilterProjectLimit(t *testing.T) {
	ctx, _ := testCtx(t, 64)
	input := rowsOp(intRow(1, 10), intRow(2, 20), intRow(3, 30), intRow(4, 40))
	var obsMatched, obsTested float64
	plan := &Limit{
		N: 2,
		Input: &Project{
			Exprs: []Expr{Col{1}, Arith{Op: '*', L: Col{0}, R: Const{val.NewInt(100)}}},
			Input: &Filter{
				Input: input,
				Pred:  Cmp{Op: ">", L: Col{0}, R: Const{val.NewInt(1)}},
				Obs:   func(m, n float64) { obsMatched, obsTested = m, n },
			},
		},
	}
	rows := drain(t, ctx, plan)
	if len(rows) != 2 {
		t.Fatalf("rows %d", len(rows))
	}
	if rows[0][0].I != 20 || rows[0][1].I != 200 {
		t.Fatalf("row0 %v", rows[0])
	}
	// Observer fires on Close with what was actually tested.
	if obsTested == 0 || obsMatched == 0 {
		t.Fatalf("observer not called: %g/%g", obsMatched, obsTested)
	}
}

func TestTableScanAndIndexScan(t *testing.T) {
	ctx, _ := testCtx(t, 128)
	tbl := mkTable(t, ctx, "t", 500, 10)
	rows := drain(t, ctx, &TableScan{Table: tbl})
	if len(rows) != 500 {
		t.Fatalf("scan %d", len(rows))
	}
	ix, err := tbl.AddIndex(900, "by_id", []int{0}, true)
	if err != nil {
		t.Fatal(err)
	}
	lo := val.EncodeKey([]val.Value{val.NewInt(100)})
	hi := val.EncodeKey([]val.Value{val.NewInt(110)})
	got := drain(t, ctx, &IndexScan{Table: tbl, Index: ix, Lo: lo, Hi: hi, HiInc: false})
	if len(got) != 10 {
		t.Fatalf("index range %d rows, want 10", len(got))
	}
	if got[0][0].I != 100 {
		t.Fatalf("first row %v", got[0])
	}
	// Inclusive upper bound.
	got = drain(t, ctx, &IndexScan{Table: tbl, Index: ix, Lo: lo, Hi: hi, HiInc: true})
	if len(got) != 11 {
		t.Fatalf("inclusive range %d rows, want 11", len(got))
	}
}

func TestHashJoinInner(t *testing.T) {
	ctx, _ := testCtx(t, 128)
	left := rowsOp(intRow(1, 100), intRow(2, 200), intRow(3, 300))
	right := rowsOp(intRow(10, 2), intRow(20, 2), intRow(30, 9))
	j := &HashJoin{
		Left: left, Right: right,
		LeftKeys:  []Expr{Col{0}},
		RightKeys: []Expr{Col{1}},
	}
	rows := drain(t, ctx, j)
	if len(rows) != 2 {
		t.Fatalf("join rows %d, want 2 (both right rows with key 2)", len(rows))
	}
	for _, r := range rows {
		if r[0].I != 2 || r[3].I != 2 {
			t.Fatalf("bad join row %v", r)
		}
	}
	if j.Mode() != "hash" {
		t.Fatalf("mode %s", j.Mode())
	}
}

func TestHashJoinNullKeysNeverMatch(t *testing.T) {
	ctx, _ := testCtx(t, 64)
	left := rowsOp(Row{val.Null, val.NewInt(1)}, intRow(5, 2))
	right := rowsOp(Row{val.Null, val.NewInt(3)}, intRow(5, 4))
	j := &HashJoin{Left: left, Right: right, LeftKeys: []Expr{Col{0}}, RightKeys: []Expr{Col{0}}}
	rows := drain(t, ctx, j)
	if len(rows) != 1 || rows[0][0].I != 5 {
		t.Fatalf("rows %v", rows)
	}
}

func TestHashJoinLeftOuter(t *testing.T) {
	ctx, _ := testCtx(t, 64)
	left := rowsOp(intRow(1), intRow(2), Row{val.Null})
	right := rowsOp(intRow(2, 20))
	j := &HashJoin{
		Left: left, Right: right,
		LeftKeys: []Expr{Col{0}}, RightKeys: []Expr{Col{0}},
		LeftOuter: true, RightWidth: 2,
	}
	rows := drain(t, ctx, j)
	if len(rows) != 3 {
		t.Fatalf("left outer rows %d, want 3", len(rows))
	}
	matched, padded := 0, 0
	for _, r := range rows {
		if len(r) != 3 {
			t.Fatalf("row width %d", len(r))
		}
		if r[1].IsNull() {
			padded++
		} else {
			matched++
		}
	}
	if matched != 1 || padded != 2 {
		t.Fatalf("matched %d padded %d", matched, padded)
	}
}

func TestHashJoinSpillCorrectness(t *testing.T) {
	// A tiny soft limit forces partition eviction; results must match the
	// unspilled join exactly.
	ctx, _ := testCtx(t, 256)
	task := governed(t, ctx, 4)

	var lrows, rrows []Row
	for i := 0; i < 2000; i++ {
		lrows = append(lrows, intRow(int64(i%500), int64(i)))
	}
	for i := 0; i < 1000; i++ {
		rrows = append(rrows, intRow(int64(i%500), int64(i)))
	}
	j := &HashJoin{
		Left: &Materialized{RowsData: lrows}, Right: &Materialized{RowsData: rrows},
		LeftKeys: []Expr{Col{0}}, RightKeys: []Expr{Col{0}},
	}
	rows := drain(t, ctx, j)
	settled(t, ctx, task)
	if j.SpilledPartitions() == 0 {
		t.Fatal("expected partition eviction under a 4-page soft limit")
	}
	// Expected cardinality: each key 0..499 appears 4x left and 2x right.
	if len(rows) != 500*4*2 {
		t.Fatalf("spilled join rows %d, want %d", len(rows), 500*4*2)
	}
}

// With as many statements active as the multiprogramming level allows, the
// hard limit (Eq. 4) is below the soft one (Eq. 5): the blocks of a spilled
// partition are sized to what the statement may still be given, not to a
// soft limit it would be refused on the way to.
func TestHashJoinSpillBelowTheSoftLimit(t *testing.T) {
	ctx, _ := testCtx(t, 256)
	gov := mem.NewGovernor(func() int { return 64 }, func() int { return 64 }, 2)
	task, other := gov.Begin(), gov.Begin()
	t.Cleanup(task.Finish)
	t.Cleanup(other.Finish)
	ctx.Task = task
	if soft, hard := task.SoftLimitPages(), task.HardLimitPages(); soft != 32 || hard != 24 {
		t.Fatalf("soft %d hard %d, want 32 and 24", soft, hard)
	}

	pad := val.NewStr(fmt.Sprintf("%0200d", 0))
	var lrows, rrows []Row
	for i := 0; i < 6000; i++ { // some 40 pages a partition
		lrows = append(lrows, Row{val.NewInt(int64(i)), pad})
	}
	for i := 0; i < 1000; i++ {
		rrows = append(rrows, intRow(int64(i*6)))
	}
	j := &HashJoin{
		Left: &Materialized{RowsData: lrows}, Right: &Materialized{RowsData: rrows},
		LeftKeys: []Expr{Col{0}}, RightKeys: []Expr{Col{0}},
	}
	rows := drain(t, ctx, j)
	settled(t, ctx, task)
	if j.SpilledPartitions() == 0 || len(rows) != 1000 {
		t.Fatalf("%d partitions spilled, %d rows, want 1000", j.SpilledPartitions(), len(rows))
	}
	// A charge is counted before the release it asks for: one page over.
	if peak := task.PeakPages(); peak > 24+1 {
		t.Fatalf("peak %d pages against a 24-page hard limit", peak)
	}
}

func TestHashJoinSpillLeftOuter(t *testing.T) {
	ctx, _ := testCtx(t, 256)
	task := governed(t, ctx, 2)

	var lrows []Row
	for i := 0; i < 1500; i++ {
		lrows = append(lrows, intRow(int64(i), int64(i)))
	}
	// Right matches only even keys < 1000.
	var rrows []Row
	for i := 0; i < 1000; i += 2 {
		rrows = append(rrows, intRow(int64(i)))
	}
	j := &HashJoin{
		Left: &Materialized{RowsData: lrows}, Right: &Materialized{RowsData: rrows},
		LeftKeys: []Expr{Col{0}}, RightKeys: []Expr{Col{0}},
		LeftOuter: true, RightWidth: 1,
	}
	rows := drain(t, ctx, j)
	settled(t, ctx, task)
	if len(rows) != 1500 {
		t.Fatalf("left outer spilled rows %d, want 1500", len(rows))
	}
	padded := 0
	for _, r := range rows {
		if r[2].IsNull() {
			padded++
		}
	}
	if padded != 1000 {
		t.Fatalf("padded %d, want 1000 (odd keys + >=1000)", padded)
	}
}

func TestHashJoinINLSwitch(t *testing.T) {
	ctx, _ := testCtx(t, 256)
	inner := mkTable(t, ctx, "inner", 1000, 1000)
	ix, err := inner.AddIndex(901, "by_id", []int{0}, false)
	if err != nil {
		t.Fatal(err)
	}
	// The optimizer expected many build rows, but only 3 arrive: the
	// operator must switch to index nested loops.
	left := rowsOp(intRow(5), intRow(7), intRow(9999))
	j := &HashJoin{
		Left:     left,
		Right:    &TableScan{Table: inner}, // never opened if INL engages
		LeftKeys: []Expr{Col{0}}, RightKeys: []Expr{Col{0}},
		ExpectedBuildRows: 10000,
		INLMaxBuildRows:   10,
		Alt:               &IndexAlt{Table: inner, Index: ix},
	}
	rows := drain(t, ctx, j)
	if j.Mode() != "inl" {
		t.Fatalf("mode %s, want inl", j.Mode())
	}
	if len(rows) != 2 {
		t.Fatalf("INL rows %d, want 2 (key 9999 misses)", len(rows))
	}

	// With a build larger than the threshold the switch must NOT happen.
	var many []Row
	for i := 0; i < 100; i++ {
		many = append(many, intRow(int64(i)))
	}
	j2 := &HashJoin{
		Left:     &Materialized{RowsData: many},
		Right:    &TableScan{Table: inner},
		LeftKeys: []Expr{Col{0}}, RightKeys: []Expr{Col{0}},
		INLMaxBuildRows: 10,
		Alt:             &IndexAlt{Table: inner, Index: ix},
	}
	rows2 := drain(t, ctx, j2)
	if j2.Mode() != "hash" {
		t.Fatalf("mode %s, want hash", j2.Mode())
	}
	if len(rows2) != 100 {
		t.Fatalf("hash rows %d", len(rows2))
	}
}

func TestHashJoinINLLeftOuter(t *testing.T) {
	ctx, _ := testCtx(t, 256)
	inner := mkTable(t, ctx, "inner2", 100, 100)
	ix, _ := inner.AddIndex(902, "by_id2", []int{0}, false)
	left := rowsOp(intRow(5000), Row{val.Null}, intRow(5), intRow(7))
	j := &HashJoin{
		Left: left, Right: &TableScan{Table: inner},
		LeftKeys: []Expr{Col{0}}, RightKeys: []Expr{Col{0}},
		LeftOuter: true, RightWidth: 3,
		INLMaxBuildRows: 10,
		Alt:             &IndexAlt{Table: inner, Index: ix},
	}
	rows := drain(t, ctx, j)
	if j.Mode() != "inl" || len(rows) != 4 {
		t.Fatalf("mode=%s rows=%d", j.Mode(), len(rows))
	}
	// Build order, with the unmatched and the NULL-keyed row padded.
	for i, want := range []string{"[5000 NULL NULL NULL]", "[NULL NULL NULL NULL]", "[5 5 5 inner2-5]", "[7 7 7 inner2-7]"} {
		if got := fmt.Sprint(rows[i]); got != want {
			t.Errorf("row %d: %s, want %s", i, got, want)
		}
	}
}

func TestNestedLoopJoin(t *testing.T) {
	ctx, _ := testCtx(t, 64)
	left := rowsOp(intRow(1), intRow(2), intRow(3))
	right := rowsOp(intRow(2), intRow(3), intRow(4))
	// Non-equijoin: l.a < r.a
	j := &NestedLoopJoin{
		Left: left, Right: right,
		Pred: Cmp{Op: "<", L: Col{0}, R: Col{1}},
	}
	rows := drain(t, ctx, j)
	if len(rows) != 6 {
		t.Fatalf("rows %d, want 6", len(rows))
	}
	// Left outer with impossible predicate pads everything.
	j2 := &NestedLoopJoin{
		Left: rowsOp(intRow(1), intRow(2)), Right: rowsOp(intRow(9)),
		Pred:      Cmp{Op: ">", L: Col{0}, R: Col{1}},
		LeftOuter: true, RightWidth: 1,
	}
	rows2 := drain(t, ctx, j2)
	if len(rows2) != 2 || !rows2[0][1].IsNull() {
		t.Fatalf("outer NL rows %v", rows2)
	}
}

func TestIndexNLJoin(t *testing.T) {
	ctx, _ := testCtx(t, 256)
	inner := mkTable(t, ctx, "i3", 200, 20)
	ix, _ := inner.AddIndex(903, "by_grp", []int{1}, false)
	// For each left row, find inner rows with grp = left key.
	left := rowsOp(intRow(3), intRow(19))
	j := &IndexNLJoin{
		Left: left, LeftKeys: []Expr{Col{0}},
		Table: inner, Index: ix,
	}
	rows := drain(t, ctx, j)
	if len(rows) != 20 { // 10 rows per grp value
		t.Fatalf("rows %d, want 20", len(rows))
	}
}

func TestHashGroupBy(t *testing.T) {
	ctx, _ := testCtx(t, 64)
	var in []Row
	for i := 0; i < 100; i++ {
		in = append(in, intRow(int64(i%4), int64(i)))
	}
	g := &HashGroupBy{
		Input: &Materialized{RowsData: in},
		Keys:  []Expr{Col{0}},
		Aggs: []AggSpec{
			{Fn: AggCountStar},
			{Fn: AggSum, Arg: Col{1}},
			{Fn: AggMin, Arg: Col{1}},
			{Fn: AggMax, Arg: Col{1}},
			{Fn: AggAvg, Arg: Col{1}},
		},
	}
	rows := drain(t, ctx, g)
	if len(rows) != 4 {
		t.Fatalf("groups %d", len(rows))
	}
	for _, r := range rows {
		k := r[0].I
		if r[1].I != 25 {
			t.Fatalf("count %v", r)
		}
		if r[3].I != k || r[4].I != 96+k {
			t.Fatalf("min/max %v", r)
		}
	}
	if g.FellBack() {
		t.Fatal("no fallback expected")
	}
}

func TestHashGroupByLowMemoryFallback(t *testing.T) {
	ctx, _ := testCtx(t, 256)
	var in []Row
	for i := 0; i < 5000; i++ {
		in = append(in, intRow(int64(i%1000), 1))
	}
	task := governed(t, ctx, 1) // 1000 groups of ~20 bytes are several pages
	g := &HashGroupBy{
		Input: &Materialized{RowsData: in},
		Keys:  []Expr{Col{0}},
		Aggs:  []AggSpec{{Fn: AggCountStar}, {Fn: AggSum, Arg: Col{1}}},
	}
	rows := drain(t, ctx, g)
	settled(t, ctx, task)
	if !g.FellBack() {
		t.Fatal("fallback should have engaged")
	}
	if len(rows) != 1000 {
		t.Fatalf("groups %d, want 1000", len(rows))
	}
	for _, r := range rows {
		if r[1].I != 5 || r[2].I != 5 {
			t.Fatalf("merged partial groups wrong: %v", r)
		}
	}
}

func TestGlobalAggregateEmptyInput(t *testing.T) {
	ctx, _ := testCtx(t, 64)
	g := &HashGroupBy{
		Input: rowsOp(),
		Aggs:  []AggSpec{{Fn: AggCountStar}, {Fn: AggSum, Arg: Col{0}}},
	}
	rows := drain(t, ctx, g)
	if len(rows) != 1 || rows[0][0].I != 0 || !rows[0][1].IsNull() {
		t.Fatalf("global agg on empty: %v", rows)
	}
}

func TestCountDistinct(t *testing.T) {
	ctx, _ := testCtx(t, 64)
	in := []Row{intRow(1), intRow(1), intRow(2), intRow(2), intRow(3)}
	g := &HashGroupBy{
		Input: &Materialized{RowsData: in},
		Aggs:  []AggSpec{{Fn: AggCount, Arg: Col{0}, Distinct: true}},
	}
	rows := drain(t, ctx, g)
	if rows[0][0].I != 3 {
		t.Fatalf("count distinct %v", rows[0])
	}
}

func TestAggregatesIgnoreNulls(t *testing.T) {
	ctx, _ := testCtx(t, 64)
	in := []Row{{val.NewInt(1)}, {val.Null}, {val.NewInt(3)}}
	g := &HashGroupBy{
		Input: &Materialized{RowsData: in},
		Aggs: []AggSpec{
			{Fn: AggCount, Arg: Col{0}},
			{Fn: AggSum, Arg: Col{0}},
			{Fn: AggAvg, Arg: Col{0}},
		},
	}
	rows := drain(t, ctx, g)
	if rows[0][0].I != 2 || rows[0][1].I != 4 || rows[0][2].F != 2 {
		t.Fatalf("null handling %v", rows[0])
	}
}

func TestSortInMemoryAndExternal(t *testing.T) {
	ctx, _ := testCtx(t, 256)
	var in []Row
	for i := 0; i < 3000; i++ {
		in = append(in, intRow(int64((i*7919)%3000), int64(i)))
	}
	s := &Sort{
		Input: &Materialized{RowsData: in},
		Keys:  []SortKey{{Expr: Col{0}}},
	}
	rows := drain(t, ctx, s)
	if s.Spilled() {
		t.Fatal("unlimited sort should not spill")
	}
	for i := 1; i < len(rows); i++ {
		if rows[i][0].I < rows[i-1][0].I {
			t.Fatal("not sorted")
		}
	}

	task := governed(t, ctx, 2)
	ext := &Sort{
		Input: &Materialized{RowsData: in},
		Keys:  []SortKey{{Expr: Col{0}}, {Expr: Col{1}, Desc: true}},
	}
	rows2 := drain(t, ctx, ext)
	settled(t, ctx, task)
	if !ext.Spilled() {
		t.Fatal("external sort should spill")
	}
	if len(rows2) != 3000 {
		t.Fatalf("external rows %d", len(rows2))
	}
	for i := 1; i < len(rows2); i++ {
		a, b := rows2[i-1], rows2[i]
		if a[0].I > b[0].I {
			t.Fatal("external not sorted")
		}
		if a[0].I == b[0].I && a[1].I < b[1].I {
			t.Fatal("secondary desc key broken")
		}
	}

	// Re-opened without a Close, the merge's cursors open: the runs and the
	// pins of the abandoned execution go before the next one starts.
	if err := ext.Open(ctx); err != nil {
		t.Fatal(err)
	}
	var first Batch
	if err := ext.NextBatch(ctx, &first); err != nil {
		t.Fatal(err)
	}
	if got := drain(t, ctx, ext); len(got) != 3000 || !ext.Spilled() {
		t.Fatalf("re-opened sort: %d rows, spilled %v", len(got), ext.Spilled())
	}
	settled(t, ctx, task)
}

func TestHashDistinct(t *testing.T) {
	ctx, _ := testCtx(t, 64)
	in := []Row{intRow(1, 2), intRow(1, 2), intRow(1, 3), {val.Null, val.Null}, {val.Null, val.Null}}
	d := &HashDistinct{Input: &Materialized{RowsData: in}}
	rows := drain(t, ctx, d)
	if len(rows) != 3 {
		t.Fatalf("distinct %d rows, want 3", len(rows))
	}
}

func TestRecursiveUnion(t *testing.T) {
	ctx, _ := testCtx(t, 64)
	// Transitive closure of i -> i+1 up to 10.
	r := &RecursiveUnion{
		Base: rowsOp(intRow(1)),
		Recursive: func(prev *Materialized) Operator {
			return &Filter{
				Input: &Project{
					Exprs: []Expr{Arith{Op: '+', L: Col{0}, R: Const{val.NewInt(1)}}},
					Input: prev,
				},
				Pred: Cmp{Op: "<=", L: Col{0}, R: Const{val.NewInt(10)}},
			}
		},
	}
	rows := drain(t, ctx, r)
	if len(rows) != 10 {
		t.Fatalf("recursive rows %d, want 10", len(rows))
	}
	if r.Iterations() < 9 {
		t.Fatalf("iterations %d", r.Iterations())
	}
}

func TestRecursiveUnionStrategySwitch(t *testing.T) {
	ctx, _ := testCtx(t, 64)
	r := &RecursiveUnion{
		Base: rowsOp(intRow(0)),
		Recursive: func(prev *Materialized) Operator {
			return &Filter{
				Input: &Project{
					Exprs: []Expr{Arith{Op: '+', L: Col{0}, R: Const{val.NewInt(1)}}},
					Input: prev,
				},
				Pred: Cmp{Op: "<", L: Col{0}, R: Const{val.NewInt(100)}},
			}
		},
		DedupLimit: 10, // force the per-iteration strategy switch
	}
	rows := drain(t, ctx, r)
	if !r.SwitchedStrategy() {
		t.Fatal("strategy switch expected")
	}
	if len(rows) != 100 {
		t.Fatalf("rows %d", len(rows))
	}
}

func TestParallelPipeline(t *testing.T) {
	ctx, _ := testCtx(t, 128)
	ctx.Workers = 4
	var src, b1, b2 []Row
	for i := 0; i < 1000; i++ {
		src = append(src, intRow(int64(i), int64(i%100)))
	}
	for i := 0; i < 100; i++ {
		b1 = append(b1, intRow(int64(i), int64(i%10)))
	}
	for i := 0; i < 10; i++ {
		b2 = append(b2, intRow(int64(i), int64(i*1000)))
	}
	p := &ParallelPipeline{
		Source: &Materialized{RowsData: src},
		Joins: []PipeJoin{
			{Build: &Materialized{RowsData: b1}, BuildKeys: []Expr{Col{0}}, ProbeKeys: []Expr{Col{1}}, UseBloom: true},
			{Build: &Materialized{RowsData: b2}, BuildKeys: []Expr{Col{0}}, ProbeKeys: []Expr{Col{3}}},
		},
		BuildParallel: true,
	}
	rows := drain(t, ctx, p)
	if len(rows) != 1000 {
		t.Fatalf("pipeline rows %d, want 1000", len(rows))
	}
	// Verify a sample row's join chain: src.grp = b1.id, b1.grp = b2.id.
	sort.Slice(rows, func(i, j int) bool { return rows[i][0].I < rows[j][0].I })
	r := rows[123]
	if r[1].I != r[2].I || r[3].I != r[4].I || r[5].I != r[4].I*1000 {
		t.Fatalf("join chain broken: %v", r)
	}
}

func TestParallelPipelineWorkerReduction(t *testing.T) {
	ctx, _ := testCtx(t, 128)
	ctx.Workers = 8
	var src, b []Row
	for i := 0; i < 500; i++ {
		src = append(src, intRow(int64(i%50)))
	}
	for i := 0; i < 50; i++ {
		b = append(b, intRow(int64(i)))
	}
	p := &ParallelPipeline{
		Source: &Materialized{RowsData: src},
		Joins:  []PipeJoin{{Build: &Materialized{RowsData: b}, BuildKeys: []Expr{Col{0}}, ProbeKeys: []Expr{Col{0}}}},
	}
	p.SetWorkers(1) // reduce before open: serial execution, same answer
	rows := drain(t, ctx, p)
	if len(rows) != 500 {
		t.Fatalf("reduced-worker rows %d", len(rows))
	}
}

func TestUnionAllAndValues(t *testing.T) {
	ctx, _ := testCtx(t, 64)
	u := &UnionAll{Inputs: []Operator{
		rowsOp(intRow(1)),
		rowsOp(),
		rowsOp(intRow(2), intRow(3)),
	}}
	rows := drain(t, ctx, u)
	if len(rows) != 3 {
		t.Fatalf("union rows %d", len(rows))
	}
	v := &Values{Rows: [][]Expr{{Const{val.NewInt(7)}, Const{val.NewStr("x")}}}}
	rows = drain(t, ctx, v)
	if len(rows) != 1 || rows[0][0].I != 7 {
		t.Fatalf("values %v", rows)
	}
}

func TestExprArithmetic(t *testing.T) {
	cases := []struct {
		e    Expr
		want val.Value
	}{
		{Arith{Op: '+', L: Const{val.NewInt(2)}, R: Const{val.NewInt(3)}}, val.NewInt(5)},
		{Arith{Op: '/', L: Const{val.NewInt(7)}, R: Const{val.NewInt(2)}}, val.NewDouble(3.5)},
		{Arith{Op: '/', L: Const{val.NewInt(8)}, R: Const{val.NewInt(2)}}, val.NewInt(4)},
		{Arith{Op: '%', L: Const{val.NewInt(7)}, R: Const{val.NewInt(3)}}, val.NewInt(1)},
		{Arith{Op: '*', L: Const{val.NewDouble(1.5)}, R: Const{val.NewInt(4)}}, val.NewDouble(6)},
		{Neg{Const{val.NewInt(5)}}, val.NewInt(-5)},
		{Arith{Op: '+', L: Const{val.Null}, R: Const{val.NewInt(1)}}, val.Null},
	}
	for i, c := range cases {
		got, err := c.e.Eval(nil)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if got.Kind != c.want.Kind || (got.Kind != val.KNull && val.Compare(got, c.want) != 0) {
			t.Fatalf("case %d: got %v want %v", i, got, c.want)
		}
	}
	if _, err := (Arith{Op: '/', L: Const{val.NewInt(1)}, R: Const{val.NewInt(0)}}).Eval(nil); err == nil {
		t.Fatal("division by zero should error")
	}
}

func TestThreeValuedLogic(t *testing.T) {
	null := Const{val.Null}
	one := Const{val.NewInt(1)}
	cmpNull := Cmp{Op: "=", L: null, R: one}

	if v, _ := cmpNull.Test(nil); v != Unknown {
		t.Fatal("NULL comparison must be Unknown")
	}
	if v, _ := (And{cmpNull, Cmp{Op: "=", L: one, R: one}}).Test(nil); v != Unknown {
		t.Fatal("Unknown AND True = Unknown")
	}
	f := Cmp{Op: "<>", L: one, R: one}
	if v, _ := (And{cmpNull, f}).Test(nil); v != False {
		t.Fatal("Unknown AND False = False")
	}
	if v, _ := (Or{cmpNull, Cmp{Op: "=", L: one, R: one}}).Test(nil); v != True {
		t.Fatal("Unknown OR True = True")
	}
	if v, _ := (Or{cmpNull, f}).Test(nil); v != Unknown {
		t.Fatal("Unknown OR False = Unknown")
	}
	if v, _ := (Not{cmpNull}).Test(nil); v != Unknown {
		t.Fatal("NOT Unknown = Unknown")
	}
	if v, _ := (IsNullPred{E: null}).Test(nil); v != True {
		t.Fatal("NULL IS NULL")
	}
	if v, _ := (IsNullPred{E: one, Neg: true}).Test(nil); v != True {
		t.Fatal("1 IS NOT NULL")
	}
}

func TestPredicates(t *testing.T) {
	row := Row{val.NewInt(5), val.NewStr("hello world")}
	if v, _ := (BetweenPred{E: Col{0}, Lo: Const{val.NewInt(1)}, Hi: Const{val.NewInt(10)}}).Test(row); v != True {
		t.Fatal("between")
	}
	if v, _ := (BetweenPred{E: Col{0}, Lo: Const{val.NewInt(6)}, Hi: Const{val.NewInt(10)}, Neg: true}).Test(row); v != True {
		t.Fatal("not between")
	}
	if v, _ := (LikePred{E: Col{1}, Pattern: Const{val.NewStr("%world%")}}).Test(row); v != True {
		t.Fatal("like")
	}
	if v, _ := (InListPred{E: Col{0}, List: []Expr{Const{val.NewInt(4)}, Const{val.NewInt(5)}}}).Test(row); v != True {
		t.Fatal("in")
	}
	// NOT IN with NULL in list and no match is Unknown.
	if v, _ := (InListPred{E: Col{0}, List: []Expr{Const{val.Null}, Const{val.NewInt(9)}}, Neg: true}).Test(row); v != Unknown {
		t.Fatal("not in with null")
	}
}

// genSource produces n two-column rows (a permutation of 0..n-1, then the
// ordinal) and keeps none of them. sample, if set, runs every 8192 rows.
type genSource struct {
	n, pos int
	sample func()
}

func (g *genSource) Open(*Ctx) error  { g.pos = 0; return nil }
func (g *genSource) Close(*Ctx) error { return nil }
func (g *genSource) NextBatch(ctx *Ctx, out *Batch) error {
	out.Reset()
	for n := ctx.BatchSize(); g.pos < g.n && out.Len() < n; g.pos++ {
		out.Add(intRow(int64(g.pos)*7919%int64(g.n), int64(g.pos)))
		if g.sample != nil && g.pos%8192 == 0 {
			g.sample()
		}
	}
	return nil
}

// TestSortIsExternal: what a sort holds is bounded by its quota, not by its
// input. The rig's temporary file is memory, so retained rows are counted
// as live heap objects (a row held as Go values is at least one), not bytes.
func TestSortIsExternal(t *testing.T) {
	const soft = 16
	run := func(n int) (peakPages int, liveObjects uint64) {
		ctx, _ := testCtx(t, 256)
		task := governed(t, ctx, soft)
		sample := func() {
			var ms runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&ms)
			liveObjects = max(liveObjects, ms.HeapObjects)
		}
		s := &Sort{Input: &genSource{n: n, sample: sample}, Keys: []SortKey{{Expr: Col{0}}}}
		if err := s.Open(ctx); err != nil {
			t.Fatal(err)
		}
		var b Batch
		for next := int64(0); ; {
			if err := s.NextBatch(ctx, &b); err != nil {
				t.Fatal(err)
			}
			if b.Len() == 0 {
				if next != int64(n) {
					t.Fatalf("sorted %d rows of %d", next, n)
				}
				break
			}
			for _, r := range b.Rows() {
				if r[0].I != next {
					t.Fatalf("row %d has key %d", next, r[0].I)
				}
				if next++; next%8192 == 0 {
					sample()
				}
			}
		}
		if !s.Spilled() {
			t.Fatalf("%d rows sorted without a run under a %d-page soft limit", n, soft)
		}
		if err := s.Close(ctx); err != nil {
			t.Fatal(err)
		}
		settled(t, ctx, task)
		return task.PeakPages(), liveObjects
	}
	const n = 50000
	peak1, live1 := run(n)
	peak4, live4 := run(4 * n)
	t.Logf("peak pages %d / %d, live objects %d / %d", peak1, peak4, live1, live4)
	if peak1 > soft+1 || peak4 != peak1 {
		t.Errorf("peak %d pages at N, %d at 4N: want the same, at most the soft limit and a page", peak1, peak4)
	}
	if float64(live4) > 1.5*float64(live1) {
		t.Errorf("%d live objects at 4N, %d at N: what the sort retains grows with its input", live4, live1)
	}
}

// TestEvictionLeavesSurvivorsInPlace: giving a partition back is dropping
// its table and unlocking its heap, nothing else moves.
func TestEvictionLeavesSurvivorsInPlace(t *testing.T) {
	ctx, _ := testCtx(t, 256)
	task := governed(t, ctx, 1000)
	var lrows, rrows []Row
	for i := 0; i < 4000; i++ {
		lrows = append(lrows, intRow(int64(i), int64(i)))
	}
	for i := 0; i < 4000; i += 2 {
		rrows = append(rrows, intRow(int64(i)))
	}
	j := &HashJoin{
		Left: &Materialized{RowsData: lrows}, Right: &Materialized{RowsData: rrows},
		LeftKeys: []Expr{Col{0}}, RightKeys: []Expr{Col{0}},
		LeftOuter: true, RightWidth: 1,
	}
	if err := j.Open(ctx); err != nil {
		t.Fatal(err)
	}
	before := make([][]store.PageID, len(j.parts))
	for i, p := range j.parts {
		before[i] = append([]store.PageID(nil), p.build.PageIDs()...)
	}
	charged := task.UsedPages()
	if freed, _ := j.ReleaseMemory(1); freed == 0 || task.UsedPages() != charged-freed {
		t.Fatalf("released %d pages, charged %d then %d", freed, charged, task.UsedPages())
	}
	evicted := 0
	for i, p := range j.parts {
		if !slices.Equal(p.build.PageIDs(), before[i]) {
			t.Errorf("partition %d moved: pages %v, were %v", i, p.build.PageIDs(), before[i])
		}
		if p.ht == nil {
			evicted++
			continue
		}
		for _, refs := range p.ht {
			if _, err := p.build.Row(refs[0]); err != nil {
				t.Fatalf("partition %d no longer addressable: %v", i, err)
			}
		}
	}
	if evicted != 1 || j.SpilledPartitions() != 1 {
		t.Fatalf("%d partitions evicted (%d counted), want the largest only", evicted, j.SpilledPartitions())
	}
	var b Batch
	matched, padded := 0, 0
	for {
		if err := j.NextBatch(ctx, &b); err != nil {
			t.Fatal(err)
		}
		if b.Len() == 0 {
			break
		}
		for _, r := range b.Rows() {
			if r[2].IsNull() {
				padded++
			} else {
				matched++
			}
		}
	}
	if matched != 2000 || padded != 2000 {
		t.Fatalf("%d matched and %d padded rows, want 2000 each", matched, padded)
	}
	if err := j.Close(ctx); err != nil {
		t.Fatal(err)
	}
	settled(t, ctx, task)
}
