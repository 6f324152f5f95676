package exec

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"anywheredb/internal/table"
	"anywheredb/internal/val"
)

// reuseTable is the differential's table (id, g, v, s, x), sealed into
// 1 000-row segments with a 500-row delta tail behind them. Its id ranges
// give a filter on id the group counts it wants:
//   - [0, 4000) and [9000, 12500): g = id % 16, 16 groups;
//   - [4000, 9000): g = 100 + id, 5 000 groups;
//   - g is NULL on every thirteenth row, v on every seventh;
//   - x is an INT below id 9000 and a DOUBLE from there on;
//   - s is a seeded random string.
func reuseTable(t testing.TB, ctx *Ctx) *table.Table {
	t.Helper()
	tbl, err := table.Create(ctx.Pool, ctx.St, 0, 9100, "reuse", []table.Column{
		{Name: "id", Kind: val.KInt},
		{Name: "g", Kind: val.KInt},
		{Name: "v", Kind: val.KInt},
		{Name: "s", Kind: val.KStr},
		{Name: "x", Kind: val.KDouble},
	})
	if err != nil {
		t.Fatal(err)
	}
	tbl.SegmentRows = 1000
	rng := rand.New(rand.NewSource(40))
	load := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			g := val.NewInt(int64(i % 16))
			if i >= 4000 && i < 9000 {
				g = val.NewInt(int64(100 + i))
			}
			if i%13 == 0 {
				g = val.Null
			}
			v := val.NewInt(int64(i % 37))
			if i%7 == 0 {
				v = val.Null
			}
			x := val.NewInt(int64(i % 101))
			if i >= 9000 {
				x = val.NewDouble(float64(i%101) + 0.5)
			}
			row := Row{val.NewInt(int64(i)), g, v, val.NewStr(fmt.Sprintf("s%05d", rng.Intn(100000))), x}
			if _, err := tbl.Insert(nil, row); err != nil {
				t.Fatal(err)
			}
		}
	}
	load(0, 12000)
	if _, err := tbl.BuildColumnar(nil, false); err != nil {
		t.Fatal(err)
	}
	load(12000, 12500)
	return tbl
}

// reuseTree is TableScan → Filter (id >= lo) → Filter (id < hi) →
// HashGroupBy → Project over the differential's table, lo and hi read
// from the two parameter slots.
func reuseTree(tbl *table.Table, params []val.Value, keys []Expr, aggs []AggSpec, proj []Expr) (*Project, *HashGroupBy) {
	lo, hi := Param{V: &params[0]}, Param{V: &params[1]}
	g := &HashGroupBy{
		Input: &Filter{
			Input: &Filter{
				Input: &TableScan{Table: tbl, ZoneCol: 0, ZoneOp: "<", ZoneConst: hi},
				Pred:  Cmp{Op: ">=", L: Col{Idx: 0}, R: lo},
			},
			Pred: Cmp{Op: "<", L: Col{Idx: 0}, R: hi},
		},
		Keys: keys,
		Aggs: aggs,
	}
	return &Project{Input: g, Exprs: proj}, g
}

// cancelAfter is a statement context that reports a cancel from its n-th
// poll on.
type cancelAfter struct {
	context.Context
	n int
}

func (c *cancelAfter) Err() error {
	if c.n--; c.n < 0 {
		return context.Canceled
	}
	return nil
}

// TestReopenedTreeAgreesWithAFreshOne: one TableScan → Filter → HashGroupBy
// → Project tree, re-opened over a seeded sequence of runs, answers every
// run as a tree built for it does — though the re-opened one keeps its
// scan window, source batch and group columns from run to run. The runs
// cross the retention bound (16 → 5 000 → 0 → 16 groups, the empty one a
// global aggregate's identity row), meet NULL keys, DISTINCT seen-sets,
// string MIN/MAX and a SUM that turns DOUBLE before an all-INT run, go
// through the §4.3 fallback before an in-memory run, and are cancelled
// mid-input before a clean run.
func TestReopenedTreeAgreesWithAFreshOne(t *testing.T) {
	ctx, _ := testCtx(t, 4096)
	tbl := reuseTable(t, ctx)
	cols := func(n int) []Expr {
		out := make([]Expr, n)
		for i := range out {
			out[i] = Col{Idx: i}
		}
		return out
	}
	type shape struct {
		name      string
		keys      []Expr
		aggs      []AggSpec
		proj      []Expr
		spillable bool // no DISTINCT: the fallback can take its groups
	}
	shapes := []shape{
		{
			name:      "keyed",
			keys:      []Expr{Col{Idx: 1}},
			aggs:      []AggSpec{{Fn: AggCountStar}, {Fn: AggCount, Arg: Col{Idx: 2}}, {Fn: AggSum, Arg: Col{Idx: 4}}, {Fn: AggAvg, Arg: Col{Idx: 4}}, {Fn: AggMin, Arg: Col{Idx: 3}}, {Fn: AggMax, Arg: Col{Idx: 3}}},
			proj:      cols(7),
			spillable: true,
		},
		{
			name: "keyed DISTINCT, computed key",
			keys: []Expr{Arith{Op: '%', L: Col{Idx: 1}, R: Const{V: val.NewInt(5003)}}},
			aggs: []AggSpec{{Fn: AggCount, Arg: Col{Idx: 2}, Distinct: true}, {Fn: AggSum, Arg: Col{Idx: 4}}, {Fn: AggMin, Arg: Col{Idx: 3}}},
			proj: []Expr{Col{Idx: 3}, Col{Idx: 0}, Arith{Op: '+', L: Col{Idx: 1}, R: Const{V: val.NewInt(1)}}, Col{Idx: 2}},
		},
		{
			name: "global",
			aggs: []AggSpec{{Fn: AggCountStar}, {Fn: AggSum, Arg: Col{Idx: 4}}, {Fn: AggMax, Arg: Col{Idx: 3}}, {Fn: AggCount, Arg: Col{Idx: 2}, Distinct: true}},
			proj: cols(4),
		},
	}
	type run struct {
		lo, hi int64
		spill  bool
		cancel bool
	}
	runs := []run{
		{lo: 0, hi: 4000},     // 16 groups and the NULL one
		{lo: 4000, hi: 9000},  // 5 000 groups: past the retention bound
		{lo: 5, hi: 5},        // no input
		{lo: 9000, hi: 12000}, // 16 groups, DOUBLE sums
		{lo: 0, hi: 4000},     // the same slots, INT sums again
		{lo: 1000, hi: 4000},  // 16 groups, fewer rows each
		{lo: 3000, hi: 6000, spill: true},
		{lo: 0, hi: 3000}, // in memory after the fallback
		{lo: 0, hi: 12500, cancel: true},
		{lo: 11500, hi: 12500}, // clean, across into the delta tail
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 20; i++ {
		lo := rng.Int63n(12500)
		r := run{lo: lo, hi: lo + rng.Int63n(12500-lo+1), spill: rng.Intn(6) == 0}
		if !r.spill && rng.Intn(6) == 0 {
			r.cancel = true
		}
		runs = append(runs, r)
	}
	for _, sh := range shapes {
		params := make([]val.Value, 2)
		kept, g := reuseTree(tbl, params, sh.keys, sh.aggs, sh.proj)
		for i, r := range runs {
			params[0], params[1] = val.NewInt(r.lo), val.NewInt(r.hi)
			what := fmt.Sprintf("%s, run %d [%d, %d)", sh.name, i, r.lo, r.hi)
			fresh, _ := reuseTree(tbl, params, sh.keys, sh.aggs, sh.proj)
			want := drain(t, ctx, fresh)
			switch {
			case r.cancel:
				ctx.Context = &cancelAfter{Context: context.Background(), n: 3}
				_, err := Drain(ctx, kept)
				ctx.Context = nil
				if err != context.Canceled {
					t.Fatalf("%s: cancelled mid-input, got %v", what, err)
				}
				continue
			case r.spill:
				task := governed(t, ctx, 1)
				got := drain(t, ctx, kept)
				ctx.Task = nil
				settled(t, ctx, task)
				if sh.spillable && !g.FellBack() && r.hi-r.lo > 1000 {
					t.Errorf("%s: the squeezed run did not fall back", what)
				}
				if !slices.Equal(encodeRows(got, true), encodeRows(want, true)) {
					t.Fatalf("%s, squeezed: the kept tree answered %d rows %v…, a fresh one %d rows %v…", what, len(got), head(got), len(want), head(want))
				}
				continue
			}
			got := drain(t, ctx, kept)
			if g.FellBack() {
				t.Fatalf("%s: an unsqueezed run fell back", what)
			}
			if !slices.Equal(encodeRows(got, false), encodeRows(want, false)) {
				t.Fatalf("%s: the kept tree answered %d rows %v…, a fresh one %d rows %v…", what, len(got), head(got), len(want), head(want))
			}
		}
	}
}

// head is the first few rows of rows, for a failure message.
func head(rows []Row) []Row { return rows[:min(3, len(rows))] }

// TestCloseKeepsAtMostOneBatch: what a closed tree keeps for its next
// execution is bounded by one batch and refers to nothing of the table.
// After 16 groups HashGroupBy keeps its columns, zeroed; after 5 000 it
// keeps none. After either the scan keeps no segment and no boxed value.
// And the kept tree's next execution reads the segments the table has by
// then, not those it read last.
func TestCloseKeepsAtMostOneBatch(t *testing.T) {
	ctx, _ := testCtx(t, 4096)
	tbl := reuseTable(t, ctx)
	params := make([]val.Value, 2)
	aggs := []AggSpec{{Fn: AggCountStar}, {Fn: AggSum, Arg: Col{Idx: 4}}, {Fn: AggMin, Arg: Col{Idx: 3}}, {Fn: AggCount, Arg: Col{Idx: 2}, Distinct: true}}
	p, g := reuseTree(tbl, params, []Expr{Col{Idx: 1}}, aggs, []Expr{Col{Idx: 0}, Col{Idx: 1}, Col{Idx: 2}, Col{Idx: 3}, Col{Idx: 4}})
	scan := g.Input.(*Filter).Input.(*Filter).Input.(*TableScan)
	execute := func(lo, hi int64) []Row {
		params[0], params[1] = val.NewInt(lo), val.NewInt(hi)
		return drain(t, ctx, p)
	}
	scanHoldsNothing := func(what string) {
		t.Helper()
		if scan.segs != nil || scan.window.seg != nil {
			t.Errorf("%s: the closed scan still points at a segment", what)
		}
		for c, v := range scan.window.cols {
			if slices.ContainsFunc(v.vals[:cap(v.vals)], func(x val.Value) bool { return x != val.Null }) {
				t.Errorf("%s: the closed scan's column %d keeps boxed values", what, c)
			}
			if v.capacity() > DefaultBatchSize {
				t.Errorf("%s: the closed scan's column %d keeps %d values", what, c, v.capacity())
			}
		}
		if slices.ContainsFunc(scan.page[:cap(scan.page)], func(r table.PageRow) bool { return r.Row != nil }) || scan.carry != nil {
			t.Errorf("%s: the closed scan keeps heap rows", what)
		}
	}
	if n := len(execute(0, 4000)); n != 17 {
		t.Fatalf("%d groups, want 17", n)
	}
	scanHoldsNothing("after 17 groups")
	if g.capacity == 0 || g.capacity > DefaultBatchSize {
		t.Errorf("after 17 groups HashGroupBy keeps columns for %d, want a warm table of at most %d", g.capacity, DefaultBatchSize)
	}
	for a := range g.aggs {
		c := &g.aggs[a]
		if slices.ContainsFunc(c.count, func(n int64) bool { return n != 0 }) || slices.ContainsFunc(c.ext, func(x val.Value) bool { return x != val.Null }) ||
			slices.ContainsFunc(c.seen, func(m map[uint64]bool) bool { return m != nil }) || slices.Contains(c.float, true) {
			t.Errorf("aggregate %d keeps the last execution's state", a)
		}
	}
	if slices.ContainsFunc(g.keys, func(x val.Value) bool { return x != val.Null }) || len(g.idx.head) != 0 || len(g.idx.next) != 0 {
		t.Error("the kept group table still holds the last execution's keys")
	}
	if n := len(execute(4000, 9000)); n != 4616 {
		t.Fatalf("%d groups, want 4 616", n)
	}
	scanHoldsNothing("after 4 616 groups")
	if g.capacity != 0 || g.keys != nil || g.idx.next != nil || g.idx.head != nil {
		t.Errorf("after 4 616 groups HashGroupBy keeps columns for %d", g.capacity)
	}
	for a := range g.aggs {
		if g.aggs[a].count != nil || g.aggs[a].ext != nil || g.aggs[a].seen != nil {
			t.Errorf("after 4 616 groups aggregate %d keeps its columns", a)
		}
	}
	if cap(g.cols) > (len(g.Keys)+len(g.Aggs))*DefaultBatchSize {
		t.Errorf("HashGroupBy keeps %d values of column scratch", cap(g.cols))
	}

	// The table is sealed again, with 2 000 more rows of 16 groups: the
	// kept tree reads the new segments.
	for i := 12500; i < 14500; i++ {
		if _, err := tbl.Insert(nil, Row{val.NewInt(int64(i)), val.NewInt(int64(i % 16)), val.NewInt(1), val.NewStr("new"), val.NewInt(1)}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := tbl.BuildColumnar(nil, false); err != nil {
		t.Fatal(err)
	}
	rows := execute(12500, 14500)
	if len(rows) != 16 || scan.segsTotal != len(tbl.Columnar().Segs) {
		t.Fatalf("after resealing: %d groups from %d segments, want 16 from the table's %d", len(rows), scan.segsTotal, len(tbl.Columnar().Segs))
	}
	for _, r := range rows {
		if r[1].I != 125 || r[3].S != "new" {
			t.Fatalf("after resealing the kept tree reads %v", r)
		}
	}
}
