package exec

import (
	"fmt"
	"slices"
	"testing"

	"anywheredb/internal/val"
)

// poisonSource produces rows the way a producer that lends its scratch
// does: the rows of a batch are windows of one slab the source keeps,
// marked as its scratch, and at every NextBatch and at Close it overwrites
// the slab with poison before anything else. A consumer that kept a row it
// did not take from Rows reads poison once the source moves on.
type poisonSource struct {
	rows []Row // the rows to produce, all width values wide
	slab []val.Value
	pos  int
}

// poison is the value a kept scratch row turns into.
var poison = val.NewStr("poison")

func poisoned(rows ...Row) *poisonSource { return &poisonSource{rows: rows} }

func (p *poisonSource) width() int {
	if len(p.rows) == 0 {
		return 0
	}
	return len(p.rows[0])
}

func (p *poisonSource) spoil() {
	for i := range p.slab {
		p.slab[i] = poison
	}
}

func (p *poisonSource) Open(ctx *Ctx) error {
	p.pos = 0
	if p.slab == nil {
		p.slab = make([]val.Value, ctx.BatchSize()*p.width())
	}
	return nil
}

func (p *poisonSource) NextBatch(ctx *Ctx, out *Batch) error {
	p.spoil()
	w := p.width()
	n := min(ctx.BatchSize(), len(p.rows)-p.pos, len(p.slab)/max(w, 1))
	for i, r := range p.rows[p.pos : p.pos+n] {
		copy(p.slab[i*w:(i+1)*w], r)
	}
	p.pos += n
	out.carve(p.slab, n, w)
	return nil
}

func (p *poisonSource) Close(*Ctx) error {
	p.spoil()
	return nil
}

// lifetimeRows is k rows of (i mod m, name-i): keys that repeat, and a
// string per row.
func lifetimeRows(k, m int) []Row {
	rows := make([]Row, k)
	for i := range rows {
		rows[i] = Row{val.NewInt(int64(i % m)), val.NewStr(fmt.Sprint("name-", i))}
	}
	return rows
}

// render prints rows in order and sorted.
func render(rows []Row) (ordered, sorted []string) {
	for _, r := range rows {
		ordered = append(ordered, fmt.Sprint(r))
	}
	sorted = slices.Clone(ordered)
	slices.Sort(sorted)
	return ordered, sorted
}

// TestKeepersCopyScratchRows: every operator that keeps rows of its input
// past the producer's next call takes them from Rows, so a source that lends
// its scratch and poisons it as it goes gives the same answer as one that
// hands out fresh rows. Each tree is built twice, over each kind of source,
// and run in batches of 7 rows.
func TestKeepersCopyScratchRows(t *testing.T) {
	ctx, _ := testCtx(t, 256)
	ctx.ForceBatchSize = 7
	inner := mkTable(t, ctx, "lt", 60, 12)
	ix, err := inner.AddIndex(904, "lt_grp", []int{1}, false)
	if err != nil {
		t.Fatal(err)
	}
	left, right := lifetimeRows(40, 9), lifetimeRows(30, 6)

	// A source over rows, one of each kind.
	type source func(rows []Row) Operator
	fresh := func(rows []Row) Operator { return rowsOp(rows...) }
	lent := func(rows []Row) Operator { return poisoned(rows...) }

	// subquery runs an uncorrelated IN subquery's materialisation: the
	// keys of in, drained, as the list of an IN predicate over outer.
	subquery := func(src source, in, outer []Row, neg bool) Operator {
		keys, err := Drain(ctx, &Project{Exprs: []Expr{Col{0}}, Input: &Filter{Input: src(in), Pred: Cmp{Op: "<", L: Col{0}, R: Const{val.NewInt(4)}}}})
		if err != nil {
			t.Fatal(err)
		}
		var list []Expr
		for _, k := range keys {
			list = append(list, Const{k[0]})
		}
		return &Filter{Input: src(outer), Pred: InListPred{E: Col{0}, List: list, Neg: neg}}
	}
	// exists runs an uncorrelated EXISTS: the first row of in, drained.
	exists := func(src source, in, outer []Row) Operator {
		first, err := Drain(ctx, &Limit{N: 1, Input: &Sort{Input: src(in), Keys: []SortKey{{Expr: Col{1}, Desc: true}}}})
		if err != nil {
			t.Fatal(err)
		}
		return &Filter{Input: src(outer), Pred: Cmp{Op: "=", L: Col{1}, R: Const{first[0][1]}}}
	}

	trees := []struct {
		name    string
		ordered bool
		build   func(src source) Operator
	}{
		{"Drain", true, func(src source) Operator { return src(left) }},
		{"Sort", true, func(src source) Operator {
			return &Sort{Input: src(left), Keys: []SortKey{{Expr: Col{0}}, {Expr: Col{1}, Desc: true}}}
		}},
		{"HashJoin", false, func(src source) Operator {
			return &HashJoin{Left: src(left), Right: src(right), LeftKeys: []Expr{Col{0}}, RightKeys: []Expr{Col{0}}}
		}},
		{"HashJoin left outer", false, func(src source) Operator {
			return &HashJoin{Left: src(left), Right: src(right), LeftKeys: []Expr{Col{0}}, RightKeys: []Expr{Col{0}}, LeftOuter: true, RightWidth: 2}
		}},
		{"IndexNLJoin", false, func(src source) Operator {
			return &IndexNLJoin{Left: src(left), LeftKeys: []Expr{Col{0}}, Table: inner, Index: ix, LeftOuter: true, RightWidth: 3}
		}},
		{"NestedLoopJoin", false, func(src source) Operator {
			return &NestedLoopJoin{Left: src(left), Right: src(right), Pred: Cmp{Op: "<", L: Col{0}, R: Col{2}}, LeftOuter: true, RightWidth: 2}
		}},
		{"HashDistinct", false, func(src source) Operator {
			return &HashDistinct{Input: &Project{Exprs: []Expr{Col{0}}, Input: src(left)}}
		}},
		{"HashDistinct of whole rows", false, func(src source) Operator {
			return &HashDistinct{Input: src(append(slices.Clone(left), left...))}
		}},
		{"HashGroupBy", false, func(src source) Operator {
			return &HashGroupBy{Input: src(left), Keys: []Expr{Col{0}}, Aggs: []AggSpec{{Fn: AggCountStar}, {Fn: AggMax, Arg: Col{1}}}}
		}},
		{"RecursiveUnion", false, func(src source) Operator {
			return &RecursiveUnion{
				Base: src(left[:5]),
				Recursive: func(prev *Materialized) Operator {
					return &Filter{
						Input: &Project{Exprs: []Expr{Arith{Op: '+', L: Col{0}, R: Const{val.NewInt(3)}}, Col{1}}, Input: src(prev.RowsData)},
						Pred:  Cmp{Op: "<", L: Col{0}, R: Const{val.NewInt(30)}},
					}
				},
			}
		}},
		{"UnionAll", true, func(src source) Operator { return &UnionAll{Inputs: []Operator{src(left), src(right)}} }},
		{"Limit", true, func(src source) Operator { return &Limit{N: 17, Input: src(left)} }},
		{"IN subquery", true, func(src source) Operator { return subquery(src, right, left, false) }},
		{"NOT IN subquery", true, func(src source) Operator { return subquery(src, right, left, true) }},
		{"EXISTS", true, func(src source) Operator { return exists(src, right, left) }},
	}
	for _, tc := range trees {
		t.Run(tc.name, func(t *testing.T) {
			wantOrd, want := render(drain(t, ctx, tc.build(fresh)))
			if len(want) == 0 {
				t.Fatal("the tree answers nothing: the test would prove nothing")
			}
			gotOrd, got := render(drain(t, ctx, tc.build(lent)))
			if !slices.Equal(got, want) || tc.ordered && !slices.Equal(gotOrd, wantOrd) {
				t.Errorf("over a scratch source:\n%v\nover fresh rows:\n%v", gotOrd, wantOrd)
			}
		})
	}
}
