package exec

import (
	"fmt"

	"anywheredb/internal/btree"
	"anywheredb/internal/mem"
	"anywheredb/internal/store"
	"anywheredb/internal/val"
)

// AggFn enumerates aggregate functions.
type AggFn uint8

const (
	AggCountStar AggFn = iota
	AggCount
	AggSum
	AggMin
	AggMax
	AggAvg
)

// AggSpec is one aggregate computation.
type AggSpec struct {
	Fn       AggFn
	Arg      Expr // nil for COUNT(*)
	Distinct bool
}

// aggState accumulates one aggregate for one group.
type aggState struct {
	count int64
	sum   float64
	sumI  int64
	isInt bool
	min   val.Value
	max   val.Value
	seen  map[uint64]bool // for DISTINCT
	init  bool
}

func newAggState(spec AggSpec) *aggState {
	s := &aggState{isInt: true}
	if spec.Distinct {
		s.seen = map[uint64]bool{}
	}
	return s
}

// add folds one row into the state: v is the row's value of spec.Arg
// (ignored by COUNT(*)).
func (s *aggState) add(spec AggSpec, v val.Value) {
	if spec.Fn == AggCountStar {
		s.count++
		return
	}
	if v.IsNull() {
		return // aggregates ignore NULLs
	}
	if spec.Distinct {
		h := val.Hash64(v)
		if s.seen[h] {
			return
		}
		s.seen[h] = true
	}
	s.count++
	switch spec.Fn {
	case AggSum, AggAvg:
		if v.Kind == val.KInt && s.isInt {
			s.sumI += v.I
		} else {
			if s.isInt {
				s.sum = float64(s.sumI)
				s.isInt = false
			}
			s.sum += v.AsFloat()
		}
	case AggMin:
		if !s.init || val.Compare(v, s.min) < 0 {
			s.min = v
		}
	case AggMax:
		if !s.init || val.Compare(v, s.max) > 0 {
			s.max = v
		}
	}
	s.init = true
}

func (s *aggState) result(spec AggSpec) val.Value {
	switch spec.Fn {
	case AggCountStar, AggCount:
		return val.NewInt(s.count)
	case AggSum:
		if s.count == 0 {
			return val.Null
		}
		if s.isInt {
			return val.NewInt(s.sumI)
		}
		return val.NewDouble(s.sum)
	case AggAvg:
		if s.count == 0 {
			return val.Null
		}
		total := s.sum
		if s.isInt {
			total = float64(s.sumI)
		}
		return val.NewDouble(total / float64(s.count))
	case AggMin:
		if !s.init {
			return val.Null
		}
		return s.min
	case AggMax:
		if !s.init {
			return val.Null
		}
		return s.max
	}
	return val.Null
}

// encode/decode aggregate state rows for the low-memory fallback: the
// partial state is flattened into a value row.
func (s *aggState) encode(spec AggSpec) Row {
	isInt := int64(0)
	if s.isInt {
		isInt = 1
	}
	init := int64(0)
	if s.init {
		init = 1
	}
	return Row{
		val.NewInt(s.count), val.NewDouble(s.sum), val.NewInt(s.sumI),
		val.NewInt(isInt), s.min, s.max, val.NewInt(init),
	}
}

const aggStateWidth = 7

func decodeAggState(spec AggSpec, r Row) *aggState {
	return &aggState{
		count: r[0].I, sum: r[1].F, sumI: r[2].I,
		isInt: r[3].I == 1, min: r[4], max: r[5], init: r[6].I == 1,
	}
}

// mergeAggState folds other into s (both must be non-DISTINCT; the
// fallback never needs to merge DISTINCT state because groups re-aggregate
// from scratch when reloaded).
func (s *aggState) merge(spec AggSpec, o *aggState) {
	s.count += o.count
	if s.isInt && o.isInt {
		s.sumI += o.sumI
	} else {
		if s.isInt {
			s.sum = float64(s.sumI)
			s.isInt = false
		}
		of := o.sum
		if o.isInt {
			of = float64(o.sumI)
		}
		s.sum += of
	}
	if o.init {
		if !s.init || val.Compare(o.min, s.min) < 0 {
			s.min = o.min
		}
		if !s.init || val.Compare(o.max, s.max) > 0 {
			s.max = o.max
		}
		s.init = true
	}
}

// HashGroupBy groups rows by key expressions and computes aggregates.
// Output rows are key values followed by aggregate results.
//
// Every group is charged to the statement's governor task by its encoded
// size. Low-memory fallback (§4.3): when the governor asks for memory back
// (ReleaseMemory), in-memory groups are flushed into a temporary B+-tree
// indexed on the grouping columns, holding partially computed groups;
// further flushes merge into it, and the result is read from it a batch at
// a time. This bounds memory at the price of temp I/O, and is only used in
// extraordinary cases.
type HashGroupBy struct {
	Input Operator
	Keys  []Expr
	Aggs  []AggSpec
	Depth int

	acct      mem.Account
	cols      []val.Value // column-major scratch: the evaluated key and aggregate-argument values of one batch
	srcs      []colSource // per key, then per aggregate argument: where one batch's values are read
	key       Row         // scratch: one row's key values
	groups    map[uint64][]*group
	nGroups   int
	stateSize int // encoded size of one group's fresh aggregate states
	fellBack  bool
	fb        *btree.Tree
	emit      []*group        // the result, when it never left memory
	it        *btree.Iterator // the result, once the fallback engaged
	pos       int
	inputOpen bool
	ctx       *Ctx
}

type group struct {
	keys Row
	aggs []*aggState
}

func (g *HashGroupBy) newGroup(keys Row) *group {
	grp := &group{keys: keys, aggs: make([]*aggState, len(g.Aggs))}
	for i, spec := range g.Aggs {
		grp.aggs[i] = newAggState(spec)
	}
	return grp
}

// FellBack reports whether the low-memory fallback engaged.
func (g *HashGroupBy) FellBack() bool { return g.fellBack }

// MemoryPeakPages reports the high-water mark of the last execution.
func (g *HashGroupBy) MemoryPeakPages() int { return g.acct.PeakPages() }

// ReleaseMemory implements mem.Consumer: engage the low-memory fallback,
// spilling all in-memory groups to the temp-file B+-tree. Once the input
// is consumed the groups are the result being emitted and stay.
func (g *HashGroupBy) ReleaseMemory(want int) (int, error) {
	if !g.inputOpen || g.nGroups == 0 || g.hasDistinctAgg() {
		return 0, nil
	}
	before := g.acct.Pages()
	err := g.flushToFallback(g.ctx)
	return before - g.acct.Pages(), err
}

func (g *HashGroupBy) Open(ctx *Ctx) error {
	g.dropFallback(ctx)
	g.groups = map[uint64][]*group{}
	g.key = make(Row, len(g.Keys))
	g.nGroups = 0
	g.fellBack = false
	g.emit, g.pos = nil, 0
	g.ctx = ctx
	g.stateSize = 0
	for _, spec := range g.Aggs {
		g.stateSize += val.RowSize(newAggState(spec).encode(spec))
	}
	g.acct.Open(ctx.Task, g, g.Depth)
	// Marked open before Open is attempted, as in HashJoin.Open.
	g.inputOpen = true
	if err := g.Input.Open(ctx); err != nil {
		return err
	}
	var in Batch
	err := pull(ctx, g.Input, &in, func(in *Batch) error {
		ctx.ChargeRows(in.Len())
		return g.addBatch(in)
	})
	if err != nil {
		return err
	}
	if g.fb != nil {
		// Push remaining in-memory groups through the fallback so each key
		// appears exactly once.
		if err := g.flushToFallback(ctx); err != nil {
			return err
		}
	}
	g.inputOpen = false
	if err := g.Input.Close(ctx); err != nil {
		return err
	}
	if g.fb != nil {
		g.it, err = g.fb.First()
		return err
	}
	g.emit = make([]*group, 0, g.nGroups)
	for _, grps := range g.groups {
		g.emit = append(g.emit, grps...)
	}
	// Global aggregate with no input rows and no keys: one row of
	// identity aggregates.
	if len(g.Keys) == 0 && len(g.emit) == 0 {
		g.emit = append(g.emit, g.newGroup(nil))
	}
	return nil
}

// addBatch folds one input batch (either form) into the groups. Key and
// aggregate-argument columns are set up a column at a time across the
// batch; the row loop then only hashes, looks up and accumulates, and
// allocates a key row only when a group is born.
func (g *HashGroupBy) addBatch(in *Batch) error {
	n := in.Len()
	g.cols, g.srcs = g.cols[:0], g.srcs[:0]
	for _, e := range g.Keys {
		if err := g.source(e, in); err != nil {
			return err
		}
	}
	for _, spec := range g.Aggs {
		if spec.Arg == nil {
			continue
		}
		if err := g.source(spec.Arg, in); err != nil {
			return err
		}
	}
	for r := 0; r < n; r++ {
		for k := range g.key {
			g.value(k, r, &g.key[k])
		}
		h := val.HashRow(g.key)
		var grp *group
		for _, cand := range g.groups[h] {
			if rowsEqualNullSafe(cand.keys, g.key) {
				grp = cand
				break
			}
		}
		grew := 0
		if grp == nil {
			grp = g.newGroup(append(Row(nil), g.key...))
			g.groups[h] = append(g.groups[h], grp)
			g.nGroups++
			grew = val.RowSize(grp.keys) + g.stateSize
		}
		c := len(g.key)
		for i, spec := range g.Aggs {
			var v val.Value
			if spec.Arg != nil {
				g.value(c, r, &v)
				c++
			}
			seen := len(grp.aggs[i].seen)
			grp.aggs[i].add(spec, v)
			grew += seenEntrySize * (len(grp.aggs[i].seen) - seen)
		}
		// Charged last: the row is in its group by now, so the ReleaseMemory
		// the charge may bring flushes a consistent table.
		if grew > 0 {
			if err := g.acct.AddBytes(grew); err != nil {
				return err
			}
		}
	}
	return nil
}

// colSource is where addBatch reads one key or aggregate-argument column
// of a batch: in place, when it is a Col of a vector-form batch, or from
// g.cols, where EvalBatch put it.
type colSource struct {
	view colView // a view of the column, or the zero view
	off  int     // without a view: the column's first value in g.cols
}

// source sets up column e of batch in for value.
func (g *HashGroupBy) source(e Expr, in *Batch) (err error) {
	if c, ok := e.(Col); ok {
		if view, ok := in.colView(c.Idx); ok {
			g.srcs = append(g.srcs, colSource{view: view})
			return nil
		}
	}
	g.srcs = append(g.srcs, colSource{off: len(g.cols)})
	g.cols, err = EvalBatch(e, in, g.cols)
	return err
}

// value writes row r's value of the batch's j-th source column to *dst; a
// column read in place is boxed right there, one value at a time.
func (g *HashGroupBy) value(j, r int, dst *val.Value) {
	if s := &g.srcs[j]; s.view.col != nil {
		s.view.box(r, dst)
	} else {
		*dst = g.cols[s.off+r]
	}
}

// seenEntrySize is what one value of a DISTINCT aggregate's seen-set is
// charged: its 8-byte hash.
const seenEntrySize = 8

// rowsEqualNullSafe compares group keys with NULL = NULL (SQL GROUP BY
// treats NULLs as one group).
func rowsEqualNullSafe(a, b Row) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		an, bn := a[i].IsNull(), b[i].IsNull()
		if an != bn {
			return false
		}
		if !an && val.Compare(a[i], b[i]) != 0 {
			return false
		}
	}
	return true
}

// hasDistinctAgg reports whether any aggregate is DISTINCT; their seen-sets
// cannot be spilled, so the fallback is unavailable: the sets are charged
// like everything else, and memory is then bounded only by the hard limit.
func (g *HashGroupBy) hasDistinctAgg() bool {
	for _, s := range g.Aggs {
		if s.Distinct {
			return true
		}
	}
	return false
}

// flushToFallback moves every in-memory group into the temp-file B+-tree
// of partial groups, keyed on the grouping columns.
func (g *HashGroupBy) flushToFallback(ctx *Ctx) error {
	if g.hasDistinctAgg() {
		return fmt.Errorf("exec: cannot spill DISTINCT aggregate state")
	}
	if g.fb == nil {
		t, err := btree.Create(ctx.Pool, ctx.St, store.TempFile, 0)
		if err != nil {
			return err
		}
		g.fb = t
		g.fellBack = true
	}
	for h, grps := range g.groups {
		for _, grp := range grps {
			key := val.EncodeKey(grp.keys)
			// Merge with any existing partial group.
			if existing, found, err := g.fb.Search(key); err != nil {
				return err
			} else if found {
				stored, err := val.DecodeRow(existing)
				if err != nil {
					return err
				}
				merged := g.decodeGroup(grp.keys, stored)
				for i, spec := range g.Aggs {
					merged.aggs[i].merge(spec, grp.aggs[i])
				}
				grp = merged
				if _, err := g.fb.Delete(key, nil); err != nil {
					return err
				}
			}
			var flat Row
			for i, spec := range g.Aggs {
				flat = append(flat, grp.aggs[i].encode(spec)...)
			}
			flat = append(flat, grp.keys...)
			if err := g.fb.Insert(key, val.EncodeRow(flat)); err != nil {
				return err
			}
		}
		delete(g.groups, h)
	}
	g.nGroups = 0
	g.acct.FreeBytes()
	return nil
}

func (g *HashGroupBy) decodeGroup(keys Row, stored Row) *group {
	grp := &group{keys: keys, aggs: make([]*aggState, len(g.Aggs))}
	for i, spec := range g.Aggs {
		grp.aggs[i] = decodeAggState(spec, stored[i*aggStateWidth:(i+1)*aggStateWidth])
	}
	return grp
}

func (g *HashGroupBy) resultRow(grp *group) Row {
	out := make(Row, 0, len(grp.keys)+len(g.Aggs))
	out = append(out, grp.keys...)
	for i, spec := range g.Aggs {
		out = append(out, grp.aggs[i].result(spec))
	}
	return out
}

func (g *HashGroupBy) NextBatch(ctx *Ctx, out *Batch) error {
	out.Reset()
	n := ctx.BatchSize()
	for ; g.pos < len(g.emit) && out.Len() < n; g.pos++ {
		out.Add(g.resultRow(g.emit[g.pos]))
	}
	if g.it == nil {
		return nil
	}
	for ; g.it.Valid() && out.Len() < n; g.it.Next() {
		stored, err := val.DecodeRow(g.it.Value())
		if err != nil {
			return err
		}
		nAgg := len(g.Aggs) * aggStateWidth
		if len(stored) < nAgg {
			return fmt.Errorf("exec: corrupt fallback group")
		}
		out.Add(g.resultRow(g.decodeGroup(stored[nAgg:], stored)))
	}
	return g.it.Err()
}

// dropFallback returns the fallback tree's pages to the temporary file.
func (g *HashGroupBy) dropFallback(ctx *Ctx) {
	if g.it != nil {
		g.it.Close()
		g.it = nil
	}
	if g.fb != nil {
		btree.Drop(ctx.Pool, ctx.St, g.fb.Root(), 0)
		g.fb = nil
	}
}

func (g *HashGroupBy) Close(ctx *Ctx) error {
	g.dropFallback(ctx)
	g.groups, g.emit, g.cols, g.srcs = nil, nil, nil, nil
	g.acct.Close()
	if g.inputOpen {
		g.inputOpen = false
		return g.Input.Close(ctx)
	}
	return nil
}

// HashDistinct removes duplicate rows, streaming batch-at-a-time.
type HashDistinct struct {
	Input Operator
	seen  map[uint64][]Row
	in    Batch
	eof   bool
}

func (d *HashDistinct) Open(ctx *Ctx) error {
	d.seen = map[uint64][]Row{}
	d.in.Reset()
	d.eof = false
	return d.Input.Open(ctx)
}

func (d *HashDistinct) NextBatch(ctx *Ctx, out *Batch) error {
	out.Reset()
	target := ctx.BatchSize()
	for out.Len() < target && !d.eof {
		if err := ctx.Interrupted(); err != nil {
			return err
		}
		if err := d.Input.NextBatch(ctx, &d.in); err != nil {
			return err
		}
		if d.in.Len() == 0 {
			d.eof = true
			break
		}
		for _, row := range d.in.Rows() {
			h := val.HashRow(row)
			dup := false
			for _, prev := range d.seen[h] {
				if rowsEqualNullSafe(prev, row) {
					dup = true
					break
				}
			}
			if dup {
				continue
			}
			d.seen[h] = append(d.seen[h], row)
			out.Add(row)
		}
	}
	return nil
}

func (d *HashDistinct) Close(ctx *Ctx) error {
	d.seen = nil
	return d.Input.Close(ctx)
}
