package exec

import (
	"fmt"
	"slices"

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

// aggCols is one aggregate's state for every group of a HashGroupBy, a
// column per field the aggregate uses, indexed by group: count for all of
// them; sumI, sumF and float for SUM and AVG; ext, the running extreme, for
// MIN and MAX (it has one once count > 0); seen for DISTINCT. The zero value
// of each column is a group that has seen no row, so a column grows with no
// initialisation.
type aggCols struct {
	count []int64
	sumI  []int64
	sumF  []float64
	float []bool // the sum has met a non-INT value and is kept in sumF
	ext   []val.Value
	seen  []map[uint64]bool
}

// grow reallocates the columns spec uses to hold n groups, keeping the
// groups already there.
func (a *aggCols) grow(spec AggSpec, n int) {
	a.count = extend(a.count, n)
	switch spec.Fn {
	case AggSum, AggAvg:
		a.sumI, a.sumF, a.float = extend(a.sumI, n), extend(a.sumF, n), extend(a.float, n)
	case AggMin, AggMax:
		a.ext = extend(a.ext, n)
	}
	if spec.Distinct {
		a.seen = extend(a.seen, n)
	}
}

// extend returns a copy of s with n elements, the new ones zero.
func extend[T any](s []T, n int) []T {
	t := make([]T, n)
	copy(t, s)
	return t
}

// add folds one row into group i: v is the row's value of spec.Arg (ignored
// by COUNT(*)). It reports whether v entered a DISTINCT seen-set.
func (a *aggCols) add(spec AggSpec, i int, v val.Value) (seen bool) {
	if spec.Fn == AggCountStar {
		a.count[i]++
		return false
	}
	if v.IsNull() {
		return false // aggregates ignore NULLs
	}
	if spec.Distinct {
		set := a.seen[i]
		if set == nil {
			set = map[uint64]bool{}
			a.seen[i] = set
		}
		h := val.Hash64(v)
		if set[h] {
			return false
		}
		set[h] = true
		seen = true
	}
	a.count[i]++
	switch spec.Fn {
	case AggSum, AggAvg:
		if v.Kind == val.KInt && !a.float[i] {
			a.sumI[i] += v.I
			break
		}
		a.toFloat(i)
		a.sumF[i] += v.AsFloat()
	case AggMin:
		if a.count[i] == 1 || val.Compare(v, a.ext[i]) < 0 {
			a.ext[i] = v
		}
	case AggMax:
		if a.count[i] == 1 || val.Compare(v, a.ext[i]) > 0 {
			a.ext[i] = v
		}
	}
	return seen
}

// toFloat moves group i's sum to sumF, if it is not there yet.
func (a *aggCols) toFloat(i int) {
	if !a.float[i] {
		a.sumF[i], a.float[i] = float64(a.sumI[i]), true
	}
}

func (a *aggCols) result(spec AggSpec, i int) val.Value {
	n := a.count[i]
	switch spec.Fn {
	case AggCountStar, AggCount:
		return val.NewInt(n)
	case AggSum:
		switch {
		case n == 0:
			return val.Null
		case a.float[i]:
			return val.NewDouble(a.sumF[i])
		}
		return val.NewInt(a.sumI[i])
	case AggAvg:
		if n == 0 {
			return val.Null
		}
		total := float64(a.sumI[i])
		if a.float[i] {
			total = a.sumF[i]
		}
		return val.NewDouble(total / float64(n))
	case AggMin, AggMax:
		return a.ext[i] // NULL until a value arrives
	}
	return val.Null
}

// The low-memory fallback stores a group's partial state as a row of
// aggStateWidth values per aggregate: count, float sum, integer sum,
// is-integer, min, max, init. freshState is that row for a group that has
// seen nothing, which is what each aggregate of a new group is charged.
const aggStateWidth = 7

var freshState = Row{val.NewInt(0), val.NewDouble(0), val.NewInt(0), val.NewInt(1), val.Null, val.Null, val.NewInt(0)}

// encode appends group i's state row to dst.
func (a *aggCols) encode(spec AggSpec, i int, dst Row) Row {
	n := a.count[i]
	var sumF float64
	var sumI int64
	isInt := int64(1)
	var lo, hi val.Value
	switch spec.Fn {
	case AggSum, AggAvg:
		sumF, sumI = a.sumF[i], a.sumI[i]
		if a.float[i] {
			isInt = 0
		}
	case AggMin:
		lo = a.ext[i]
	case AggMax:
		hi = a.ext[i]
	}
	init := int64(0)
	if n > 0 && spec.Fn != AggCountStar {
		init = 1
	}
	return append(dst, val.NewInt(n), val.NewDouble(sumF), val.NewInt(sumI), val.NewInt(isInt), lo, hi, val.NewInt(init))
}

// merge folds a state row st, as encode wrote it, into group i. The
// fallback never merges DISTINCT state: it cannot spill it.
func (a *aggCols) merge(spec AggSpec, i int, st Row) {
	had := a.count[i] > 0
	a.count[i] += st[0].I
	init := st[6].I == 1
	switch spec.Fn {
	case AggSum, AggAvg:
		if st[3].I == 1 && !a.float[i] {
			a.sumI[i] += st[2].I
			break
		}
		a.toFloat(i)
		if st[3].I == 1 {
			a.sumF[i] += float64(st[2].I)
		} else {
			a.sumF[i] += st[1].F
		}
	case AggMin:
		if init && (!had || val.Compare(st[4], a.ext[i]) < 0) {
			a.ext[i] = st[4]
		}
	case AggMax:
		if init && (!had || val.Compare(st[5], a.ext[i]) > 0) {
			a.ext[i] = st[5]
		}
	}
}

// clear makes group i one that has seen no row.
func (a *aggCols) clear(i int) {
	a.count[i] = 0
	if a.sumI != nil {
		a.sumI[i], a.sumF[i], a.float[i] = 0, 0, false
	}
	if a.ext != nil {
		a.ext[i] = val.Null
	}
}

// chainIndex finds entries by a 64-bit hash: head maps a hash to its most
// recent entry plus one (so that an absent hash reads as -1), and next links
// each entry to the previous one with the same hash, -1 ending the chain.
// Entries are numbered 0, 1, 2, … in the order they were added; what an
// entry is — a group, a kept row — is its user's, in a slice indexed the
// same way.
type chainIndex struct {
	head map[uint64]int32
	next []int32
}

// first returns the most recent entry with hash h, or -1.
func (c *chainIndex) first(h uint64) int32 { return c.head[h] - 1 }

// add appends an entry with hash h.
func (c *chainIndex) add(h uint64) {
	if c.head == nil {
		c.head = map[uint64]int32{}
	}
	c.next = append(c.next, c.head[h]-1)
	c.head[h] = int32(len(c.next))
}

// reset empties the index and lets its memory go.
func (c *chainIndex) reset() { c.head, c.next = nil, nil }

// HashGroupBy groups rows by key expressions and computes aggregates.
// Output rows are key values followed by aggregate results, one row per
// group in the order the groups were first seen.
//
// A group is a slot i in flat columns: its key is the len(Keys) values of
// keys from i*len(Keys), each aggregate's state is slot i of that
// aggregate's aggCols, and idx finds it by the key's hash. The columns grow
// together, doubling from 8 groups, so a group costs no object of its own
// (a DISTINCT seen-set is the one exception).
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
	idx       chainIndex  // key hash → groups
	keys      []val.Value // the groups' keys, len(Keys) values a group
	aggs      []aggCols   // per aggregate: every group's state
	nGroups   int
	capacity  int // groups the columns hold
	stateSize int // encoded size of one group's fresh aggregate states
	fellBack  bool
	fb        *btree.Tree
	it        *btree.Iterator // the result, once the fallback engaged
	pos       int             // the next group to emit, while the result is in memory
	inputOpen bool
	ctx       *Ctx
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
	g.key = resize(g.key, len(g.Keys))
	if len(g.aggs) != len(g.Aggs) {
		g.aggs = make([]aggCols, len(g.Aggs))
	}
	g.dropGroups()
	g.fellBack = false
	g.pos = 0
	g.ctx = ctx
	g.stateSize = len(g.Aggs) * val.RowSize(freshState)
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
		g.grow() // slot 0 is where NextBatch reads each stored group back
		g.it = new(btree.Iterator)
		return g.fb.First(g.it)
	}
	// Global aggregate with no input rows and no keys: one row of
	// identity aggregates.
	if len(g.Keys) == 0 && g.nGroups == 0 {
		g.birth(val.HashRow(nil))
	}
	return nil
}

// addBatch folds one input batch (either form) into the groups. Key and
// aggregate-argument columns are set up a column at a time across the
// batch; the row loop then only hashes, looks up and accumulates in place.
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
		i := g.find(h)
		grew := 0
		if i < 0 {
			i = g.birth(h)
			grew = val.RowSize(g.key) + g.stateSize
		}
		c := len(g.key)
		for a, spec := range g.Aggs {
			var v val.Value
			if spec.Arg != nil {
				g.value(c, r, &v)
				c++
			}
			if g.aggs[a].add(spec, i, v) {
				grew += seenEntrySize
			}
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

// groupKey is group i's key.
func (g *HashGroupBy) groupKey(i int) Row {
	nk := len(g.Keys)
	return g.keys[i*nk : (i+1)*nk : (i+1)*nk]
}

// find returns the group whose key is g.key, whose hash is h, or -1.
func (g *HashGroupBy) find(h uint64) int {
	for i := g.idx.first(h); i >= 0; i = g.idx.next[i] {
		if rowsEqualNullSafe(g.groupKey(int(i)), g.key) {
			return int(i)
		}
	}
	return -1
}

// birth adds a group with key g.key, whose hash is h, and returns it.
func (g *HashGroupBy) birth(h uint64) int {
	if g.nGroups == g.capacity {
		g.grow()
	}
	i := g.nGroups
	g.nGroups++
	copy(g.groupKey(i), g.key)
	g.idx.add(h)
	return i
}

// grow doubles the number of groups the columns hold, 8 at first, every
// column at once.
func (g *HashGroupBy) grow() {
	g.capacity = max(8, 2*g.capacity)
	g.keys = extend(g.keys, g.capacity*len(g.Keys))
	g.idx.next = slices.Grow(g.idx.next, g.capacity-len(g.idx.next))
	for a, spec := range g.Aggs {
		g.aggs[a].grow(spec, g.capacity)
	}
}

// dropGroups empties the group table and lets its columns go.
func (g *HashGroupBy) dropGroups() {
	g.idx.reset()
	g.keys, g.nGroups, g.capacity = nil, 0, 0
	clear(g.aggs)
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
	var flat Row
	for i := 0; i < g.nGroups; i++ {
		keys := g.groupKey(i)
		key := val.EncodeKey(keys)
		// Merge with any existing partial group.
		if existing, found, err := g.fb.Search(key); err != nil {
			return err
		} else if found {
			stored, err := g.decodeStored(existing)
			if err != nil {
				return err
			}
			for a, spec := range g.Aggs {
				g.aggs[a].merge(spec, i, stored[a*aggStateWidth:(a+1)*aggStateWidth])
			}
			if _, err := g.fb.Delete(key, nil); err != nil {
				return err
			}
		}
		flat = flat[:0]
		for a, spec := range g.Aggs {
			flat = g.aggs[a].encode(spec, i, flat)
		}
		flat = append(flat, keys...)
		if err := g.fb.Insert(key, val.EncodeRow(flat)); err != nil {
			return err
		}
	}
	g.dropGroups()
	g.acct.FreeBytes()
	return nil
}

// decodeStored decodes a fallback group: the aggregates' state rows, then
// the key.
func (g *HashGroupBy) decodeStored(b []byte) (Row, error) {
	stored, err := val.DecodeRow(b)
	if err == nil && len(stored) < len(g.Aggs)*aggStateWidth {
		err = fmt.Errorf("exec: corrupt fallback group")
	}
	return stored, err
}

// NextBatch emits the next groups. The rows of one batch are carved from
// one slab of values.
func (g *HashGroupBy) NextBatch(ctx *Ctx, out *Batch) error {
	out.Reset()
	n := ctx.BatchSize()
	w := len(g.Keys) + len(g.Aggs)
	var flat []val.Value
	rows := 0
	if g.it == nil {
		rows = min(n, g.nGroups-g.pos)
		flat = make([]val.Value, 0, rows*w)
		for end := g.pos + rows; g.pos < end; g.pos++ {
			flat = append(flat, g.groupKey(g.pos)...)
			for a, spec := range g.Aggs {
				flat = append(flat, g.aggs[a].result(spec, g.pos))
			}
		}
	} else {
		for ; g.it.Valid() && rows < n; g.it.Next() {
			stored, err := g.decodeStored(g.it.Value())
			if err != nil {
				return err
			}
			flat = append(flat, stored[len(g.Aggs)*aggStateWidth:]...)
			for a, spec := range g.Aggs {
				g.aggs[a].clear(0)
				g.aggs[a].merge(spec, 0, stored[a*aggStateWidth:(a+1)*aggStateWidth])
				flat = append(flat, g.aggs[a].result(spec, 0))
			}
			rows++
		}
		if err := g.it.Err(); err != nil {
			return err
		}
	}
	out.reserve(rows)
	for r := 0; r < rows; r++ {
		out.Add(flat[r*w : (r+1)*w : (r+1)*w])
	}
	return nil
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
	g.dropGroups()
	g.cols, g.srcs = nil, nil
	g.acct.Close()
	if g.inputOpen {
		g.inputOpen = false
		return g.Input.Close(ctx)
	}
	return nil
}

// HashDistinct removes duplicate rows, streaming batch-at-a-time. Every row
// it passes is kept, and found again through the same hash → chain index
// as HashGroupBy's groups.
type HashDistinct struct {
	Input Operator
	idx   chainIndex // row hash → kept rows
	kept  []Row
	in    Batch
	eof   bool
}

func (d *HashDistinct) Open(ctx *Ctx) error {
	d.idx.reset()
	d.kept = nil
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
			if h := val.HashRow(row); !d.seen(h, row) {
				d.idx.add(h)
				d.kept = append(d.kept, row)
				out.Add(row)
			}
		}
	}
	return nil
}

// seen reports whether a row equal to row, whose hash is h, was kept.
func (d *HashDistinct) seen(h uint64, row Row) bool {
	for i := d.idx.first(h); i >= 0; i = d.idx.next[i] {
		if rowsEqualNullSafe(d.kept[i], row) {
			return true
		}
	}
	return false
}

func (d *HashDistinct) Close(ctx *Ctx) error {
	d.idx.reset()
	d.kept = nil
	return d.Input.Close(ctx)
}
