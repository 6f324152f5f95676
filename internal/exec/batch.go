package exec

import (
	"cmp"
	"slices"

	"anywheredb/internal/colseg"
	"anywheredb/internal/page"
	"anywheredb/internal/table"
	"anywheredb/internal/val"
)

// Batch execution protocol. Operators exchange vectors of rows instead of
// one row per virtual call: the per-row costs of the Volcano protocol (an
// interface call, a ChargeRows, a pair of clock samples per operator level)
// are amortized to per-batch, which is what lets the executor run as fast
// as the hardware allows once the buffer pool stops serializing the hit
// path. The batch size is not a constant: it is re-derived from the memory
// governor's soft limit between batches, so a mid-query memory squeeze
// takes effect at the next batch boundary.

const (
	// DefaultBatchSize is the target rows per batch with no governor
	// pressure.
	DefaultBatchSize = 1024
	// MinBatchSize floors the adaptive size so heavy throttling degrades
	// to small batches, never to per-row dispatch.
	MinBatchSize = 16
	// batchRowsPerPage approximates how many value rows fit a page when
	// translating the governor's page quota into a row count, and
	// batchRowBytes is the same figure the other way round: what a scan is
	// charged per row it holds between batches.
	batchRowsPerPage = 64
	batchRowBytes    = page.Size / batchRowsPerPage
)

// BatchSize reports the target number of rows per batch. It is cheap and
// deliberately re-evaluated on every NextBatch call: the governor's soft
// limit can move mid-query, and the batch boundary is the executor's
// adaptation point.
func (c *Ctx) BatchSize() int {
	if c.ForceBatchSize > 0 {
		return c.ForceBatchSize
	}
	n := DefaultBatchSize
	if c.Task != nil {
		if soft := c.Task.SoftLimitPages(); soft > 0 {
			// Keep the transient batch footprint around a quarter of the
			// statement's soft limit so batching never becomes the reason
			// a squeezed operator overshoots.
			if m := soft * batchRowsPerPage / 4; m < n {
				n = m
			}
		}
	}
	return max(n, MinBatchSize)
}

// Batch is what one NextBatch call yields, in one of two forms.
//
// Row form is a list of rows (plus, from a WithRIDs table scan, their heap
// addresses), or, from a RIDsOnly index probe, heap addresses alone. Vector
// form is a window of one sealed column segment: one vector per column,
// decoded the first time it is asked for — a column nobody reads is never
// decoded — and a selection vector naming the window positions that are
// in the batch, in order. A vector is typed: an INT or DOUBLE column is an
// []int64 or []float64 with a NULL bitmap, and only strings and
// mixed-kind columns are boxed values. A TableScan over segments produces
// vector form, Filter narrows either form in place, EvalBatch and TestBatch
// read either form, HashGroupBy reads a column of it in place (colView),
// and everything else reaches rows through View or Rows, which turn a
// vector-form batch into rows for the selected positions only. They and
// EvalBatch are where a typed value is boxed into a val.Value slice.
//
// Lifetime, the one rule. The Batch container belongs to the caller of
// NextBatch, which recycles it from call to call. What it holds — the rows
// of a row-form batch as much as the vectors and selection of a vector-form
// one — is valid until the producer's next NextBatch or Close: a producer
// may write its next batch's rows over this one's (Project, HashGroupBy and
// an index probe do). A reader that keeps nothing past the call reads in
// place through View; a consumer that keeps rows takes them from Rows,
// which copies only what the producer marked as its scratch. A row
// returned by Rows is the consumer's for as long as it likes (the slice
// holding the rows is still the container's), and no row is ever written
// through by anybody but its producer.
type Batch struct {
	rows []Row
	// RIDs holds the heap addresses of an UPDATE's or DELETE's targets, in
	// one of the two shapes of a DML target-collection tree. Under a
	// WithRIDs table scan, and the Filter of the WHERE that carries them
	// upward, it is parallel to the rows: the heap address of each row read.
	// From a RIDsOnly index probe it is the whole batch, with no rows: the
	// places the index names, not yet read or checked (Len counts them).
	RIDs []table.RID

	// scratch marks row form whose rows' values their producer reuses at
	// its next NextBatch or Close: Rows copies them.
	scratch bool
	// boxed is where View boxes a vector-form batch: the container's own,
	// reused from batch to batch.
	boxed []val.Value

	vec *vectors // non-nil: vector form
	sel []int32  // vector form: the selected window positions, ascending
}

// vectors is the column payload of a vector-form batch: rows
// [from, from+n) of seg, a column at a time. The scan that owns it reuses
// the buffers from window to window.
type vectors struct {
	seg     *colseg.Segment
	from, n int
	cols    []vector // per table column
	decoded bool     // some column of this window was decoded
}

// vector is one column of a window, in the form its chunk's value kind
// gives it: an Ints chunk decodes into ints and a Doubles chunk into flts,
// each with the NULL bitmap nulls; any other chunk (strings, mixed kinds)
// into boxed vals. The buffers are kept from window to window and grow only
// for a longer window; up to one batch, they are kept from execution to
// execution too (release).
type vector struct {
	kind  colseg.ValueKind
	ready bool // decoded for the current window
	ints  []int64
	flts  []float64
	nulls []uint64 // bit p set: window position p is NULL
	vals  []val.Value
}

// window points v at rows [from, from+n) of seg, nothing decoded yet.
func (v *vectors) window(seg *colseg.Segment, from, n int) {
	v.seg, v.from, v.n, v.decoded = seg, from, n, false
	if len(v.cols) != len(seg.Cols) {
		v.cols = make([]vector, len(seg.Cols))
	}
	for i := range v.cols {
		v.cols[i].ready = false
	}
}

// col returns column i of the window, indexed by window position.
func (v *vectors) col(i int) *vector {
	c := &v.cols[i]
	if !c.ready {
		ch := &v.seg.Cols[i]
		c.kind, c.ready = ch.VKind, true
		switch c.kind {
		case colseg.Ints:
			c.ints, c.nulls = resize(c.ints, v.n), resize(c.nulls, (v.n+63)/64)
			ch.DecodeInts(c.ints, c.nulls, v.from, v.n)
		case colseg.Doubles:
			c.flts, c.nulls = resize(c.flts, v.n), resize(c.nulls, (v.n+63)/64)
			ch.DecodeDoubles(c.flts, c.nulls, v.from, v.n)
		default:
			c.vals = resize(c.vals, v.n)
			ch.DecodeRange(c.vals, v.from, v.n)
		}
		v.decoded = v.decoded || v.n > 0
	}
	return c
}

// resize returns s with length n, reallocating only when it is too short.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// retain empties s for the next execution of its operator: every element
// is zeroed, so nothing s referred to stays reachable through it, and its
// capacity is kept if that is at most limit elements, else let go.
func retain[T any](s []T, limit int) []T {
	if cap(s) > limit {
		return nil
	}
	clear(s[:cap(s)])
	return s[:0]
}

// release lets go of what the window refers to outside its scan — the
// segment, every boxed value — and keeps the buffers of at most one batch
// for the scan's next execution.
func (v *vectors) release() {
	v.seg, v.from, v.n, v.decoded = nil, 0, 0, false
	for i := range v.cols {
		c := &v.cols[i]
		c.ready = false
		c.ints = retain(c.ints, DefaultBatchSize)
		c.flts = retain(c.flts, DefaultBatchSize)
		c.nulls = retain(c.nulls, DefaultBatchSize/64)
		c.vals = retain(c.vals, DefaultBatchSize)
	}
}

// isNull tests window position p of a NULL bitmap.
func isNull(nulls []uint64, p int32) bool { return nulls[p>>6]&(1<<(p&63)) != 0 }

// box writes the value at window position p to *dst, boxed. It stores
// through a pointer instead of returning the Value so that a loop boxing
// one value at a time builds it where it is used — a key slot, a local
// handed to an aggregate — with no temporary to copy.
func (c *vector) box(p int32, dst *val.Value) {
	switch {
	case c.kind == colseg.Mixed:
		*dst = c.vals[p]
	case isNull(c.nulls, p):
		*dst = val.Null
	case c.kind == colseg.Ints:
		*dst = val.Value{Kind: val.KInt, I: c.ints[p]}
	default:
		*dst = val.Value{Kind: val.KDouble, F: c.flts[p]}
	}
}

// compare appends, for each position of sel, the verdict of the value there
// against the non-NULL k: verdict[0], [1] or [2] as it is below, at or above
// k, and Unknown at a NULL. A numeric vector against a numeric constant is
// one loop over sel — exact int64 order against an INT, float order (as
// val.Compare has it) otherwise.
func (c *vector) compare(k val.Value, verdict *[3]Bool3, sel []int32, dst []Bool3) []Bool3 {
	switch {
	case c.kind == colseg.Ints && k.Kind == val.KInt:
		return compareTyped(c.ints, k.I, c.nulls, verdict, sel, dst)
	case c.kind == colseg.Ints && k.Kind == val.KDouble:
		return compareTyped(c.ints, k.F, c.nulls, verdict, sel, dst)
	case c.kind == colseg.Doubles && (k.Kind == val.KInt || k.Kind == val.KDouble):
		return compareTyped(c.flts, k.AsFloat(), c.nulls, verdict, sel, dst)
	}
	var v val.Value
	for _, p := range sel {
		c.box(p, &v)
		if v.IsNull() {
			dst = append(dst, Unknown)
			continue
		}
		dst = append(dst, verdict[val.Compare(v, k)+1])
	}
	return dst
}

// compareTyped is compare's loop over a typed vector xs, each value taken
// as a K.
func compareTyped[T, K int64 | float64](xs []T, k K, nulls []uint64, verdict *[3]Bool3, sel []int32, dst []Bool3) []Bool3 {
	for _, p := range sel {
		d := Unknown
		if !isNull(nulls, p) {
			switch x := K(xs[p]); {
			case x < k:
				d = verdict[0]
			case x > k:
				d = verdict[2]
			default:
				d = verdict[1]
			}
		}
		dst = append(dst, d)
	}
	return dst
}

// A colView reads one column of a vector-form batch where it lies: row r
// of the batch is window position pos[r] of the column's vector col.
type colView struct {
	col *vector
	pos []int32
}

// colView returns column idx of a vector-form batch, decoded, for reading
// in place; ok is false for a row-form batch or a column the window does
// not have. The view stays readable until the producer's next NextBatch or
// Close — including after Rows has turned the batch into rows.
func (b *Batch) colView(idx int) (view colView, ok bool) {
	v := b.vec
	if v == nil || idx < 0 || idx >= len(v.cols) {
		return colView{}, false
	}
	return colView{v.col(idx), b.sel}, true
}

// box writes the value of row r of the batch the view was taken of to *dst.
func (c colView) box(r int, dst *val.Value) { c.col.box(c.pos[r], dst) }

// Reset empties the batch into row form, keeping its capacity.
func (b *Batch) Reset() {
	b.rows, b.RIDs, b.sel, b.vec, b.scratch = b.rows[:0], b.RIDs[:0], b.sel[:0], nil, false
}

// release empties the batch for its owner's next execution: like Reset,
// but the containers keep at most one batch of capacity, and the row list
// is zeroed, so no row stays reachable through it.
func (b *Batch) release() {
	b.rows = retain(b.rows, DefaultBatchSize)
	b.RIDs = retain(b.RIDs, DefaultBatchSize)
	b.sel = retain(b.sel, DefaultBatchSize)
	b.boxed = retain(b.boxed, DefaultBatchSize)
	b.vec, b.scratch = nil, false
}

// takeRows makes b the rows of in, without RIDs, if in is in row form and
// every row of it is exactly width values wide, and reports whether it did.
// The rows are shared, not copied, and stay their producer's: b is scratch
// if in was.
func (b *Batch) takeRows(in *Batch, width int) bool {
	if in.vec != nil {
		return false
	}
	for _, r := range in.rows {
		if len(r) != width {
			return false
		}
	}
	b.Reset()
	b.rows = append(b.rows, in.rows...)
	b.scratch = in.scratch
	return true
}

// Add appends one row.
func (b *Batch) Add(r Row) { b.rows = append(b.rows, r) }

// lend marks the rows of b as its producer's scratch (see carve).
func (b *Batch) lend() { b.scratch = true }

// carve makes b, emptied, the n rows of flat, each w values wide, and
// marks them its producer's scratch: the producer keeps flat and fills it
// again for its next batch.
func (b *Batch) carve(flat []val.Value, n, w int) {
	b.Reset()
	b.rows = slices.Grow(b.rows, n)
	for r := 0; r < n; r++ {
		b.rows = append(b.rows, flat[r*w:(r+1)*w:(r+1)*w])
	}
	b.lend()
}

// setVectors makes b the whole of window v, in vector form.
func (b *Batch) setVectors(v *vectors) {
	b.Reset()
	b.vec = v
	b.sel = resize(b.sel, v.n)
	for i := range b.sel {
		b.sel[i] = int32(i)
	}
}

// Len reports the number of rows (of RIDs, in a batch of RIDs alone).
func (b *Batch) Len() int {
	if b.vec != nil {
		return len(b.sel)
	}
	return max(len(b.rows), len(b.RIDs))
}

// View is the accessor for a reader that keeps nothing past the call: the
// batch's rows, in row form, as they lie. A vector-form batch is boxed into
// rows first, in the container's own buffer, and is then a row-form batch
// of scratch rows. What View returns is valid until the producer's next
// NextBatch or Close; a consumer that keeps a row goes through Rows.
func (b *Batch) View() []Row {
	if v := b.vec; v != nil {
		b.boxed = resize(b.boxed, len(b.sel)*len(v.cols))
		b.box(b.boxed)
		b.lend()
	}
	return b.rows
}

// Rows is the accessor for a consumer that keeps rows: the batch's rows, in
// row form, each the consumer's to keep. Rows its producer marked as
// scratch, and the rows of a vector-form batch, are copied into one fresh
// slab first; rows that are not are returned as they are.
func (b *Batch) Rows() []Row {
	if v := b.vec; v != nil {
		b.box(make([]val.Value, len(b.sel)*len(v.cols)))
	} else if b.scratch {
		n := 0
		for _, r := range b.rows {
			n += len(r)
		}
		flat := make([]val.Value, 0, n)
		for i, r := range b.rows {
			flat = append(flat, r...)
			b.rows[i] = flat[len(flat)-len(r) : len(flat) : len(flat)]
		}
		b.scratch = false
	}
	return b.rows
}

// box turns a vector-form batch into row form: rows of flat, which holds
// every column of every selected position.
func (b *Batch) box(flat []val.Value) {
	v := b.vec
	w := len(v.cols)
	for c := 0; c < w; c++ {
		col := v.col(c)
		for i, p := range b.sel {
			col.box(p, &flat[i*w+c])
		}
	}
	b.rows = b.rows[:0]
	for i := range b.sel {
		b.rows = append(b.rows, flat[i*w:(i+1)*w:(i+1)*w])
	}
	b.vec, b.sel, b.scratch = nil, b.sel[:0], false
}

// truncate drops every row after the first n.
func (b *Batch) truncate(n int) {
	if b.vec != nil {
		b.sel = b.sel[:n]
		return
	}
	b.rows = b.rows[:n]
	if len(b.RIDs) > n {
		b.RIDs = b.RIDs[:n]
	}
}

// keep narrows the batch, in place, to the rows whose verdict is True.
func (b *Batch) keep(verdicts []Bool3) {
	n := 0
	if b.vec != nil {
		for i, v := range verdicts {
			if v == True {
				b.sel[n] = b.sel[i]
				n++
			}
		}
		b.sel = b.sel[:n]
		return
	}
	rids := len(b.RIDs) > 0
	for i, v := range verdicts {
		if v == True {
			b.rows[n] = b.rows[i]
			if rids {
				b.RIDs[n] = b.RIDs[i]
			}
			n++
		}
	}
	b.truncate(n)
}

// copyChunk moves up to ctx.BatchSize() rows from a materialized slice into
// out, advancing *pos. It is the shared emit path of every operator that
// buffers its whole result (sort output, group-by output, recursive unions,
// parallel pipelines, replayed CTEs).
func copyChunk(ctx *Ctx, out *Batch, rows []Row, pos *int) {
	out.Reset()
	n := ctx.BatchSize()
	if rem := len(rows) - *pos; rem < n {
		n = rem
	}
	if n <= 0 {
		return
	}
	out.rows = append(out.rows, rows[*pos:*pos+n]...)
	*pos += n
}

// rowQueue holds output rows a join has produced and not yet emitted. The
// consumed prefix is an index, not a re-slice, so pops are O(1) and the
// backing array is reused once the queue drains.
type rowQueue struct {
	rows []Row
	pos  int
}

func (q *rowQueue) push(r Row) { q.rows = append(q.rows, r) }

// popInto moves queued rows into out until it holds target rows, and
// truncates the queue once it is fully consumed.
func (q *rowQueue) popInto(out *Batch, target int) {
	if n := min(target-out.Len(), len(q.rows)-q.pos); n > 0 {
		out.rows = append(out.rows, q.rows[q.pos:q.pos+n]...)
		q.pos += n
	}
	if q.pos >= len(q.rows) {
		q.rows, q.pos = q.rows[:0], 0
	}
}

// --- Vectored expression evaluation ---------------------------------------

// EvalBatch evaluates e over every row of in (either form), appending one
// result per row to dst and returning the extended slice. Col and the
// constants (Const, Param) — the overwhelmingly common leaves — are
// special-cased: over row form a projection of plain columns costs a bulk
// copy instead of an interface call per row, over vector form it boxes the
// selected values of the one column's vector and leaves the others
// undecoded. Any other expression needs rows, and reads them through
// in.View.
func EvalBatch(e Expr, in *Batch, dst []val.Value) ([]val.Value, error) {
	switch x := e.(type) {
	case Col:
		if col, ok := in.colView(x.Idx); ok {
			n := len(dst)
			dst = append(dst, make([]val.Value, len(col.pos))...)
			for i := range col.pos {
				col.box(i, &dst[n+i])
			}
			return dst, nil
		}
		for _, r := range in.View() {
			if x.Idx < 0 || x.Idx >= len(r) {
				v, err := x.Eval(r) // produces the standard range error
				if err != nil {
					return dst, err
				}
				dst = append(dst, v)
				continue
			}
			dst = append(dst, r[x.Idx])
		}
		return dst, nil
	}
	if v, ok := constant(e); ok {
		for i := in.Len(); i > 0; i-- {
			dst = append(dst, v)
		}
		return dst, nil
	}
	for _, r := range in.View() {
		v, err := e.Eval(r)
		if err != nil {
			return dst, err
		}
		dst = append(dst, v)
	}
	return dst, nil
}

// constant reports the value of an expression that is the same for every
// row: a literal, or a parameter of the running plan.
func constant(e Expr) (val.Value, bool) {
	switch x := e.(type) {
	case Const:
		return x.V, true
	case Param:
		return *x.V, true
	}
	return val.Null, false
}

// TestBatch evaluates p over every row of in (either form), appending one
// verdict per row to dst. The dominant filter shape — a column compared
// against a constant — is vectorized: one comparison loop instead of three
// interface dispatches (Pred.Test, L.Eval, R.Eval) per row, and over vector
// form it decodes that column alone and compares its typed values unboxed.
func TestBatch(p Pred, in *Batch, dst []Bool3) ([]Bool3, error) {
	if c, ok := p.(Cmp); ok {
		if col, okL := c.L.(Col); okL {
			if k, okR := constant(c.R); okR {
				if out, handled, err := testCmpColConst(c, col.Idx, k, in, dst); handled {
					return out, err
				}
			}
		}
	}
	for _, r := range in.View() {
		v, err := p.Test(r)
		if err != nil {
			return dst, err
		}
		dst = append(dst, v)
	}
	return dst, nil
}

// testCmpColConst is TestBatch's fast path for col <op> const. It declines
// what Cmp.Test says differently — a NULL constant, an unknown operator, a
// column a vector-form batch does not have — and rows too short for the
// column fall back to Cmp.Test one by one, so results and error text stay
// identical.
func testCmpColConst(c Cmp, idx int, k val.Value, in *Batch, dst []Bool3) ([]Bool3, bool, error) {
	var verdict [3]Bool3 // the verdict when the column is below, at, above k
	switch c.Op {
	case "=":
		verdict[1] = True
	case "<>":
		verdict[0], verdict[2] = True, True
	case "<":
		verdict[0] = True
	case "<=":
		verdict[0], verdict[1] = True, True
	case ">":
		verdict[2] = True
	case ">=":
		verdict[1], verdict[2] = True, True
	default:
		return dst, false, nil
	}
	if idx < 0 || k.Kind == val.KNull {
		return dst, false, nil
	}
	if v := in.vec; v != nil {
		if idx >= len(v.cols) {
			return dst, false, nil
		}
		return v.col(idx).compare(k, &verdict, in.sel, dst), true, nil
	}
	for _, r := range in.rows {
		if idx >= len(r) {
			v, err := c.Test(r)
			if err != nil {
				return dst, true, err
			}
			dst = append(dst, v)
			continue
		}
		v := r[idx]
		switch {
		case v.Kind == val.KNull:
			dst = append(dst, Unknown)
		case v.Kind == val.KInt && k.Kind == val.KInt:
			dst = append(dst, verdict[cmp.Compare(v.I, k.I)+1])
		default:
			dst = append(dst, verdict[val.Compare(v, k)+1])
		}
	}
	return dst, true, nil
}

// Drain runs an operator to completion, returning all rows.
func Drain(ctx *Ctx, op Operator) ([]Row, error) {
	var out []Row
	err := Stream(ctx, op, func(b *Batch) error {
		out = append(out, b.Rows()...)
		return nil
	})
	return out, err
}

// DrainRIDs runs a DML target-collection tree to completion and appends
// to dst[:0], a slice the caller keeps from one statement to the next, the
// heap addresses it produced: of every row a WithRIDs table scan read and
// the Filter of the WHERE (if any) passed, or every RID a RIDsOnly index
// probe found, unread. Either way each is a candidate whose claim reads it
// again (table.UpdateChecked); for a probe's, that read is the first.
func DrainRIDs(ctx *Ctx, op Operator, dst []table.RID) ([]table.RID, error) {
	out := dst[:0]
	err := Stream(ctx, op, func(b *Batch) error {
		out = append(out, b.RIDs...)
		return nil
	})
	return out, err
}

// Stream runs an operator to completion, handing each non-empty batch it
// produces to each, in order; an error from each ends the run with it. The
// batch is the producer's again once each returns (see Batch). If Open
// fails partway through a tree, Close still runs so operators release
// their buffer-pool pins and temp pages. The batch is ctx.Out, which a
// drain nested in this one (an operator that drains its inputs) does not
// share, and it keeps at most one batch of capacity afterwards.
func Stream(ctx *Ctx, op Operator, each func(*Batch) error) error {
	b := ctx.Out
	if b == nil {
		b = new(Batch)
	}
	ctx.Out = nil
	defer func() {
		b.release()
		ctx.Out = b
	}()
	if err := op.Open(ctx); err != nil {
		op.Close(ctx)
		return err
	}
	defer op.Close(ctx)
	return pull(ctx, op, b, func(b *Batch) error {
		ctx.Did.Batches++
		return each(b)
	})
}

// pull feeds the rest of an open operator's output to fn a batch at a time,
// polling for interruption between batches.
func pull(ctx *Ctx, op Operator, b *Batch, fn func(*Batch) error) error {
	for {
		if err := ctx.Interrupted(); err != nil {
			return err
		}
		if err := op.NextBatch(ctx, b); err != nil {
			return err
		}
		if b.Len() == 0 {
			return nil
		}
		if err := fn(b); err != nil {
			return err
		}
	}
}
