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
// Row form is a list of rows (plus, from a WithRIDs scan, their heap
// addresses). Vector form is a window of one sealed column segment: one
// vector per column, decoded the first time it is asked for — a column
// nobody reads is never decoded — and a selection vector naming the window
// positions that are in the batch, in order. A vector is typed: an INT or
// DOUBLE column is an []int64 or []float64 with a NULL bitmap, and only
// strings and mixed-kind columns are boxed values. A TableScan over
// segments produces vector form, Filter narrows either form in place,
// EvalBatch and TestBatch read either form, HashGroupBy reads a column of
// it in place (colView), and everything else reaches rows through Rows,
// which turns a vector-form batch into fresh rows for the selected
// positions only. Rows and EvalBatch are where a typed value is boxed into
// a val.Value slice.
//
// Lifetime, the one rule. The Batch container belongs to the caller of
// NextBatch, which recycles it from call to call. Rows are immutable and
// garbage-collected: a consumer may keep a Row for as long as it likes (but
// not the slice Rows returned, which is the container's). A vector-form
// batch and everything reachable from it — vectors, selection — is the
// producer's scratch and is valid only until the producer's next NextBatch
// or Close; whoever keeps anything of it goes through Rows first.
type Batch struct {
	rows []Row
	// RIDs, when non-empty, is parallel to the rows: the heap address of
	// each. Only scans built WithRIDs fill it and only Filter carries it
	// upward — the shape of a DML target-collection tree.
	RIDs []table.RID

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
// for a longer window.
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
	b.rows, b.RIDs, b.sel, b.vec = b.rows[:0], b.RIDs[:0], b.sel[:0], nil
}

// Add appends one row.
func (b *Batch) Add(r Row) { b.rows = append(b.rows, r) }

// reserve makes room for n more rows, so that the next n Adds do not grow
// the row list.
func (b *Batch) reserve(n int) { b.rows = slices.Grow(b.rows, n) }

// setVectors makes b the whole of window v, in vector form.
func (b *Batch) setVectors(v *vectors) {
	b.Reset()
	b.vec = v
	b.sel = resize(b.sel, v.n)
	for i := range b.sel {
		b.sel[i] = int32(i)
	}
}

// Len reports the number of rows.
func (b *Batch) Len() int {
	if b.vec != nil {
		return len(b.sel)
	}
	return len(b.rows)
}

// Rows is the materialising accessor: the batch's rows, in row form. A
// vector-form batch is turned into row form first — fresh rows, for the
// selected positions only, every column decoded — so what is returned obeys
// the row-form rule whatever the producer was.
func (b *Batch) Rows() []Row {
	if v := b.vec; v != nil {
		w := len(v.cols)
		flat := make([]val.Value, len(b.sel)*w)
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
		b.vec, b.sel = nil, b.sel[:0]
	}
	return b.rows
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

// noteBatch records one produced batch in the engine telemetry (wired by
// core; nil in bare operator rigs).
func (c *Ctx) noteBatch(n int) {
	if c.Batches != nil {
		c.Batches.Inc()
	}
	if c.BatchRows != nil {
		c.BatchRows.Observe(int64(n))
	}
	if c.Span != nil {
		c.Span.AddBatches(1)
	}
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
// undecoded. Any other expression needs rows, and gets them from in.Rows.
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
		for _, r := range in.Rows() {
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
	for _, r := range in.Rows() {
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
	for _, r := range in.Rows() {
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
	err := drainEach(ctx, op, func(b *Batch) { out = append(out, b.Rows()...) })
	return out, err
}

// DrainRIDs runs a DML target-collection tree (a WithRIDs scan, optionally
// under a Filter) to completion, returning the heap address of every row
// it produced.
func DrainRIDs(ctx *Ctx, op Operator) ([]table.RID, error) {
	var out []table.RID
	err := drainEach(ctx, op, func(b *Batch) { out = append(out, b.RIDs...) })
	return out, err
}

// drainEach feeds every batch op produces to each. If Open fails partway
// through a tree, Close still runs so operators release their buffer-pool
// pins and temp pages. The batch is ctx.Out, which a drain nested in this
// one (an operator that drains its inputs) does not share.
func drainEach(ctx *Ctx, op Operator, each func(*Batch)) error {
	b := ctx.Out
	if b == nil {
		b = new(Batch)
	}
	ctx.Out = nil
	defer func() {
		b.Reset()
		ctx.Out = b
	}()
	if err := op.Open(ctx); err != nil {
		op.Close(ctx)
		return err
	}
	defer op.Close(ctx)
	return pull(ctx, op, b, func(b *Batch) error {
		ctx.noteBatch(b.Len())
		each(b)
		return nil
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
