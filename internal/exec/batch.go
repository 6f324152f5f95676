package exec

import (
	"anywheredb/internal/table"
	"anywheredb/internal/val"
)

// Batch execution protocol. Operators exchange vectors of rows instead of
// one row per virtual call: the per-row costs of the Volcano protocol (an
// interface call, a ChargeRows, a pair of clock samples per operator level)
// are amortized to per-batch, which is what lets the executor run as fast
// as the hardware allows once the buffer pool stops serializing the hit
// path. The batch size is not a constant: it is re-derived from the memory
// governor's soft limit and the current worker target between batches, so
// the §4.4 mid-query adaptations (memory squeeze, worker reduction) take
// effect at the next batch boundary.

const (
	// DefaultBatchSize is the target rows per batch with no governor
	// pressure and a single worker.
	DefaultBatchSize = 1024
	// MinBatchSize floors the adaptive size so heavy throttling degrades
	// to small batches, never to per-row dispatch.
	MinBatchSize = 16
	// batchRowsPerPage approximates how many value rows fit a page when
	// translating the governor's page quota into a row count.
	batchRowsPerPage = 64
)

// BatchSize reports the target number of rows per batch. It is cheap and
// deliberately re-evaluated on every NextBatch call: the governor's soft
// limit and the worker target can both move mid-query, and the batch
// boundary is the executor's adaptation point.
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
	if w := c.Workers; w > 1 {
		// Smaller batches load-balance first-come-first-served workers.
		n /= w
	}
	if n < MinBatchSize {
		n = MinBatchSize
	}
	return n
}

// Batch is a reusable vector of rows. The container (the Rows slice) is
// owned by the caller of NextBatch and recycled between calls; the Row
// values inside it are immutable and remain valid until the producing
// operator is closed, so consumers may retain row headers but must not
// retain the Rows slice itself.
type Batch struct {
	Rows []Row
	// RIDs, when non-empty, is parallel to Rows: the heap address of each
	// row. Only scans built WithRIDs fill it and only Filter carries it
	// upward — the shape of a DML target-collection tree.
	RIDs []table.RID
}

// Reset empties the batch, keeping its capacity.
func (b *Batch) Reset() { b.Rows, b.RIDs = b.Rows[:0], b.RIDs[:0] }

// Add appends one row.
func (b *Batch) Add(r Row) { b.Rows = append(b.Rows, r) }

// Len reports the number of rows.
func (b *Batch) Len() int { return len(b.Rows) }

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
// buffers its whole result (scans over materialized pages, sort output,
// group-by output, recursive unions, parallel pipelines).
func copyChunk(ctx *Ctx, out *Batch, rows []Row, pos *int) {
	out.Reset()
	n := ctx.BatchSize()
	if rem := len(rows) - *pos; rem < n {
		n = rem
	}
	if n <= 0 {
		return
	}
	out.Rows = append(out.Rows, rows[*pos:*pos+n]...)
	*pos += n
}

// --- Vectored expression evaluation ---------------------------------------

// EvalBatch evaluates e over every row of in, appending results to dst and
// returning the extended slice. Col and Const — the overwhelmingly common
// leaves — are special-cased so a projection of plain columns costs a bulk
// copy instead of an interface call per row.
func EvalBatch(e Expr, in []Row, dst []val.Value) ([]val.Value, error) {
	switch x := e.(type) {
	case Col:
		for _, r := range in {
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
	case Const:
		for range in {
			dst = append(dst, x.V)
		}
		return dst, nil
	}
	for _, r := range in {
		v, err := e.Eval(r)
		if err != nil {
			return dst, err
		}
		dst = append(dst, v)
	}
	return dst, nil
}

// TestBatch evaluates p over every row of in, appending verdicts to dst.
// The dominant filter shape — a column compared against a constant — is
// vectorized: one comparison loop instead of three interface dispatches
// (Pred.Test, L.Eval, R.Eval) per row.
func TestBatch(p Pred, in []Row, dst []Bool3) ([]Bool3, error) {
	if c, ok := p.(Cmp); ok {
		if col, okL := c.L.(Col); okL {
			if k, okR := c.R.(Const); okR {
				if out, handled, err := testCmpColConst(c, col.Idx, k.V, in, dst); handled {
					return out, err
				}
			}
		}
	}
	for _, r := range in {
		v, err := p.Test(r)
		if err != nil {
			return dst, err
		}
		dst = append(dst, v)
	}
	return dst, nil
}

// testCmpColConst is TestBatch's fast path for col <op> const. Rows that
// cannot take it (column index out of range) fall back to Cmp.Test so the
// error text stays identical; unknown operators decline entirely.
func testCmpColConst(c Cmp, idx int, k val.Value, in []Row, dst []Bool3) ([]Bool3, bool, error) {
	switch c.Op {
	case "=", "<>", "<", "<=", ">", ">=":
	default:
		return dst, false, nil
	}
	for _, r := range in {
		if idx < 0 || idx >= len(r) || k.Kind == val.KNull {
			v, err := c.Test(r)
			if err != nil {
				return dst, true, err
			}
			dst = append(dst, v)
			continue
		}
		v := r[idx]
		if v.Kind == val.KNull {
			dst = append(dst, Unknown)
			continue
		}
		var n int
		if v.Kind == val.KInt && k.Kind == val.KInt {
			switch {
			case v.I < k.I:
				n = -1
			case v.I > k.I:
				n = 1
			}
		} else {
			n = val.Compare(v, k)
		}
		var b bool
		switch c.Op {
		case "=":
			b = n == 0
		case "<>":
			b = n != 0
		case "<":
			b = n < 0
		case "<=":
			b = n <= 0
		case ">":
			b = n > 0
		case ">=":
			b = n >= 0
		}
		if b {
			dst = append(dst, True)
		} else {
			dst = append(dst, False)
		}
	}
	return dst, true, nil
}

// Drain runs an operator to completion, returning all rows.
func Drain(ctx *Ctx, op Operator) ([]Row, error) {
	var out []Row
	err := drainEach(ctx, op, func(b *Batch) { out = append(out, b.Rows...) })
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
// pins and temp pages.
func drainEach(ctx *Ctx, op Operator, each func(*Batch)) error {
	if err := op.Open(ctx); err != nil {
		op.Close(ctx)
		return err
	}
	defer op.Close(ctx)
	var b Batch
	return pull(ctx, op, &b, func(b *Batch) error {
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
