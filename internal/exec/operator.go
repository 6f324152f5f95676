package exec

import (
	"context"
	"slices"

	"anywheredb/internal/buffer"
	"anywheredb/internal/flightrec"
	"anywheredb/internal/heap"
	"anywheredb/internal/mem"
	"anywheredb/internal/mvcc"
	"anywheredb/internal/page"
	"anywheredb/internal/store"
	"anywheredb/internal/telemetry"
	"anywheredb/internal/val"
	"anywheredb/internal/vclock"
)

// Ctx carries everything an operator tree needs at run time.
type Ctx struct {
	Pool *buffer.Pool
	St   *store.Store
	Clk  *vclock.Clock
	Task *mem.Task // memory governor task; may be nil
	// Snap, when set, makes every scan read the row versions visible to
	// the snapshot; nil reads the newest row contents. The executor never
	// calls the lock manager.
	Snap *mvcc.Snapshot
	// Context carries the statement's cancellation/deadline signal; nil
	// means uncancellable. Operators poll Interrupted at batch boundaries.
	Context context.Context
	// Params are the statement's positional parameters (1-based in SQL,
	// 0-based here).
	Params []val.Value
	// CPURowCost is a CPU proxy: virtual µs charged to the clock per row
	// processed, so "actual cost" measurements include CPU. 0 disables it.
	CPURowCost int64
	// ForceBatchSize pins BatchSize to a fixed value (tests, benchmarks,
	// the differential row-path harness). 0 = adaptive.
	ForceBatchSize int
	// Batches / BatchRows are optional engine telemetry for batches
	// delivered at the plan root (wired by core; nil in bare rigs).
	Batches   *telemetry.Counter
	BatchRows *telemetry.Histogram
	// Span is the statement's flight-recorder span (wired by core; nil in
	// bare rigs or with the recorder disabled). Operators charge produced
	// batches and spilled bytes to it.
	Span *flightrec.Span
	// ColSegSkipped / ColSegDecodeRows are optional engine telemetry for
	// the columnar scan path: segments skipped via zone maps and rows
	// decoded from segments (wired by core; nil in bare rigs).
	ColSegSkipped    *telemetry.Counter
	ColSegDecodeRows *telemetry.Counter
	// ScanObs, when set, receives per-table scan feedback (table name and
	// rows produced) — the reorganizer's signal that a table is scan-heavy.
	ScanObs func(tableName string, rows int64)
	// Out, when set, is the batch Drain reads the plan's output into, kept
	// by whoever owns the Ctx from statement to statement; nil, a drain
	// brings its own.
	Out *Batch
}

// Interrupted reports the statement's cancellation state: context.Canceled
// after a cancel, context.DeadlineExceeded past an expired statement
// timeout, nil otherwise. Long-running operators poll it at every batch
// boundary (and every few hundred rows inside materializing loops), so a
// cancelled statement stops within roughly one batch and unwinds through
// Close, releasing all of its buffer-pool pins.
func (c *Ctx) Interrupted() error {
	if c.Context == nil {
		return nil
	}
	return c.Context.Err()
}

// interruptEvery is how many rows a materializing loop may process between
// Interrupted polls.
const interruptEvery = 256

// ChargeRows adds the CPU proxy cost of n rows to the virtual clock.
func (c *Ctx) ChargeRows(n int) {
	if c.CPURowCost > 0 && c.Clk != nil && n > 0 {
		c.Clk.Advance(int64(n) * c.CPURowCost)
	}
}

// noteSpill records a heap its operator has finished writing and given
// back to the buffer pool as bytes spilled by the statement.
func (c *Ctx) noteSpill(h *heap.Heap) {
	if c.Span != nil {
		c.Span.AddSpill(int64(h.Pages()) * page.Size)
	}
}

// Operator is a batch-at-a-time iterator (a vectored Volcano protocol).
// NextBatch resets out, then fills it with up to ctx.BatchSize() rows; an
// empty batch means end of input. What of a batch a consumer may keep, and
// for how long, is stated once, on Batch.
type Operator interface {
	Open(ctx *Ctx) error
	NextBatch(ctx *Ctx, out *Batch) error
	Close(ctx *Ctx) error
}

// --- Filter, Project, Limit ----------------------------------------------

// Observer receives execution feedback: rows matched out of rows tested.
// The optimizer wires observers that update the self-managing histograms
// (§3.2: evaluation of almost any predicate can update the histogram).
type Observer func(matched, tested float64)

// Filter passes rows satisfying the predicate, optionally reporting
// observed selectivity on Close. It narrows its input's batch in place —
// the selection vector of a vector-form batch, the row list of a row-form
// one — and copies nothing.
type Filter struct {
	Input Operator
	Pred  Pred
	Obs   Observer

	matched, tested float64
	verdicts        []Bool3
}

func (f *Filter) Open(ctx *Ctx) error {
	f.matched, f.tested = 0, 0
	return f.Input.Open(ctx)
}

func (f *Filter) NextBatch(ctx *Ctx, out *Batch) error {
	// A selective filter may pull many input batches before one has a row
	// that passes: poll cancellation at each.
	for {
		if err := ctx.Interrupted(); err != nil {
			return err
		}
		if err := f.Input.NextBatch(ctx, out); err != nil {
			return err
		}
		if out.Len() == 0 {
			return nil
		}
		var err error
		if f.verdicts, err = TestBatch(f.Pred, out, slices.Grow(f.verdicts[:0], out.Len())); err != nil {
			return err
		}
		f.tested += float64(out.Len())
		out.keep(f.verdicts)
		if out.Len() > 0 {
			f.matched += float64(out.Len())
			return nil
		}
	}
}

func (f *Filter) Close(ctx *Ctx) error {
	if f.Obs != nil && f.tested > 0 {
		f.Obs(f.matched, f.tested)
	}
	return f.Input.Close(ctx)
}

// Project evaluates expressions over input rows, one expression across the
// whole batch at a time.
type Project struct {
	Input Operator
	Exprs []Expr

	in   Batch
	cols []val.Value // column-major scratch, len = exprs × batch rows
}

func (p *Project) Open(ctx *Ctx) error { return p.Input.Open(ctx) }

func (p *Project) NextBatch(ctx *Ctx, out *Batch) error {
	out.Reset()
	if err := p.Input.NextBatch(ctx, &p.in); err != nil {
		return err
	}
	n := p.in.Len()
	if n == 0 {
		return nil
	}
	p.cols = slices.Grow(p.cols[:0], len(p.Exprs)*n)
	for _, e := range p.Exprs {
		var err error
		p.cols, err = EvalBatch(e, &p.in, p.cols)
		if err != nil {
			return err
		}
	}
	// Transpose the column-major scratch into fresh output rows (rows must
	// stay valid after the scratch is recycled on the next call).
	w := len(p.Exprs)
	flat := make([]val.Value, w*n)
	for c := 0; c < w; c++ {
		col := p.cols[c*n : (c+1)*n]
		for r, v := range col {
			flat[r*w+c] = v
		}
	}
	out.reserve(n)
	for r := 0; r < n; r++ {
		out.Add(flat[r*w : (r+1)*w : (r+1)*w])
	}
	return nil
}

func (p *Project) Close(ctx *Ctx) error { return p.Input.Close(ctx) }

// Limit stops after N rows.
type Limit struct {
	Input Operator
	N     int64
	seen  int64
}

func (l *Limit) Open(ctx *Ctx) error {
	l.seen = 0
	return l.Input.Open(ctx)
}

func (l *Limit) NextBatch(ctx *Ctx, out *Batch) error {
	rem := l.N - l.seen
	if rem <= 0 {
		out.Reset()
		return nil
	}
	// Bound the child's batch to what the limit can still consume, so a
	// small LIMIT does not trigger a full default-size batch of upstream
	// work per call.
	saved := ctx.ForceBatchSize
	if int64(ctx.BatchSize()) > rem {
		ctx.ForceBatchSize = int(rem)
	}
	err := l.Input.NextBatch(ctx, out)
	ctx.ForceBatchSize = saved
	if err != nil {
		return err
	}
	if int64(out.Len()) > rem {
		out.truncate(int(rem))
	}
	l.seen += int64(out.Len())
	return nil
}

func (l *Limit) Close(ctx *Ctx) error { return l.Input.Close(ctx) }

// UnionAll concatenates inputs (columns must align).
type UnionAll struct {
	Inputs []Operator
	cur    int
}

func (u *UnionAll) Open(ctx *Ctx) error {
	u.cur = 0
	for _, in := range u.Inputs {
		if err := in.Open(ctx); err != nil {
			return err
		}
	}
	return nil
}

func (u *UnionAll) NextBatch(ctx *Ctx, out *Batch) error {
	for u.cur < len(u.Inputs) {
		if err := u.Inputs[u.cur].NextBatch(ctx, out); err != nil {
			return err
		}
		if out.Len() > 0 {
			return nil
		}
		u.cur++
	}
	out.Reset()
	return nil
}

func (u *UnionAll) Close(ctx *Ctx) error {
	var first error
	for _, in := range u.Inputs {
		if err := in.Close(ctx); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Values emits fixed rows (VALUES lists, SELECT without FROM).
type Values struct {
	Rows [][]Expr
	pos  int
}

func (v *Values) Open(ctx *Ctx) error { v.pos = 0; return nil }

func (v *Values) NextBatch(ctx *Ctx, out *Batch) error {
	out.Reset()
	target := ctx.BatchSize()
	for out.Len() < target && v.pos < len(v.Rows) {
		exprs := v.Rows[v.pos]
		v.pos++
		row := make(Row, len(exprs))
		var err error
		for i, e := range exprs {
			row[i], err = e.Eval(nil)
			if err != nil {
				return err
			}
		}
		out.Add(row)
	}
	return nil
}

func (v *Values) Close(ctx *Ctx) error { return nil }

// Materialized replays rows captured earlier (used by CTEs and subquery
// caches).
type Materialized struct {
	RowsData []Row
	pos      int
}

func (m *Materialized) Open(ctx *Ctx) error { m.pos = 0; return nil }

func (m *Materialized) NextBatch(ctx *Ctx, out *Batch) error {
	copyChunk(ctx, out, m.RowsData, &m.pos)
	return nil
}

func (m *Materialized) Close(ctx *Ctx) error { return nil }
