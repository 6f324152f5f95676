package exec

import (
	"context"

	"anywheredb/internal/buffer"
	"anywheredb/internal/flightrec"
	"anywheredb/internal/heap"
	"anywheredb/internal/mem"
	"anywheredb/internal/mvcc"
	"anywheredb/internal/page"
	"anywheredb/internal/store"
	"anywheredb/internal/table"
	"anywheredb/internal/telemetry"
	"anywheredb/internal/txn"
	"anywheredb/internal/val"
	"anywheredb/internal/vclock"
)

// Ctx carries everything an operator tree needs at run time.
type Ctx struct {
	Pool *buffer.Pool
	St   *store.Store
	Clk  *vclock.Clock
	Task *mem.Task // memory governor task; may be nil
	Tx   *txn.Txn  // may be nil
	// Snap, when set, makes every scan read the row versions visible to
	// the snapshot with zero lock-manager calls. When Snap is nil but Tx
	// is set, scans instead take a table-level Shared lock (the classic
	// locking-read path, kept as the 2PL baseline).
	Snap *mvcc.Snapshot
	// Context carries the statement's cancellation/deadline signal; nil
	// means uncancellable. Operators poll Interrupted at batch boundaries.
	Context context.Context
	// Params are the statement's positional parameters (1-based in SQL,
	// 0-based here).
	Params []val.Value
	// Workers is the target degree of intra-query parallelism; operators
	// re-read it between phases, so it can be changed mid-query (§4.4).
	Workers int
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
// empty batch means end of input. The Batch container belongs to the
// caller and is recycled between calls, while the Row values placed in it
// stay valid until Close.
type Operator interface {
	Open(ctx *Ctx) error
	NextBatch(ctx *Ctx, out *Batch) error
	Close(ctx *Ctx) error
}

// --- Scan -----------------------------------------------------------------

// TableScan reads a table in chain order. When the table carries sealed
// column segments (internal/colseg) the scan decodes them directly into
// batch rows — bulk per-encoding loops instead of a per-row varint parse —
// and merges the heap delta tail behind them; zone maps let it skip whole
// segments that cannot satisfy a pushed-down col<op>const conjunct. The
// heap path remains the fallback whenever the table is row-only or the
// caller needs RIDs.
type TableScan struct {
	Table *table.Table

	// ZoneCol/ZoneOp/ZoneConst are an optional zone-map predicate hint:
	// the optimizer copies one sargable local conjunct (col <op> const)
	// here so segments whose min/max ranges cannot match are skipped
	// before decode. The exact Filter above the scan is unchanged — the
	// hint only proves non-matches, never matches. ZoneCol < 0 disables.
	ZoneCol   int
	ZoneOp    string
	ZoneConst val.Value
	// NoColumnar forces the heap path even on a columnar table (DML target
	// collection needs RIDs; differential harnesses need the baseline).
	NoColumnar bool
	// WithRIDs fills Batch.RIDs beside every batch of rows (DML target
	// collection). Columnar rows carry no heap address, so it requires
	// NoColumnar.
	WithRIDs bool

	rows []Row // materialized page batch
	pos  int
	rids []table.RID // parallel to rows, WithRIDs only
	flat []val.Value // columnar decode buffer backing rows' storage

	segsTotal   int
	segsSkipped int
}

func (s *TableScan) Open(ctx *Ctx) error {
	s.pos = 0
	s.rows = s.rows[:0]
	s.rids = s.rids[:0]
	s.segsTotal, s.segsSkipped = 0, 0
	if err := lockForRead(ctx, s.Table); err != nil {
		return err
	}
	// Where the heap part of the scan starts: at the chain head, or behind
	// the sealed segments once they are decoded. Under a snapshot the
	// segments are usable only while the table has no version chains:
	// vacuum cannot reclaim an entry some live snapshot still needs, so an
	// empty store (checked after grabbing cs — writers invalidate before
	// they chain) proves every sealed row is visible to every live snapshot.
	// cs is immutable, so a concurrent invalidation cannot disturb a scan
	// already holding it.
	start := s.Table.FirstPage()
	if cs := s.Table.Columnar(); cs != nil && !s.NoColumnar && (ctx.Snap == nil || s.Table.VersionsEmpty()) {
		if err := s.decodeSegments(ctx, cs); err != nil {
			return err
		}
		start = cs.DeltaStart
	}
	// The heap part stays version-aware even behind segments: a writer may
	// begin chaining delta-tail rows mid-scan though the store was empty
	// above.
	n := 0
	err := s.Table.ScanFrom(start, ctx.Snap, func(rid table.RID, row Row) (bool, error) {
		if n++; n%interruptEvery == 0 {
			if err := ctx.Interrupted(); err != nil {
				return false, err
			}
		}
		s.rows = append(s.rows, row)
		if s.WithRIDs {
			s.rids = append(s.rids, rid)
		}
		return true, nil
	})
	if err == nil && ctx.ScanObs != nil {
		ctx.ScanObs(s.Table.Name, int64(len(s.rows)))
	}
	return err
}

// decodeSegments materializes the rows of cs's sealed segments, skipping
// those whose zone maps refute the pushed-down hint.
func (s *TableScan) decodeSegments(ctx *Ctx, cs *table.ColState) error {
	ncols := len(s.Table.Columns)
	s.segsTotal = len(cs.Segs)
	// First pass: zone-map skip decisions and the exact decode footprint,
	// so the flat buffer is allocated once.
	total := 0
	for _, seg := range cs.Segs {
		if s.ZoneCol >= 0 && s.ZoneOp != "" && !seg.MayMatch(s.ZoneCol, s.ZoneOp, s.ZoneConst) {
			s.segsSkipped++
			continue
		}
		total += seg.NumRows
	}
	if cap(s.flat) < total*ncols {
		s.flat = make([]val.Value, total*ncols)
	}
	s.flat = s.flat[:total*ncols]
	off := 0
	for _, seg := range cs.Segs {
		if s.ZoneCol >= 0 && s.ZoneOp != "" && !seg.MayMatch(s.ZoneCol, s.ZoneOp, s.ZoneConst) {
			continue
		}
		if err := ctx.Interrupted(); err != nil {
			return err
		}
		seg.DecodeInto(s.flat[off:])
		for r := 0; r < seg.NumRows; r++ {
			lo := off + r*ncols
			s.rows = append(s.rows, Row(s.flat[lo:lo+ncols:lo+ncols]))
		}
		off += seg.NumRows * ncols
	}
	if ctx.ColSegSkipped != nil && s.segsSkipped > 0 {
		ctx.ColSegSkipped.Add(uint64(s.segsSkipped))
	}
	if ctx.ColSegDecodeRows != nil && total > 0 {
		ctx.ColSegDecodeRows.Add(uint64(total))
	}
	return nil
}

func (s *TableScan) NextBatch(ctx *Ctx, out *Batch) error {
	copyChunk(ctx, out, s.rows, &s.pos)
	if n := out.Len(); n > 0 {
		if s.WithRIDs {
			out.RIDs = append(out.RIDs, s.rids[s.pos-n:s.pos]...)
		}
		ctx.ChargeRows(n)
	}
	return nil
}

// SegmentStats reports how many segments the last Open saw and how many
// the zone maps skipped (EXPLAIN ANALYZE display).
func (s *TableScan) SegmentStats() (total, skipped int) { return s.segsTotal, s.segsSkipped }

func (s *TableScan) Close(ctx *Ctx) error {
	s.rows = nil
	s.rids = nil
	s.flat = nil
	return nil
}

// IndexScan reads rows via an index range [Lo, Hi] (nil = open) and
// fetches the base rows.
type IndexScan struct {
	Table *table.Table
	Index *table.Index
	Lo    []byte // encoded key lower bound, inclusive; nil = from start
	Hi    []byte // encoded key upper bound; nil = to end
	// HiInc makes Hi inclusive as a prefix: on a multi-column index every
	// key beginning with Hi counts as equal to it.
	HiInc bool
	// WithRIDs fills Batch.RIDs beside every batch of rows (DML target
	// collection).
	WithRIDs bool

	hits []indexHit
	pos  int
}

func (s *IndexScan) Open(ctx *Ctx) error {
	s.pos = 0
	var err error
	s.hits, err = probeIndex(ctx, s.Table, s.Index, []keyRange{{lo: s.Lo, hi: s.Hi, hiInc: s.HiInc}}, s.hits[:0])
	return err
}

func (s *IndexScan) NextBatch(ctx *Ctx, out *Batch) error {
	out.Reset()
	n := min(ctx.BatchSize(), len(s.hits)-s.pos)
	for _, h := range s.hits[s.pos : s.pos+n] {
		out.Rows = append(out.Rows, h.row)
		if s.WithRIDs {
			out.RIDs = append(out.RIDs, h.rid)
		}
	}
	s.pos += n
	ctx.ChargeRows(n)
	return nil
}

func (s *IndexScan) Close(ctx *Ctx) error { return nil }

// --- Filter, Project, Limit ----------------------------------------------

// Observer receives execution feedback: rows matched out of rows tested.
// The optimizer wires observers that update the self-managing histograms
// (§3.2: evaluation of almost any predicate can update the histogram).
type Observer func(matched, tested float64)

// Filter passes rows satisfying the predicate, optionally reporting
// observed selectivity on Close.
type Filter struct {
	Input Operator
	Pred  Pred
	Obs   Observer

	matched, tested float64
	in              Batch
	verdicts        []Bool3
	eof             bool
}

func (f *Filter) Open(ctx *Ctx) error {
	f.matched, f.tested = 0, 0
	f.eof = false
	f.in.Reset()
	return f.Input.Open(ctx)
}

func (f *Filter) NextBatch(ctx *Ctx, out *Batch) error {
	out.Reset()
	target := ctx.BatchSize()
	for out.Len() < target && !f.eof {
		// A selective filter may pull many input batches to fill one
		// output batch: poll cancellation at each inner boundary.
		if err := ctx.Interrupted(); err != nil {
			return err
		}
		if err := f.Input.NextBatch(ctx, &f.in); err != nil {
			return err
		}
		if f.in.Len() == 0 {
			f.eof = true
			break
		}
		var err error
		f.verdicts, err = TestBatch(f.Pred, f.in.Rows, f.verdicts[:0])
		if err != nil {
			return err
		}
		f.tested += float64(f.in.Len())
		rids := f.in.RIDs
		for i, v := range f.verdicts {
			if v == True {
				out.Add(f.in.Rows[i])
				if len(rids) > 0 {
					out.RIDs = append(out.RIDs, rids[i])
				}
			}
		}
	}
	f.matched += float64(out.Len())
	return nil
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
	p.cols = p.cols[:0]
	for _, e := range p.Exprs {
		var err error
		p.cols, err = EvalBatch(e, p.in.Rows, p.cols)
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
		out.Rows = out.Rows[:rem]
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
