package exec

import (
	"context"

	"anywheredb/internal/buffer"
	"anywheredb/internal/colseg"
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
// empty batch means end of input. What of a batch a consumer may keep, and
// for how long, is stated once, on Batch.
type Operator interface {
	Open(ctx *Ctx) error
	NextBatch(ctx *Ctx, out *Batch) error
	Close(ctx *Ctx) error
}

// --- Scan -----------------------------------------------------------------

// TableScan reads a table in chain order, a batch at a time, and keeps
// nothing of the table between batches but its place in it. Over sealed
// column segments (internal/colseg) each NextBatch exposes the next window
// of at most ctx.BatchSize() rows of the current segment as a vector-form
// batch — columns are decoded by whoever reads them, in bulk per-encoding
// loops, into buffers the scan reuses — and zone maps let it skip whole
// segments that cannot satisfy a pushed-down col<op>const conjunct. Over
// the heap — a row-only table, NoColumnar, and the delta tail behind the
// segments — it pulls one chain page per step from a table.Cursor and
// carries at most that page's surplus rows to the next batch. The rows it
// holds (a window, or a carry) are charged to the statement's governor
// task, which shrinks the next window when it is squeezed (BatchSize).
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

	acct mem.Account
	held int // rows charged to acct: the window, or the carry

	segs   []*colseg.Segment // the sealed segments being read (the table's own, immutable)
	seg    int               // the segment the next window comes from
	off    int               // the next row of it
	window vectors           // the current window's column buffers

	cur       table.Cursor    // the heap part: the chain, or the delta tail
	page      []table.PageRow // the page last pulled from cur
	carry     []table.PageRow // the suffix of page no batch has taken yet
	carryPage store.PageID

	open     bool
	produced int64 // rows handed out since Open
	// Segment bookkeeping of the last execution; with seg and off it
	// survives Close.
	segsTotal, segsSkipped int
}

func (s *TableScan) Open(ctx *Ctx) error {
	s.acct.Open(ctx.Task, nil, 0)
	s.held, s.produced, s.open = 0, 0, true
	s.segs, s.seg, s.off = nil, 0, 0
	s.carry = nil
	s.segsTotal, s.segsSkipped = 0, 0
	if err := lockForRead(ctx, s.Table); err != nil {
		return err
	}
	// Where the heap part of the scan starts: at the chain head, or behind
	// the sealed segments. Under a snapshot the segments are usable only
	// while the table has no version chains: vacuum cannot reclaim an entry
	// some live snapshot still needs, so an empty store (checked after
	// grabbing cs — writers invalidate before they chain) proves every
	// sealed row is visible to every live snapshot. cs is immutable, so a
	// concurrent invalidation cannot disturb a scan already holding it, and
	// a writer that invalidates it mid-scan is one this statement's
	// snapshot does not see.
	start := s.Table.FirstPage()
	if cs := s.Table.Columnar(); cs != nil && !s.NoColumnar && (ctx.Snap == nil || s.Table.VersionsEmpty()) {
		s.segs, s.segsTotal = cs.Segs, len(cs.Segs)
		start = cs.DeltaStart
	}
	// The heap part stays version-aware even behind segments: a writer may
	// begin chaining delta-tail rows mid-scan though the store was empty
	// above.
	s.cur = s.Table.OpenCursor(start, ctx.Snap)
	return nil
}

func (s *TableScan) NextBatch(ctx *Ctx, out *Batch) error {
	s.noteDecoded(ctx)
	want := ctx.BatchSize()
	held := s.nextWindow(ctx, out, want)
	if held == 0 {
		out.Reset()
		for out.Len() < want {
			if len(s.carry) == 0 {
				if err := ctx.Interrupted(); err != nil {
					return err
				}
				var err error
				if s.carryPage, s.page, err = s.cur.NextPage(s.page); err != nil {
					return err
				}
				if s.carryPage == 0 {
					break
				}
				s.carry = s.page
			}
			n := min(want-out.Len(), len(s.carry))
			for _, r := range s.carry[:n] {
				out.Add(r.Row)
				if s.WithRIDs {
					out.RIDs = append(out.RIDs, table.RID{Page: s.carryPage, Slot: r.Slot})
				}
			}
			s.carry = s.carry[n:]
		}
		held = len(s.carry)
	}
	s.produced += int64(out.Len())
	ctx.ChargeRows(out.Len())
	if held != s.held {
		s.held = held
		s.acct.FreeBytes()
		return s.acct.AddBytes(held * batchRowBytes)
	}
	return nil
}

// nextWindow makes out the next window of at most want rows of the sealed
// segments, skipping segments the zone maps refute, and reports its size: 0
// once the segments are exhausted.
func (s *TableScan) nextWindow(ctx *Ctx, out *Batch, want int) int {
	for s.seg < len(s.segs) {
		seg := s.segs[s.seg]
		if s.off == 0 && s.ZoneCol >= 0 && s.ZoneOp != "" && !seg.MayMatch(s.ZoneCol, s.ZoneOp, s.ZoneConst) {
			s.segsSkipped++
			if ctx.ColSegSkipped != nil {
				ctx.ColSegSkipped.Inc()
			}
			s.seg++
			continue
		}
		if s.off >= seg.NumRows {
			s.seg, s.off = s.seg+1, 0
			continue
		}
		n := min(want, seg.NumRows-s.off)
		s.window.window(seg, s.off, n)
		out.setVectors(&s.window)
		s.off += n
		return n
	}
	return 0
}

// noteDecoded counts the window the scan is leaving behind, if anybody
// decoded a column of it, into colseg.decode_rows.
func (s *TableScan) noteDecoded(ctx *Ctx) {
	if s.window.decoded && ctx.ColSegDecodeRows != nil {
		ctx.ColSegDecodeRows.Add(uint64(s.window.n))
	}
	s.window.decoded = false
}

// SegmentStats reports what the last execution did with the table's sealed
// segments: how many there were, how many the zone maps skipped, and how
// many the scan never reached because its consumer stopped first (EXPLAIN
// ANALYZE display). The rest were read.
func (s *TableScan) SegmentStats() (total, skipped, unreached int) {
	reached := s.seg // skipped or read to the end, plus the one a window was last taken from
	if s.off > 0 {
		reached++
	}
	return s.segsTotal, s.segsSkipped, s.segsTotal - reached
}

// MemoryPeakPages reports the high-water mark of the last execution.
func (s *TableScan) MemoryPeakPages() int { return s.acct.PeakPages() }

// Close releases what the scan holds and reports the rows it actually
// produced — once per execution, however it ended — as scan feedback.
func (s *TableScan) Close(ctx *Ctx) error {
	if s.open {
		s.open = false
		s.noteDecoded(ctx)
		if ctx.ScanObs != nil {
			ctx.ScanObs(s.Table.Name, s.produced)
		}
	}
	s.acct.Close()
	s.segs, s.page, s.carry, s.window = nil, nil, nil, vectors{}
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
		out.Add(h.row)
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
		if f.verdicts, err = TestBatch(f.Pred, out, f.verdicts[:0]); err != nil {
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
	p.cols = p.cols[:0]
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
