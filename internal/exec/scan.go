package exec

import (
	"anywheredb/internal/colseg"
	"anywheredb/internal/mem"
	"anywheredb/internal/store"
	"anywheredb/internal/table"
	"anywheredb/internal/val"
)

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
	// ZoneConst is evaluated at Open (a constant, or a parameter of the
	// plan).
	ZoneCol   int
	ZoneOp    string
	ZoneConst Expr
	// NoColumnar forces the heap path even on a columnar table (DML target
	// collection needs RIDs; differential harnesses need the baseline).
	NoColumnar bool
	// WithRIDs fills Batch.RIDs beside every batch of rows (DML target
	// collection). Columnar rows carry no heap address, so it requires
	// NoColumnar.
	WithRIDs bool

	acct  mem.Account
	held  int       // rows charged to acct: the window, or the carry
	zoneK val.Value // ZoneConst, as of Open

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
	if s.ZoneConst != nil {
		var err error
		if s.zoneK, err = s.ZoneConst.Eval(nil); err != nil {
			return err
		}
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
		if s.off == 0 && s.ZoneCol >= 0 && s.ZoneOp != "" && !seg.MayMatch(s.ZoneCol, s.ZoneOp, s.zoneK) {
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
	// Key, when set, makes the scan the probe of one key prefix instead: at
	// Open it is evaluated and encoded into the scan's own buffer, which is
	// then both bounds, Hi inclusive. A plan run again with other parameter
	// values probes for them.
	Key Expr
	// WithRIDs fills Batch.RIDs beside every batch of rows (DML target
	// collection).
	WithRIDs bool

	bound []byte // Key, encoded
	probe probe
	pos   int
}

func (s *IndexScan) Open(ctx *Ctx) error {
	s.pos = 0
	r := keyRange{lo: s.Lo, hi: s.Hi, hiInc: s.HiInc}
	if s.Key != nil {
		v, err := s.Key.Eval(nil)
		if err != nil {
			return err
		}
		s.bound = val.AppendKey(s.bound[:0], v)
		r = keyRange{lo: s.bound, hi: s.bound, hiInc: true}
	}
	return s.probe.run(ctx, s.Table, s.Index, []keyRange{r})
}

func (s *IndexScan) NextBatch(ctx *Ctx, out *Batch) error {
	out.Reset()
	hits := s.probe.hits
	n := min(ctx.BatchSize(), len(hits)-s.pos)
	for _, h := range hits[s.pos : s.pos+n] {
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
