package exec

import (
	cheap "container/heap"
	"sort"

	"anywheredb/internal/heap"
	"anywheredb/internal/mem"
	"anywheredb/internal/val"
)

// SortKey is one ordering term.
type SortKey struct {
	Expr Expr
	Desc bool
}

// Sort orders its input. The run being collected is held as Go values and
// charged to the statement's governor task by its encoded size; when the
// governor asks for memory back, the run is sorted and written to a heap
// the buffer pool is free to steal. Output is a k-way merge that reads each
// run through a one-page cursor, with k bounded by half the soft limit: more
// runs than that are first merged into fewer, longer ones (the classic
// external-merge shape demanded by §4.3's memory-adaptive operators).
type Sort struct {
	Input Operator
	Keys  []SortKey
	Depth int

	acct        mem.Account
	buf         []Row        // the run being collected, charged by encoded size
	runs        []*heap.Heap // sorted runs, unlocked
	merge       runMerge     // the result: over runs, or over buf if none was written
	runsWritten int
	inputOpen   bool
	ctx         *Ctx
}

// RunsWritten reports how many runs the most recent execution wrote,
// counting those that merged earlier runs.
func (s *Sort) RunsWritten() int { return s.runsWritten }

// MemoryPeakPages reports the high-water mark of the last execution.
func (s *Sort) MemoryPeakPages() int { return s.acct.PeakPages() }

// ReleaseMemory implements mem.Consumer: write the run being collected out
// as a sorted run. Once the input is consumed the buffer is the result
// being emitted and stays.
func (s *Sort) ReleaseMemory(want int) (int, error) {
	if !s.inputOpen || len(s.buf) == 0 {
		return 0, nil
	}
	before := s.acct.Pages()
	err := s.flushRun(s.ctx)
	return before - s.acct.Pages(), err
}

// free closes the merge's cursors and frees the runs.
func (s *Sort) free() {
	s.merge.close()
	for _, r := range s.runs {
		r.Free()
	}
	s.runs, s.buf = nil, nil
}

func (s *Sort) Open(ctx *Ctx) error {
	s.free() // a re-Open without a Close
	s.runsWritten = 0
	s.ctx = ctx
	s.acct.Open(ctx.Task, s, s.Depth)
	// Marked open before Open is attempted, as in HashJoin.Open.
	s.inputOpen = true
	if err := s.Input.Open(ctx); err != nil {
		return err
	}
	var in Batch
	err := pull(ctx, s.Input, &in, func(in *Batch) error {
		ctx.ChargeRows(in.Len())
		rows, size := in.Rows(), 0
		for _, row := range rows {
			size += val.RowSize(row)
		}
		// The rows are in the run before they are charged: the charge may
		// come back as a ReleaseMemory that flushes it.
		s.buf = append(s.buf, rows...)
		return s.acct.AddBytes(size)
	})
	if err != nil {
		return err
	}
	if len(s.runs) > 0 {
		if err := s.flushRun(ctx); err != nil {
			return err
		}
	}
	s.inputOpen = false
	if err := s.Input.Close(ctx); err != nil {
		return err
	}
	if len(s.runs) == 0 {
		s.merge = s.overRows(s.buf) // nothing was written: the result is the one run, in memory
		return nil
	}
	// A merge pins one page per run it reads and one of the run it writes.
	// Pinned frames, unlike charged bytes, come out of the pool every scan
	// of every statement reads through, so a merge takes half the soft
	// limit: more runs than that are first merged into fewer, longer ones.
	fanIn := len(s.runs)
	if ctx.Task != nil {
		fanIn = max(2, ctx.Task.SoftLimitPages()/2-1)
	}
	for len(s.runs) > fanIn {
		var merged []*heap.Heap
		for rest := s.runs; len(rest) > 0; {
			k := min(fanIn, len(rest))
			run := rest[0]
			if k > 1 {
				var err error
				if run, err = s.mergeRuns(ctx, rest[:k]); err != nil {
					s.runs = append(merged, rest[k:]...) // what Close still has to free
					return err
				}
			}
			merged, rest = append(merged, run), rest[k:]
		}
		s.runs = merged
	}
	return s.merge.open(s, s.runs)
}

func (s *Sort) less(a, b Row) bool {
	for _, k := range s.Keys {
		av, _ := k.Expr.Eval(a)
		bv, _ := k.Expr.Eval(b)
		c := val.Compare(av, bv)
		if c == 0 {
			continue
		}
		if k.Desc {
			return c > 0
		}
		return c < 0
	}
	return false
}

// overRows sorts rows and returns the trivial merge over them: one run,
// still in memory.
func (s *Sort) overRows(rows []Row) runMerge {
	sort.SliceStable(rows, func(i, j int) bool { return s.less(rows[i], rows[j]) })
	m := runMerge{s: s}
	if len(rows) > 0 {
		m.heads = []runHead{{row: rows[0], mem: rows[1:]}}
	}
	return m
}

// writeRun drains m into a new unlocked heap, left with no page pinned.
func (s *Sort) writeRun(ctx *Ctx, m *runMerge) (*heap.Heap, error) {
	run := heap.New(ctx.Pool, ctx.St, &s.acct)
	run.Unlock()
	var enc []byte
	for n := 0; ; n++ {
		row, err := m.next()
		if err == nil && n%interruptEvery == 0 {
			err = ctx.Interrupted()
		}
		if err == nil && row != nil {
			enc = val.AppendRow(enc[:0], row)
			_, err = run.AddRow(enc)
		}
		if err != nil {
			run.Free()
			return nil, err
		}
		if row == nil {
			break
		}
	}
	run.Unlock()
	ctx.noteSpill(run)
	s.runsWritten++
	return run, nil
}

// flushRun sorts the collected run and writes it out.
func (s *Sort) flushRun(ctx *Ctx) error {
	// From here the run is a local being written out, not state the
	// operator retains: it is uncharged first, so the pages the new heap
	// charges as it fills do not ask the rest of the plan to make room for
	// rows that are already leaving, and a release request that arrives
	// meanwhile finds nothing to flush.
	rows := s.buf
	s.buf = nil
	s.acct.FreeBytes()
	if len(rows) == 0 {
		return nil
	}
	m := s.overRows(rows)
	run, err := s.writeRun(ctx, &m)
	if err != nil {
		return err
	}
	s.runs = append(s.runs, run)
	return nil
}

// mergeRuns merges sorted runs into one and frees them, whether or not the
// merge succeeds.
func (s *Sort) mergeRuns(ctx *Ctx, runs []*heap.Heap) (*heap.Heap, error) {
	var m runMerge
	err := m.open(s, runs)
	var out *heap.Heap
	if err == nil {
		out, err = s.writeRun(ctx, &m)
	}
	m.close()
	for _, r := range runs {
		r.Free()
	}
	return out, err
}

// runMerge is a k-way merge over sorted runs: a binary heap of each run's
// next row. Ties go to the earlier run, which keeps the sort stable.
type runMerge struct {
	s     *Sort
	heads []runHead
}

// runHead is the next row of one run and where the rest of it is: a cursor
// over a written run, or the sorted rows of one still in memory.
type runHead struct {
	row Row
	ord int
	cur *heap.Cursor
	mem []Row
}

func (m *runMerge) Len() int      { return len(m.heads) }
func (m *runMerge) Swap(i, j int) { m.heads[i], m.heads[j] = m.heads[j], m.heads[i] }
func (m *runMerge) Push(any)      {}
func (m *runMerge) Pop() any      { m.heads = m.heads[:len(m.heads)-1]; return nil }
func (m *runMerge) Less(i, j int) bool {
	a, b := &m.heads[i], &m.heads[j]
	return m.s.less(a.row, b.row) || a.ord < b.ord && !m.s.less(b.row, a.row)
}

// advance moves h to its run's next row; false at the end of the run.
func (h *runHead) advance() (bool, error) {
	if h.cur == nil {
		if len(h.mem) == 0 {
			return false, nil
		}
		h.row, h.mem = h.mem[0], h.mem[1:]
		return true, nil
	}
	b, err := h.cur.Next()
	if err != nil || b == nil {
		return false, err
	}
	h.row, err = val.DecodeRow(b)
	return err == nil, err
}

func (m *runMerge) open(s *Sort, runs []*heap.Heap) error {
	m.s, m.heads = s, make([]runHead, 0, len(runs))
	for i, r := range runs {
		h := runHead{ord: i, cur: r.Cursor()}
		ok, err := h.advance()
		if ok {
			m.heads = append(m.heads, h)
		}
		if err != nil {
			h.cur.Close()
			return err
		}
	}
	cheap.Init(m)
	return nil
}

// next returns the smallest remaining row, nil when every run is read.
func (m *runMerge) next() (Row, error) {
	if len(m.heads) == 0 {
		return nil, nil
	}
	row := m.heads[0].row
	ok, err := m.heads[0].advance()
	if err != nil {
		return nil, err
	}
	if ok {
		cheap.Fix(m, 0)
	} else {
		cheap.Pop(m)
	}
	return row, nil
}

func (m *runMerge) close() {
	for _, h := range m.heads {
		if h.cur != nil {
			h.cur.Close()
		}
	}
	m.heads = nil
}

func (s *Sort) NextBatch(ctx *Ctx, out *Batch) error {
	out.Reset()
	for n := ctx.BatchSize(); out.Len() < n; {
		row, err := s.merge.next()
		if err != nil {
			return err
		}
		if row == nil {
			break
		}
		out.Add(row)
	}
	return nil
}

func (s *Sort) Close(ctx *Ctx) error {
	s.free()
	s.acct.Close()
	if s.inputOpen {
		s.inputOpen = false
		return s.Input.Close(ctx)
	}
	return nil
}

// RecursiveUnion implements WITH RECURSIVE: it evaluates the base query,
// then repeatedly re-evaluates the recursive query against the previous
// iteration's rows until a fixpoint (UNION ALL semantics with a safety
// bound). The operator can switch strategies between iterations (§4.3): it
// starts with an in-memory duplicate-free working set and degrades to
// unconditional append (pure UNION ALL) when the working set grows large —
// sharing work from iteration to iteration via the materialized deltas.
type RecursiveUnion struct {
	Base Operator
	// Recursive builds the next delta from the previous one; it is invoked
	// with a Materialized operator holding the previous delta.
	Recursive func(prev *Materialized) Operator
	// MaxIterations bounds runaway recursion.
	MaxIterations int
	// DedupLimit is the working-set size at which the operator switches
	// from duplicate elimination to append-only (strategy switch).
	DedupLimit int

	out        []Row
	pos        int
	iterations int
	switched   bool
}

func (r *RecursiveUnion) Open(ctx *Ctx) error {
	r.out = nil
	r.pos = 0
	r.iterations = 0
	r.switched = false
	if r.MaxIterations <= 0 {
		r.MaxIterations = 10000
	}
	if r.DedupLimit <= 0 {
		r.DedupLimit = 1 << 16
	}
	seen := map[uint64][]Row{}
	dedup := true
	addRow := func(row Row) bool {
		if dedup {
			h := val.HashRow(row)
			for _, prev := range seen[h] {
				if rowsEqualNullSafe(prev, row) {
					return false
				}
			}
			seen[h] = append(seen[h], row)
			if len(r.out) >= r.DedupLimit {
				dedup = false
				r.switched = true
				seen = nil
			}
		}
		r.out = append(r.out, row)
		return true
	}

	delta, err := Drain(ctx, r.Base)
	if err != nil {
		return err
	}
	var next []Row
	for _, row := range delta {
		if addRow(row) {
			next = append(next, row)
		}
	}
	delta = next

	for len(delta) > 0 && r.iterations < r.MaxIterations {
		r.iterations++
		prev := &Materialized{RowsData: delta}
		op := r.Recursive(prev)
		rows, err := Drain(ctx, op)
		if err != nil {
			return err
		}
		delta = nil
		for _, row := range rows {
			if addRow(row) {
				delta = append(delta, row)
			}
		}
	}
	return nil
}

func (r *RecursiveUnion) NextBatch(ctx *Ctx, out *Batch) error {
	copyChunk(ctx, out, r.out, &r.pos)
	return nil
}

func (r *RecursiveUnion) Close(ctx *Ctx) error {
	r.out = nil
	return nil
}
