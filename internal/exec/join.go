package exec

import (
	"anywheredb/internal/heap"
	"anywheredb/internal/table"
	"anywheredb/internal/val"
)

// DefaultPartitions is the small, fixed number of partitions hash buckets
// are divided into (§4.3: "buckets are divided uniformly into a small,
// fixed, number of partitions ... selected to provide a balance between
// I/O behaviour and fanout").
const DefaultPartitions = 8

// IndexAlt annotates a hash join with its alternate index-nested-loops
// strategy (§4.3): if, after reading the build input, the actual row count
// is low enough, the operator abandons the hash table and probes the index
// instead.
type IndexAlt struct {
	Table *table.Table
	Index *table.Index
	// Pred is the residual predicate applied to (left ⊕ right) rows.
	Pred Pred
}

// HashJoin builds a partitioned hash table on its Left input and probes
// with the Right input. Output rows are left ⊕ right. With LeftOuter,
// unmatched left rows are emitted null-padded (the preserved side is the
// build side).
//
// Adaptive behaviours (§4.3):
//   - After the build phase the operator knows the true build cardinality;
//     if an IndexAlt annotation is present and the count is below
//     INLMaxBuildRows, it switches to index nested loops.
//   - Build rows are stored in governor-accounted heap pages. When the
//     memory governor's soft limit is reached (or ReleaseMemory is
//     called), the partition with the most rows is evicted to the
//     temporary file, freeing the most memory for future processing.
//   - Spilled partitions are processed after the in-memory probe, in
//     blocks that respect the soft limit.
type HashJoin struct {
	Left, Right         Operator
	LeftKeys, RightKeys []Expr
	LeftOuter           bool
	RightWidth          int // right-side column count, for null padding

	// Optimizer annotations.
	ExpectedBuildRows float64
	Alt               *IndexAlt
	INLMaxBuildRows   int64
	Partitions        int
	Depth             int // plan depth for governor release ordering

	// State.
	mode       string // "hash" or "inl"
	parts      []*joinPartition
	h          *heap.Heap
	matchSeen  []bool // per build row (heap order), for LeftOuter
	buildRows  int64
	emitQ      []Row
	emitPos    int   // consumed prefix of emitQ (index, not re-slice: O(1) pops)
	inBuf      Batch // reusable input batch for build and probe pulls
	probeDone  bool
	spillQueue []int // indexes of spilled partitions to post-process
	leftWidth  int
	registered bool
	ctx        *Ctx
	inl        *IndexNLJoin // the alternate strategy, once switched to
	// accounted tracks heap pages charged to the governor. The heap itself
	// is unaccounted (task=nil) because governor callbacks can re-enter
	// this operator; charging happens at safe points via syncMem.
	accounted  int
	spillCount int
	leftOpen   bool
	rightOpen  bool
}

type joinPartition struct {
	ht      map[uint64][]buildRef
	rows    int64
	spilled bool
	spill   run // build rows (with key hash prepended? no — re-evaluated)
	probe   run // probe rows destined for this partition
}

type buildRef struct {
	ref heap.RowRef
	idx int64 // build row ordinal (for match flags)
}

// Mode reports which strategy executed ("hash" or "inl"), for tests and
// EXPLAIN output.
func (j *HashJoin) Mode() string { return j.mode }

// SpilledPartitions reports how many partition evictions occurred during
// the most recent execution (the counter survives Close).
func (j *HashJoin) SpilledPartitions() int { return j.spillCount }

// MemoryPages implements mem.Consumer.
func (j *HashJoin) MemoryPages() int {
	if j.h == nil {
		return 0
	}
	return j.h.Pages()
}

// ReleaseMemory implements mem.Consumer: evict the largest in-memory
// partition. Because partition rows live interleaved in one heap, eviction
// copies survivors; the paper's engine pays a similar copy when reshaping
// heaps. Returns pages freed.
func (j *HashJoin) ReleaseMemory(want int) int {
	freed := 0
	for freed < want {
		vi := j.largestInMemoryPartition()
		if vi < 0 {
			break
		}
		n, err := j.evictPartition(vi)
		if err != nil || n == 0 {
			break
		}
		freed += n
	}
	if freed > 0 && j.ctx != nil && j.ctx.Task != nil {
		if freed > j.accounted {
			freed = j.accounted
		}
		j.accounted -= freed
		j.ctx.Task.Free(freed)
	}
	return freed
}

// syncMem charges newly grown heap pages to the governor. Charging may
// trigger a release callback into this operator, which is safe here: every
// build ref is already recorded in its partition map, so an eviction or
// heap rebuild migrates it correctly.
func (j *HashJoin) syncMem(ctx *Ctx) error {
	if ctx.Task == nil || j.h == nil {
		return nil
	}
	if delta := j.h.Pages() - j.accounted; delta > 0 {
		j.accounted += delta
		if err := ctx.Task.Alloc(delta); err != nil {
			return err
		}
	}
	return nil
}

func (j *HashJoin) firstInMemoryPartition() *joinPartition {
	for _, p := range j.parts {
		if p != nil && !p.spilled {
			return p
		}
	}
	return nil
}

func (j *HashJoin) largestInMemoryPartition() int {
	best, bestRows := -1, int64(0)
	for i, p := range j.parts {
		if p != nil && !p.spilled && p.rows > bestRows {
			best, bestRows = i, p.rows
		}
	}
	return best
}

func (j *HashJoin) Open(ctx *Ctx) error {
	if j.Partitions <= 0 {
		j.Partitions = DefaultPartitions
	}
	j.mode = "hash"
	j.parts = make([]*joinPartition, j.Partitions)
	for i := range j.parts {
		j.parts[i] = &joinPartition{ht: map[uint64][]buildRef{}}
	}
	j.h = heap.New(ctx.Pool, nil)
	j.accounted = 0
	j.matchSeen = j.matchSeen[:0]
	j.buildRows = 0
	j.emitQ = nil
	j.emitPos = 0
	j.inBuf.Reset()
	j.probeDone = false
	j.spillQueue = nil
	j.spillCount = 0
	j.inl = nil
	j.ctx = ctx
	if ctx.Task != nil && !j.registered {
		ctx.Task.Register(j, j.Depth)
		j.registered = true
	}

	// Mark the child open BEFORE Open is attempted: a child whose Open
	// failed mid-way (e.g. statement cancellation during a nested build)
	// may hold pinned heap pages that only its Close releases, so Close
	// must reach it — the same close-even-if-Open-failed convention Drain
	// applies to the root.
	j.leftOpen = true
	if err := j.Left.Open(ctx); err != nil {
		return err
	}
	// Build phase, one input batch at a time.
	for {
		if err := ctx.Interrupted(); err != nil {
			return err
		}
		if err := j.Left.NextBatch(ctx, &j.inBuf); err != nil {
			return err
		}
		if j.inBuf.Len() == 0 {
			break
		}
		for _, row := range j.inBuf.Rows {
			j.leftWidth = len(row)
			if err := j.addBuildRow(ctx, row); err != nil {
				return err
			}
		}
	}
	if err := j.Left.Close(ctx); err != nil {
		return err
	}
	j.leftOpen = false

	// Adaptive switch: the build cardinality is now exact. If the
	// optimizer annotated an alternate index strategy and the build turned
	// out small enough, use index nested loops instead of probing.
	if j.Alt != nil && j.buildRows <= j.INLMaxBuildRows && j.SpilledPartitions() == 0 {
		return j.switchToINL(ctx)
	}
	j.rightOpen = true
	if err := j.Right.Open(ctx); err != nil {
		return err
	}
	return nil
}

func (j *HashJoin) addBuildRow(ctx *Ctx, row Row) error {
	keys, ok, err := evalKeys(j.LeftKeys, row)
	if err != nil {
		return err
	}
	idx := j.buildRows
	j.buildRows++
	j.matchSeen = append(j.matchSeen, false)
	if !ok {
		// A NULL join key never matches; only LeftOuter needs the row, and
		// it is emitted from the null-padding pass via matchSeen=false.
		if j.LeftOuter {
			p := j.firstInMemoryPartition()
			if p == nil {
				// Everything spilled: route through a spill run.
				pp := j.parts[0]
				w := runWriter{ctx: ctx, r: pp.spill}
				if err := w.add(row); err != nil {
					return err
				}
				pp.spill = w.r
				pp.rows++
				return nil
			}
			ref, err := j.h.AddRow(val.EncodeRow(row))
			if err != nil {
				return err
			}
			p.ht[nullKeyHash] = append(p.ht[nullKeyHash], buildRef{ref, idx})
			p.rows++
		}
		return nil
	}
	h := val.HashRow(keys)
	pi := int(h % uint64(j.Partitions))
	p := j.parts[pi]
	if p.spilled {
		w := runWriter{ctx: ctx, r: p.spill}
		if err := w.add(row); err != nil {
			return err
		}
		p.spill = w.r
		p.rows++
		return nil
	}
	ref, err := j.h.AddRow(val.EncodeRow(row))
	if err != nil {
		return err
	}
	p.ht[h] = append(p.ht[h], buildRef{ref, idx})
	p.rows++
	// While building the hash table on the smaller input, memory use is
	// monitored against the governor's soft limit; reaching it evicts the
	// partition with the most rows (via the governor's release callback).
	return j.syncMem(ctx)
}

// nullKeyHash segregates NULL-keyed preserved rows.
const nullKeyHash = ^uint64(0)

// evalKeys evaluates key expressions; ok=false when any key is NULL.
func evalKeys(exprs []Expr, row Row) ([]val.Value, bool, error) {
	out := make([]val.Value, len(exprs))
	for i, e := range exprs {
		v, err := e.Eval(row)
		if err != nil {
			return nil, false, err
		}
		if v.IsNull() {
			return nil, false, nil
		}
		out[i] = v
	}
	return out, true, nil
}

// evictPartition spills partition pi's build rows to the temp file and
// rebuilds the heap without them (the heap is append-only, so survivors
// are copied to a fresh heap). Returns pages freed.
func (j *HashJoin) evictPartition(pi int) (int, error) {
	ctx := j.ctx
	p := j.parts[pi]
	if p == nil || p.spilled {
		return 0, nil
	}
	before := j.h.Pages()
	// Write pi's rows out.
	w := runWriter{ctx: ctx}
	for _, refs := range p.ht {
		for _, br := range refs {
			b, err := j.h.Row(br.ref)
			if err != nil {
				return 0, err
			}
			row, err := val.DecodeRow(b)
			if err != nil {
				return 0, err
			}
			if err := w.add(row); err != nil {
				return 0, err
			}
		}
	}
	p.spill = w.finish()
	p.spilled = true
	j.spillCount++
	p.ht = nil

	// Rebuild the heap with the surviving partitions.
	nh := heap.New(ctx.Pool, nil)
	for qi, q := range j.parts {
		if qi == pi || q == nil || q.spilled {
			continue
		}
		for h, refs := range q.ht {
			for ri, br := range refs {
				b, err := j.h.Row(br.ref)
				if err != nil {
					return 0, err
				}
				nref, err := nh.AddRow(append([]byte(nil), b...))
				if err != nil {
					return 0, err
				}
				refs[ri] = buildRef{nref, br.idx}
			}
			q.ht[h] = refs
		}
	}
	j.h.Free(ctx.St)
	j.h = nh
	after := j.h.Pages()
	freed := before - after
	if freed < 0 {
		freed = 0
	}
	return freed, nil
}

// popEmitQ moves queued output rows into out (up to target) and truncates
// the queue once fully consumed.
func (j *HashJoin) popEmitQ(out *Batch, target int) {
	for j.emitPos < len(j.emitQ) && out.Len() < target {
		out.Add(j.emitQ[j.emitPos])
		j.emitPos++
	}
	if j.emitPos >= len(j.emitQ) {
		j.emitQ = j.emitQ[:0]
		j.emitPos = 0
	}
}

func (j *HashJoin) NextBatch(ctx *Ctx, out *Batch) error {
	if j.inl != nil {
		return j.inl.NextBatch(ctx, out)
	}
	out.Reset()
	target := ctx.BatchSize()
	for {
		if err := ctx.Interrupted(); err != nil {
			return err
		}
		j.popEmitQ(out, target)
		if out.Len() >= target {
			return nil
		}
		if !j.probeDone {
			if err := j.Right.NextBatch(ctx, &j.inBuf); err != nil {
				return err
			}
			if j.inBuf.Len() == 0 {
				j.probeDone = true
				j.rightOpen = false
				if err := j.Right.Close(ctx); err != nil {
					return err
				}
				// Queue spilled partitions for post-processing.
				for i, p := range j.parts {
					if p.spilled {
						j.spillQueue = append(j.spillQueue, i)
					}
				}
				continue
			}
			ctx.ChargeRows(j.inBuf.Len())
			if err := j.probeBatch(ctx, j.inBuf.Rows); err != nil {
				return err
			}
			continue
		}
		if len(j.spillQueue) > 0 {
			pi := j.spillQueue[0]
			j.spillQueue = j.spillQueue[1:]
			if err := j.processSpilled(ctx, pi); err != nil {
				return err
			}
			continue
		}
		// Null-padding pass for LeftOuter.
		if j.LeftOuter {
			if err := j.emitUnmatched(ctx); err != nil {
				return err
			}
			j.LeftOuter = false // run once
			continue
		}
		return nil
	}
}

// probeBatch probes one batch of right rows against the in-memory
// partitions, deferring rows destined for spilled partitions so each
// partition takes one batched run append per input batch.
func (j *HashJoin) probeBatch(ctx *Ctx, rows []Row) error {
	var pending map[int][]Row // spilled-partition rows, flushed batch-wise
	for _, row := range rows {
		keys, ok, err := evalKeys(j.RightKeys, row)
		if err != nil {
			return err
		}
		if !ok {
			continue // NULL key matches nothing
		}
		h := val.HashRow(keys)
		pi := int(h % uint64(j.Partitions))
		p := j.parts[pi]
		if p.spilled {
			if pending == nil {
				pending = make(map[int][]Row)
			}
			pending[pi] = append(pending[pi], row)
			continue
		}
		for _, br := range p.ht[h] {
			b, err := j.h.Row(br.ref)
			if err != nil {
				return err
			}
			brow, err := val.DecodeRow(b)
			if err != nil {
				return err
			}
			if !keysEqual(j.LeftKeys, brow, keys) {
				continue
			}
			j.matchSeen[br.idx] = true
			j.emitQ = append(j.emitQ, concatRows(brow, row))
		}
	}
	for pi, rs := range pending {
		p := j.parts[pi]
		w := runWriter{ctx: ctx, r: p.probe}
		if err := w.addBatch(rs); err != nil {
			return err
		}
		p.probe = w.r
	}
	return nil
}

func keysEqual(leftKeys []Expr, brow Row, probeKeys []val.Value) bool {
	for i, e := range leftKeys {
		v, err := e.Eval(brow)
		if err != nil || v.IsNull() || val.Compare(v, probeKeys[i]) != 0 {
			return false
		}
	}
	return true
}

func concatRows(a, b Row) Row {
	out := make(Row, 0, len(a)+len(b))
	out = append(out, a...)
	out = append(out, b...)
	return out
}

// processSpilled joins one spilled partition pair in memory-bounded
// blocks, queueing results.
func (j *HashJoin) processSpilled(ctx *Ctx, pi int) error {
	p := j.parts[pi]
	soft := int64(1 << 30)
	if ctx.Task != nil {
		if s := ctx.Task.SoftLimitPages(); s > 0 {
			// Rows per block approximated by rows per page observed so far.
			soft = int64(s)
		}
	}
	// Load build rows in blocks of up to blockRows.
	var block []Row
	var blockIdx []int64
	rowsPerPage := int64(16)
	blockRows := soft * rowsPerPage
	if blockRows < 64 {
		blockRows = 64
	}

	flush := func() error {
		if len(block) == 0 {
			return nil
		}
		ht := map[uint64][]int{}
		for i, brow := range block {
			keys, ok, err := evalKeys(j.LeftKeys, brow)
			if err != nil {
				return err
			}
			if !ok {
				continue
			}
			ht[val.HashRow(keys)] = append(ht[val.HashRow(keys)], i)
		}
		err := p.probe.each(ctx, func(prow Row) error {
			keys, ok, err := evalKeys(j.RightKeys, prow)
			if err != nil {
				return err
			}
			if !ok {
				return nil
			}
			for _, bi := range ht[val.HashRow(keys)] {
				if keysEqual(j.LeftKeys, block[bi], keys) {
					j.matchSeen[blockIdx[bi]] = true
					j.emitQ = append(j.emitQ, concatRows(block[bi], prow))
				}
			}
			return nil
		})
		block = block[:0]
		blockIdx = blockIdx[:0]
		return err
	}

	// Spilled build rows lost their original ordinals; allocate fresh match
	// slots for them.
	err := p.spill.each(ctx, func(brow Row) error {
		idx := int64(len(j.matchSeen))
		j.matchSeen = append(j.matchSeen, false)
		block = append(block, brow)
		blockIdx = append(blockIdx, idx)
		if int64(len(block)) >= blockRows {
			return flush()
		}
		return nil
	})
	if err != nil {
		return err
	}
	if err := flush(); err != nil {
		return err
	}
	// LeftOuter: spilled build rows whose slots stayed unmatched must be
	// padded. Their rows are still in p.spill; walk once more.
	if j.LeftOuter {
		base := int64(len(j.matchSeen)) - p.spill.rowsCount()
		i := int64(0)
		err := p.spill.each(ctx, func(brow Row) error {
			if !j.matchSeen[base+i] {
				j.emitQ = append(j.emitQ, padRight(brow, j.RightWidth))
			}
			i++
			return nil
		})
		if err != nil {
			return err
		}
		// Mark them emitted so the main unmatched pass skips them.
		for k := base; k < base+i; k++ {
			j.matchSeen[k] = true
		}
	}
	p.spill.free(ctx)
	p.probe.free(ctx)
	return nil
}

func padRight(brow Row, width int) Row {
	out := make(Row, 0, len(brow)+width)
	out = append(out, brow...)
	for i := 0; i < width; i++ {
		out = append(out, val.Null)
	}
	return out
}

// emitUnmatched queues null-padded unmatched in-memory build rows.
func (j *HashJoin) emitUnmatched(ctx *Ctx) error {
	for _, p := range j.parts {
		if p == nil || p.spilled || p.ht == nil {
			continue
		}
		for _, refs := range p.ht {
			for _, br := range refs {
				if br.idx < int64(len(j.matchSeen)) && j.matchSeen[br.idx] {
					continue
				}
				b, err := j.h.Row(br.ref)
				if err != nil {
					return err
				}
				brow, err := val.DecodeRow(b)
				if err != nil {
					return err
				}
				j.emitQ = append(j.emitQ, padRight(brow, j.RightWidth))
				if br.idx < int64(len(j.matchSeen)) {
					j.matchSeen[br.idx] = true
				}
			}
		}
	}
	return nil
}

// switchToINL abandons the hash table for the alternate strategy: the build
// rows, in build order, become the outer side of an index-nested-loops join.
func (j *HashJoin) switchToINL(ctx *Ctx) error {
	outer := make([]Row, j.buildRows)
	for _, p := range j.parts {
		for _, refs := range p.ht {
			for _, br := range refs {
				b, err := j.h.Row(br.ref)
				if err != nil {
					return err
				}
				if outer[br.idx], err = val.DecodeRow(b); err != nil {
					return err
				}
			}
		}
	}
	// A build row with a NULL key was stored only if the join preserves it.
	kept := outer[:0]
	for _, row := range outer {
		if row != nil {
			kept = append(kept, row)
		}
	}
	j.mode = "inl"
	j.inl = &IndexNLJoin{
		Left: &Materialized{RowsData: kept}, LeftKeys: j.LeftKeys,
		Table: j.Alt.Table, Index: j.Alt.Index, Pred: j.Alt.Pred,
		LeftOuter: j.LeftOuter, RightWidth: j.RightWidth,
	}
	return j.inl.Open(ctx)
}

func (j *HashJoin) Close(ctx *Ctx) error {
	if ctx.Task != nil && j.registered {
		ctx.Task.Unregister(j)
		j.registered = false
	}
	if ctx.Task != nil && j.accounted > 0 {
		ctx.Task.Free(j.accounted)
		j.accounted = 0
	}
	if j.h != nil {
		j.h.Free(ctx.St)
		j.h = nil
	}
	for _, p := range j.parts {
		if p != nil {
			p.spill.free(ctx)
			p.probe.free(ctx)
		}
	}
	j.parts = nil
	var first error
	if j.inl != nil {
		first = j.inl.Close(ctx)
		j.inl = nil
	}
	if j.leftOpen {
		if err := j.Left.Close(ctx); err != nil && first == nil {
			first = err
		}
		j.leftOpen = false
	}
	if j.rightOpen {
		if err := j.Right.Close(ctx); err != nil && first == nil {
			first = err
		}
		j.rightOpen = false
	}
	return first
}

// NestedLoopJoin is the naive fallback join for non-equijoin predicates.
type NestedLoopJoin struct {
	Left, Right Operator
	Pred        Pred // applied to left ⊕ right; nil = cross product
	LeftOuter   bool
	RightWidth  int

	leftRows  []Row
	pos       int
	rightRows []Row
	rpos      int
	matched   bool
}

func (n *NestedLoopJoin) Open(ctx *Ctx) error {
	n.pos, n.rpos = 0, 0
	var err error
	n.leftRows, err = Drain(ctx, n.Left)
	if err != nil {
		return err
	}
	n.rightRows, err = Drain(ctx, n.Right)
	if err != nil {
		return err
	}
	n.matched = false
	return nil
}

func (n *NestedLoopJoin) NextBatch(ctx *Ctx, out *Batch) error {
	out.Reset()
	target := ctx.BatchSize()
	charged := 0
	defer func() { ctx.ChargeRows(charged) }()
	for out.Len() < target {
		// O(left×right) work per output batch: poll per left row.
		if err := ctx.Interrupted(); err != nil {
			return err
		}
		if n.pos >= len(n.leftRows) {
			return nil
		}
		lrow := n.leftRows[n.pos]
		if n.rpos == 0 {
			n.matched = false
		}
		for n.rpos < len(n.rightRows) && out.Len() < target {
			rrow := n.rightRows[n.rpos]
			n.rpos++
			o := concatRows(lrow, rrow)
			charged++
			if n.Pred != nil {
				v, err := n.Pred.Test(o)
				if err != nil {
					return err
				}
				if v != True {
					continue
				}
			}
			n.matched = true
			out.Add(o)
		}
		if n.rpos >= len(n.rightRows) {
			// Exhausted right side for this left row.
			if !n.matched && n.LeftOuter {
				if out.Len() >= target {
					return nil // pad on the next call; matched survives
				}
				out.Add(padRight(lrow, n.RightWidth))
			}
			n.pos++
			n.rpos = 0
		}
	}
	return nil
}

func (n *NestedLoopJoin) Close(ctx *Ctx) error {
	n.leftRows, n.rightRows = nil, nil
	return nil
}

// IndexNLJoin probes an index on the right table for each left row (the
// static index-nested-loops join method, and what a HashJoin becomes when
// it switches strategy).
type IndexNLJoin struct {
	Left       Operator
	LeftKeys   []Expr
	Table      *table.Table
	Index      *table.Index
	Pred       Pred // residual on left ⊕ right
	LeftOuter  bool
	RightWidth int

	queue  []Row
	qpos   int
	in     Batch
	ranges []keyRange
	hits   []indexHit
	eof    bool
}

func (n *IndexNLJoin) Open(ctx *Ctx) error {
	n.queue, n.qpos = nil, 0
	n.eof = false
	return n.Left.Open(ctx)
}

func (n *IndexNLJoin) NextBatch(ctx *Ctx, out *Batch) error {
	out.Reset()
	target := ctx.BatchSize()
	for {
		if err := ctx.Interrupted(); err != nil {
			return err
		}
		for n.qpos < len(n.queue) && out.Len() < target {
			out.Add(n.queue[n.qpos])
			n.qpos++
		}
		if n.qpos >= len(n.queue) {
			n.queue = n.queue[:0]
			n.qpos = 0
		}
		if out.Len() >= target || n.eof {
			return nil
		}
		if err := n.Left.NextBatch(ctx, &n.in); err != nil {
			return err
		}
		if n.in.Len() == 0 {
			n.eof = true
			return nil
		}
		ctx.ChargeRows(n.in.Len())
		if err := n.joinBatch(ctx); err != nil {
			return err
		}
	}
}

// joinBatch queues the join of one batch of left rows: one probe of the
// index, with one key prefix per left row whose key is not NULL.
func (n *IndexNLJoin) joinBatch(ctx *Ctx) error {
	n.ranges = n.ranges[:0]
	for i, lrow := range n.in.Rows {
		keys, ok, err := evalKeys(n.LeftKeys, lrow)
		if err != nil {
			return err
		}
		if ok {
			key := val.EncodeKey(keys)
			n.ranges = append(n.ranges, keyRange{lo: key, hi: key, hiInc: true, of: i})
		}
	}
	var err error
	if n.hits, err = probeIndex(ctx, n.Table, n.Index, n.ranges, n.hits[:0]); err != nil {
		return err
	}
	hits := n.hits
	for i, lrow := range n.in.Rows {
		matched := false
		for ; len(hits) > 0 && hits[0].of == i; hits = hits[1:] {
			o := concatRows(lrow, hits[0].row)
			if n.Pred != nil {
				v, err := n.Pred.Test(o)
				if err != nil {
					return err
				}
				if v != True {
					continue
				}
			}
			matched = true
			n.queue = append(n.queue, o)
		}
		if !matched && n.LeftOuter {
			n.queue = append(n.queue, padRight(lrow, n.RightWidth))
		}
	}
	return nil
}

func (n *IndexNLJoin) Close(ctx *Ctx) error {
	n.queue, n.ranges, n.hits = nil, nil, nil
	return n.Left.Close(ctx)
}
