package exec

import (
	"encoding/binary"

	"anywheredb/internal/heap"
	"anywheredb/internal/mem"
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
//   - Each partition's build rows live in a heap of its own, whose pages
//     are charged to the statement's governor task while they are locked.
//     When the governor asks for memory back, the partition with the most
//     rows is evicted: its hash table is dropped and its heap unlocked, so
//     the buffer pool may steal the pages to the temporary file. The other
//     partitions are not touched.
//   - Rows of either input that belong to an evicted partition are
//     appended to its (unlocked) heaps, and the partition is joined after
//     the in-memory probe: its build rows are read back in blocks that fit
//     the soft limit, each probed with the partition's deferred probe rows.
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
	acct       mem.Account
	parts      []*joinPartition
	matchSeen  []bool // per build row, by ordinal, for LeftOuter
	enc        []byte // scratch row encoding
	emitQ      rowQueue
	inBuf      Batch // reusable input batch for build and probe pulls
	probeDone  bool
	padded     bool         // LeftOuter: unmatched in-memory build rows were emitted
	pass       *spillPass   // the evicted partition being joined
	inl        *IndexNLJoin // the alternate strategy, once switched to
	spillCount int
	leftOpen   bool
	rightOpen  bool
}

// joinPartition is one partition of the build input. Its rows are in build:
// the 8-byte build ordinal (the row's matchSeen slot), the 8-byte key hash,
// then the encoded row.
type joinPartition struct {
	build *heap.Heap
	ht    map[uint64][]heap.RowRef // by key hash; nil once evicted
	probe *heap.Heap               // unlocked: probe rows that arrived after the eviction
	done  bool                     // evicted and joined, or no longer needed
}

// Mode reports which strategy executed ("hash" or "inl"), for tests and
// EXPLAIN output.
func (j *HashJoin) Mode() string { return j.mode }

// SpilledPartitions reports how many partition evictions occurred during
// the most recent execution (the counter survives Close).
func (j *HashJoin) SpilledPartitions() int { return j.spillCount }

// MemoryPeakPages reports the high-water mark of the last execution.
func (j *HashJoin) MemoryPeakPages() int { return j.acct.PeakPages() }

// ReleaseMemory implements mem.Consumer: evict the in-memory partitions
// with the most rows until want pages are given back. It may run inside
// any charge this operator makes (see mem.Account): the callers look at
// the partition again after the charge.
func (j *HashJoin) ReleaseMemory(want int) (int, error) {
	before := j.acct.Pages()
	for before-j.acct.Pages() < want {
		var big *joinPartition
		for _, p := range j.parts {
			if p.ht != nil && p.build.Rows() > 0 && (big == nil || p.build.Rows() > big.build.Rows()) {
				big = p
			}
		}
		if big == nil {
			break
		}
		big.ht = nil
		big.build.Unlock()
		j.spillCount++
	}
	return before - j.acct.Pages(), nil
}

func (j *HashJoin) Open(ctx *Ctx) error {
	if j.Partitions <= 0 {
		j.Partitions = DefaultPartitions
	}
	j.freeParts()
	j.mode = "hash"
	j.acct.Open(ctx.Task, j, j.Depth)
	j.parts = make([]*joinPartition, j.Partitions)
	for i := range j.parts {
		p := &joinPartition{
			build: heap.New(ctx.Pool, ctx.St, &j.acct),
			ht:    map[uint64][]heap.RowRef{},
			probe: heap.New(ctx.Pool, ctx.St, &j.acct),
		}
		p.probe.Unlock()
		j.parts[i] = p
	}
	j.matchSeen = j.matchSeen[:0]
	j.emitQ = rowQueue{}
	j.inBuf.Reset()
	j.probeDone, j.padded = false, false
	j.spillCount = 0
	j.inl = nil

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
	err := pull(ctx, j.Left, &j.inBuf, func(in *Batch) error {
		for _, row := range in.Rows() {
			if err := j.addBuildRow(row); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	if err := j.Left.Close(ctx); err != nil {
		return err
	}
	j.leftOpen = false
	for _, p := range j.parts {
		if p.ht == nil {
			p.build.Unlock() // the page the build was filling
		}
	}

	// Adaptive switch: the build cardinality is now exact. If the
	// optimizer annotated an alternate index strategy and the build turned
	// out small enough, use index nested loops instead of probing.
	if j.Alt != nil && int64(len(j.matchSeen)) <= j.INLMaxBuildRows && j.SpilledPartitions() == 0 {
		return j.switchToINL(ctx)
	}
	j.rightOpen = true
	return j.Right.Open(ctx)
}

// nullKeyHash segregates NULL-keyed preserved rows.
const nullKeyHash = ^uint64(0)

func (j *HashJoin) addBuildRow(row Row) error {
	keys, ok, err := evalKeys(j.LeftKeys, row)
	if err != nil {
		return err
	}
	idx := len(j.matchSeen) // the build ordinal
	j.matchSeen = append(j.matchSeen, false)
	h := nullKeyHash
	if ok {
		h = val.HashRow(keys)
	} else if !j.LeftOuter {
		// A NULL join key never matches; only LeftOuter needs the row, and
		// emits it from the null-padding pass via matchSeen=false.
		return nil
	}
	p := j.parts[h%uint64(j.Partitions)]
	j.enc = binary.BigEndian.AppendUint64(j.enc[:0], uint64(idx))
	j.enc = binary.BigEndian.AppendUint64(j.enc, h)
	j.enc = val.AppendRow(j.enc, row)
	// A new heap page is a charge, and at the soft limit the charge evicts
	// the partition with the most rows — possibly this one, whose row is in
	// its heap either way.
	ref, err := p.build.AddRow(j.enc)
	if err != nil {
		return err
	}
	if p.ht != nil {
		p.ht[h] = append(p.ht[h], ref)
	}
	return nil
}

// buildRow decodes a row of a partition's build heap.
func buildRow(b []byte) (idx int64, row Row, err error) {
	row, err = val.DecodeRow(b[16:])
	return int64(binary.BigEndian.Uint64(b)), row, err
}

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
		j.emitQ.popInto(out, target)
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
				continue
			}
			ctx.ChargeRows(j.inBuf.Len())
			if err := j.probeBatch(j.inBuf.Rows()); err != nil {
				return err
			}
			continue
		}
		if more, err := j.joinSpilled(ctx, target); err != nil {
			return err
		} else if more {
			continue
		}
		// Null-padding pass for LeftOuter.
		if j.LeftOuter && !j.padded {
			j.padded = true
			for _, p := range j.parts {
				if err := j.emitUnmatched(p); err != nil {
					return err
				}
			}
			continue
		}
		return nil
	}
}

// probeBatch probes one batch of right rows against the in-memory
// partitions and defers the rows of evicted ones. Deferring a row can
// itself evict a partition (a new page is a charge): the rows probed so
// far have joined with it, the rows that follow are deferred.
func (j *HashJoin) probeBatch(rows []Row) error {
	for _, row := range rows {
		keys, ok, err := evalKeys(j.RightKeys, row)
		if err != nil {
			return err
		}
		if !ok {
			continue // NULL key matches nothing
		}
		h := val.HashRow(keys)
		p := j.parts[h%uint64(j.Partitions)]
		if p.ht != nil {
			err = j.probe(p, h, keys, row)
		} else {
			j.enc = val.AppendRow(j.enc[:0], row)
			_, err = p.probe.AddRow(j.enc)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// probe queues the join of one right row with in-memory partition p.
func (j *HashJoin) probe(p *joinPartition, h uint64, keys []val.Value, row Row) error {
	for _, ref := range p.ht[h] {
		b, err := p.build.Row(ref)
		if err != nil {
			return err
		}
		idx, brow, err := buildRow(b)
		if err != nil {
			return err
		}
		if keysEqual(j.LeftKeys, brow, keys) {
			j.matchSeen[idx] = true
			j.emitQ.push(concatRows(brow, row))
		}
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

// spillPass is the join of one evicted partition, in progress: its build
// rows are read back a block at a time into a partition of their own, in
// memory, which is probed with the evicted partition's deferred probe rows
// a batch at a time.
type spillPass struct {
	p     *joinPartition
	build *heap.Cursor
	block joinPartition
	probe *heap.Cursor // nil while no block is loaded
}

// joinSpilled advances the join of the evicted partitions by one step —
// load a block, or probe it with up to target deferred rows — queueing the
// results. It reports false when no evicted partition is left. Partitions
// are looked for afresh each time: a charge made here can evict another.
func (j *HashJoin) joinSpilled(ctx *Ctx, target int) (bool, error) {
	sp := j.pass
	for i := 0; sp == nil && i < len(j.parts); i++ {
		p := j.parts[i]
		if p.ht != nil || p.done {
			continue
		}
		if p.probe.Rows() == 0 && !j.LeftOuter {
			p.done = true // no probe row was deferred to it, and nothing to pad
			continue
		}
		p.probe.Unlock() // the page the probe was filling
		ctx.noteSpill(p.build)
		ctx.noteSpill(p.probe)
		sp = &spillPass{p: p, build: p.build.Cursor(), block: joinPartition{
			build: heap.New(ctx.Pool, ctx.St, &j.acct), ht: map[uint64][]heap.RowRef{},
		}}
		j.pass = sp
	}
	if sp == nil {
		return false, nil
	}
	if sp.probe == nil {
		return true, j.loadBlock(ctx, sp)
	}
	for n := 0; n < target; n++ {
		b, err := sp.probe.Next()
		if err != nil {
			return false, err
		}
		if b == nil {
			// The block has met every probe row of the partition.
			sp.probe = nil
			if j.LeftOuter {
				err = j.emitUnmatched(&sp.block)
			}
			sp.block.build.Free()
			return true, err
		}
		prow, err := val.DecodeRow(b)
		if err != nil {
			return false, err
		}
		keys, ok, err := evalKeys(j.RightKeys, prow)
		if err == nil && ok {
			err = j.probe(&sp.block, val.HashRow(keys), keys, prow)
		}
		if err != nil {
			return false, err
		}
	}
	return true, nil
}

// loadBlock copies the partition's next build rows into the block until
// the statement reaches its soft limit, or comes within the probe cursor's
// page of its hard one (a block is at least a page), and opens the probe
// cursor on it; with no rows left the partition is done and freed.
func (j *HashJoin) loadBlock(ctx *Ctx, sp *spillPass) error {
	blk := &sp.block
	clear(blk.ht)
	for {
		b, err := sp.build.Next()
		if err != nil {
			return err
		}
		if b == nil {
			break
		}
		ref, err := blk.build.AddRow(b)
		if err != nil {
			return err
		}
		h := binary.BigEndian.Uint64(b[8:])
		blk.ht[h] = append(blk.ht[h], ref)
		// Looked at as each page after the first is started.
		if t := ctx.Task; ref.Page > 0 && ref.Slot == 0 && t != nil {
			used, hard := t.UsedPages(), t.HardLimitPages()
			if used >= t.SoftLimitPages() || hard > 0 && used+1 >= hard {
				break
			}
		}
	}
	if blk.build.Rows() > 0 {
		sp.probe = sp.p.probe.Cursor()
		return nil
	}
	sp.p.done = true
	sp.p.build.Free()
	sp.p.probe.Free()
	j.pass = nil
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

// each calls fn for every build row of an in-memory partition.
func (p *joinPartition) each(fn func(idx int64, brow Row)) error {
	for _, refs := range p.ht {
		for _, ref := range refs {
			b, err := p.build.Row(ref)
			if err != nil {
				return err
			}
			idx, brow, err := buildRow(b)
			if err != nil {
				return err
			}
			fn(idx, brow)
		}
	}
	return nil
}

// emitUnmatched queues p's unmatched build rows, null-padded.
func (j *HashJoin) emitUnmatched(p *joinPartition) error {
	return p.each(func(idx int64, brow Row) {
		if !j.matchSeen[idx] {
			j.matchSeen[idx] = true
			j.emitQ.push(padRight(brow, j.RightWidth))
		}
	})
}

// switchToINL abandons the hash table for the alternate strategy: the build
// rows, in build order, become the outer side of an index-nested-loops join.
func (j *HashJoin) switchToINL(ctx *Ctx) error {
	outer := make([]Row, len(j.matchSeen))
	for _, p := range j.parts {
		if err := p.each(func(idx int64, brow Row) { outer[idx] = brow }); err != nil {
			return err
		}
	}
	j.freeParts()
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

// freeParts returns every partition's pages.
func (j *HashJoin) freeParts() {
	if sp := j.pass; sp != nil {
		sp.build.Close()
		if sp.probe != nil {
			sp.probe.Close()
		}
		sp.block.build.Free()
		j.pass = nil
	}
	for _, p := range j.parts {
		p.build.Free()
		p.probe.Free()
	}
	j.parts = nil
}

func (j *HashJoin) Close(ctx *Ctx) error {
	j.freeParts()
	j.acct.Close()
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

	queue  rowQueue
	in     Batch
	ranges []keyRange
	hits   []indexHit
	eof    bool
}

func (n *IndexNLJoin) Open(ctx *Ctx) error {
	n.queue = rowQueue{}
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
		n.queue.popInto(out, target)
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
	left := n.in.Rows()
	for i, lrow := range left {
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
	for i, lrow := range left {
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
			n.queue.push(o)
		}
		if !matched && n.LeftOuter {
			n.queue.push(padRight(lrow, n.RightWidth))
		}
	}
	return nil
}

func (n *IndexNLJoin) Close(ctx *Ctx) error {
	n.queue, n.ranges, n.hits = rowQueue{}, nil, nil
	return n.Left.Close(ctx)
}
