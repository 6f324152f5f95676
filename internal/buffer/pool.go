// Package buffer implements the single heterogeneous buffer pool of §2: one
// pool of same-sized frames holding table, index, undo/redo, bitmap, and
// connection-heap pages, with a modified generalized clock replacement
// algorithm (eight reference-time segments, exponentially decayed scores)
// and a lock-free lookaside queue of immediately-reusable frames. The pool
// can grow and shrink dynamically on demand from the cache-sizing governor.
//
// The pool is sharded for multi-core scalability: the page table, free
// list, lookaside queue, and clock hand are striped into
// nextPow2(GOMAXPROCS) shards keyed by a hash of the PageID, each guarded
// by its own RWMutex, so hits on pages in different shards never contend.
// The hit path takes only a shard read-lock and pins through the per-frame
// atomics, so concurrent hits on the *same* shard do not block each other
// either. The §2.2 scoring is preserved across striping: the reference
// sequence (refSeq) and segment width stay global, while each shard sweeps
// its own clock hand over its own frames.
package buffer

import (
	"errors"
	"fmt"
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"anywheredb/internal/faultinject"
	"anywheredb/internal/page"
	"anywheredb/internal/store"
	"anywheredb/internal/telemetry"
	"anywheredb/internal/wal"
)

// segments is the number of reference-time segments the pool is divided
// into (§2.2).
const segments = 8

// maxScore caps a frame's replacement score.
const maxScore = 15

// maxShards bounds the stripe count on very wide hosts; beyond this the
// per-shard frame populations get too small for the clock to be useful.
const maxShards = 64

// Frame is one buffer-pool frame. Data is valid while the frame is pinned.
type Frame struct {
	ID   store.PageID
	Data page.Buf

	mu      sync.RWMutex // content latch
	io      sync.Mutex   // held by the loader while Data is read from the store
	pin     atomic.Int32
	dirty   atomic.Bool
	loading atomic.Bool // a loader is filling Data; concurrent hitters wait on io
	defunct atomic.Bool // the load failed; pin holders release via releaseDefunct
	lastRef atomic.Uint64
	score   atomic.Uint32
	// gen is the write generation: Lock, the only way to change a resident
	// page, bumps it. The log holds every change through generation logged:
	// the frame's bytes are then the page's image ending at img (0: none
	// known) plus changes stamped with their records' LSNs.
	gen, logged, img atomic.Uint64
	idx              int  // position in its shard's frames slice (shard-mutex-guarded)
	valid            bool // shard-mutex-guarded
	onFree           bool // shard-mutex-guarded: frame is on its shard's free list
}

// Lock latches the frame's contents exclusively, for a change: the write
// generation moves, and unless the change is stamped the page needs a new
// image before it is written.
func (f *Frame) Lock() {
	f.mu.Lock()
	f.gen.Add(1)
}

// Stamp records that the change made under the exclusive latch the caller
// holds is the one the log record ending at lsn describes, and makes lsn
// the page's LSN.
func (f *Frame) Stamp(lsn wal.LSN) {
	f.Data.SetLSN(lsn)
	g := f.gen.Load()
	f.logged.CompareAndSwap(g-1, g) // every change before this one was logged
}

// Unlock releases the exclusive latch.
func (f *Frame) Unlock() { f.mu.Unlock() }

// RLock latches the frame's contents shared.
func (f *Frame) RLock() { f.mu.RLock() }

// RUnlock releases the shared latch.
func (f *Frame) RUnlock() { f.mu.RUnlock() }

// MarkDirty records that the frame's contents changed and must be written
// before the frame is reused.
func (f *Frame) MarkDirty() { f.dirty.Store(true) }

// Stats reports pool activity counters, aggregated across shards.
type Stats struct {
	Hits          uint64
	Misses        uint64
	Evictions     uint64
	LookasideHits uint64
	Writebacks    uint64
	Steals        uint64 // frames taken away from the pool by a shrink
	Contention    uint64 // shard-lock acquisitions that found the lock held
}

// shard is one stripe of the pool: its own page-table partition, frame
// population, free list, lookaside queue, and clock hand, under its own
// lock. Counters are shard-local so the hot paths never touch a cache line
// shared with another shard.
type shard struct {
	mu     sync.RWMutex
	frames []*Frame
	table  map[store.PageID]*Frame
	free   []int // indexes of frames with no page
	hand   int
	limit  int // this shard's share of the pool size, in frames
	look   *lookaside[*Frame]

	hits, misses, evictions, lookHits, writebacks, steals atomic.Uint64
	contention, borrows, images, wbSyncs                  atomic.Uint64

	// imaged maps a page to the end-LSN of its newest image in the log, so
	// a page evicted clean keeps it for its next residency. A truncate past
	// imagedAfter discards every entry. imgMu is a leaf lock.
	imgMu       sync.Mutex
	imaged      map[store.PageID]wal.LSN
	imagedAfter wal.LSN
}

// lock acquires the shard exclusively, counting contention.
func (s *shard) lock() {
	if !s.mu.TryLock() {
		s.contention.Add(1)
		s.mu.Lock()
	}
}

// rlock acquires the shard shared, counting contention.
func (s *shard) rlock() {
	if !s.mu.TryRLock() {
		s.contention.Add(1)
		s.mu.RLock()
	}
}

// Pool is the buffer pool. It is safe for concurrent use.
type Pool struct {
	st *store.Store

	shards     []*shard
	shardShift uint // 64 - log2(len(shards)); PageID hash top bits pick the shard
	minSize    int
	maxSize    int

	// structMu serializes Resize and cross-shard frame borrowing, the only
	// operations that move capacity between shards. It is never held while
	// a shard lock is being waited on by the hot paths' owners: the hot
	// paths themselves never take structMu.
	structMu sync.Mutex

	refSeq    atomic.Uint64 // global reference clock (§2.2 segments)
	limitAtom atomic.Int64  // total pool size in frames, readable lock-free

	// fh holds fault handling installed by SetFaultPolicy/SetImageLog (nil
	// until then, preserving the pool's original raw-I/O behaviour).
	// Atomic so installation at open time is safe against early traffic.
	fh atomic.Pointer[faultHandling]

	// readWaitObs, when set, is called with the wall-clock microseconds a
	// Get spent blocked on read I/O: a miss reading the page from the
	// store, or a hit waiting on another goroutine's in-flight read of the
	// same page. Hits on resident pages report nothing. Feeds the flight
	// recorder's "buffer.read" wait event.
	readWaitObs atomic.Pointer[func(us int64)]
}

// SetReadWaitObserver installs (or replaces) the read-I/O wait observer.
// A nil f uninstalls.
func (p *Pool) SetReadWaitObserver(f func(us int64)) {
	if f == nil {
		p.readWaitObs.Store(nil)
		return
	}
	p.readWaitObs.Store(&f)
}

// observeReadWait reports one blocked read to the observer, if any.
func (p *Pool) observeReadWait(start time.Time) {
	if f := p.readWaitObs.Load(); f != nil {
		(*f)(time.Since(start).Microseconds())
	}
}

// faultHandling bundles the pool's transient-I/O retry policy with the
// image log behind the write-back rule.
type faultHandling struct {
	pol   faultinject.RetryPolicy
	stats *faultinject.Stats
	il    ImageLog
}

// ImageLog is the log the pool's one write-back rule runs against: a dirty
// non-temp page is written in place only when the log durably holds an
// image of it from its current contents, and a record of every change since
// — each stamped on the page (Frame.Stamp). So (a) a stolen dirty page never
// reaches disk ahead of the records that describe — and can undo — its
// contents, and (b) recovery repairs a torn write from the image and the
// records newer than its page LSN. A page is imaged once per checkpoint; an
// unstamped change (an index node, a compensation) needs a new image. The
// write-back rides whichever flush made all that durable — usually the next
// commit's — and forces one itself only when no frame it could take is
// covered yet. Temp-file pages are exempt: they hold no logged data and die
// at restart. Core wires *wal.Log here.
type ImageLog interface {
	// LogImage appends an image of the page without flushing it and
	// returns its end-LSN.
	LogImage(id store.PageID, data []byte) wal.LSN
	// Bounds reports the LSN the log's contents start after and the LSN it
	// is durable through.
	Bounds() (start, durable wal.LSN)
	// FlushTo makes the log durable up to lsn.
	FlushTo(lsn wal.LSN) error
	// HoldEpoch and ReleaseEpoch bracket each write-back's check and its
	// write: the log cannot truncate in between.
	HoldEpoch()
	ReleaseEpoch()
}

// ErrPoolExhausted is returned when every frame in the pool is pinned and
// no victim can be found.
var ErrPoolExhausted = errors.New("buffer: all frames pinned")

// errRetry is an internal signal: the frame the caller pinned turned out
// to be a failed load; retry the Get from scratch.
var errRetry = errors.New("buffer: retry lookup")

// New creates a pool over st with the given initial size and hard bounds
// (in frames), striped into nextPow2(GOMAXPROCS) shards. The bounds do not
// change during the lifetime of the pool; only the current size moves
// between them.
func New(st *store.Store, minFrames, initial, maxFrames int) *Pool {
	return NewWithShards(st, minFrames, initial, maxFrames, 0)
}

// NewWithShards is New with an explicit shard count (rounded up to a power
// of two, capped at maxShards); nshards <= 0 selects the default
// nextPow2(GOMAXPROCS). A single shard reproduces the pre-striping
// global-mutex pool, which experiments use as a baseline.
func NewWithShards(st *store.Store, minFrames, initial, maxFrames, nshards int) *Pool {
	if minFrames < 1 {
		minFrames = 1
	}
	if initial < minFrames {
		initial = minFrames
	}
	if maxFrames < initial {
		maxFrames = initial
	}
	if nshards <= 0 {
		nshards = runtime.GOMAXPROCS(0)
	}
	nshards = nextPow2(nshards)
	if nshards > maxShards {
		nshards = maxShards
	}
	p := &Pool{
		st:         st,
		minSize:    minFrames,
		maxSize:    maxFrames,
		shardShift: uint(64 - bits.TrailingZeros(uint(nshards))),
	}
	lookCap := maxFrames/nshards + 1
	for _, quota := range apportion(initial, nshards) {
		s := &shard{
			table: make(map[store.PageID]*Frame),
			limit: quota,
			look:  newLookaside[*Frame](lookCap),
		}
		for j := 0; j < quota; j++ {
			f := &Frame{idx: len(s.frames), onFree: true}
			s.frames = append(s.frames, f)
			s.free = append(s.free, f.idx)
		}
		p.shards = append(p.shards, s)
	}
	p.limitAtom.Store(int64(initial))
	return p
}

// nextPow2 rounds n up to a power of two (minimum 1).
func nextPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// apportion splits total frames across n shards by largest-remainder
// apportionment. All shards carry equal weight, so every exact quota is
// total/n and the fractional remainders are identical; the tie-break is
// shard index order, i.e. the first total%n shards get one extra frame.
func apportion(total, n int) []int {
	base, rem := total/n, total%n
	out := make([]int, n)
	for i := range out {
		out[i] = base
		if i < rem {
			out[i]++
		}
	}
	return out
}

// shardOf picks the stripe for a page: Fibonacci-hash the PageID and take
// the top bits, so densely-allocated sequential page indexes splay evenly.
func (p *Pool) shardOf(id store.PageID) *shard {
	return p.shards[(uint64(id)*0x9E3779B97F4A7C15)>>p.shardShift]
}

// SizePages reports the pool's current size in frames. It reads the
// atomic mirror and takes no lock.
func (p *Pool) SizePages() int { return int(p.limitAtom.Load()) }

// Bounds reports the pool's immutable lower and upper size bounds.
func (p *Pool) Bounds() (minFrames, maxFrames int) { return p.minSize, p.maxSize }

// Stats returns a snapshot of the activity counters, summed across shards
// without stalling the pool: the counters are shard-local atomics, so the
// snapshot is per-counter consistent but, unlike the pre-striping pool,
// not tied to a single structural instant.
func (p *Pool) Stats() Stats {
	var st Stats
	for _, s := range p.shards {
		st.Hits += s.hits.Load()
		st.Misses += s.misses.Load()
		st.Evictions += s.evictions.Load()
		st.LookasideHits += s.lookHits.Load()
		st.Writebacks += s.writebacks.Load()
		st.Steals += s.steals.Load()
		st.Contention += s.contention.Load()
	}
	return st
}

// AttachTelemetry publishes the pool's counters into reg under the
// "buffer." prefix. Func-backed gauges read the pool's own atomics, so the
// hot paths stay exactly as cheap as before. Per-shard contention gauges
// expose which stripes are hot.
func (p *Pool) AttachTelemetry(reg *telemetry.Registry) {
	sum := func(f func(*shard) *atomic.Uint64) func() int64 {
		return func() int64 {
			var n uint64
			for _, s := range p.shards {
				n += f(s).Load()
			}
			return int64(n)
		}
	}
	reg.GaugeFunc("buffer.hits", sum(func(s *shard) *atomic.Uint64 { return &s.hits }))
	reg.GaugeFunc("buffer.misses", sum(func(s *shard) *atomic.Uint64 { return &s.misses }))
	reg.GaugeFunc("buffer.evictions", sum(func(s *shard) *atomic.Uint64 { return &s.evictions }))
	reg.GaugeFunc("buffer.lookaside_hits", sum(func(s *shard) *atomic.Uint64 { return &s.lookHits }))
	reg.GaugeFunc("buffer.writebacks", sum(func(s *shard) *atomic.Uint64 { return &s.writebacks }))
	// Page images logged ahead of write-backs, and the log syncs the pool
	// forced itself because no other flush had made an image durable yet.
	reg.GaugeFunc("buffer.images_logged", sum(func(s *shard) *atomic.Uint64 { return &s.images }))
	reg.GaugeFunc("buffer.writeback_syncs", sum(func(s *shard) *atomic.Uint64 { return &s.wbSyncs }))
	reg.GaugeFunc("buffer.steals", sum(func(s *shard) *atomic.Uint64 { return &s.steals }))
	reg.GaugeFunc("buffer.contention", sum(func(s *shard) *atomic.Uint64 { return &s.contention }))
	reg.GaugeFunc("buffer.borrows", sum(func(s *shard) *atomic.Uint64 { return &s.borrows }))
	reg.GaugeFunc("buffer.shards", func() int64 { return int64(len(p.shards)) })
	reg.GaugeFunc("buffer.pool_pages", func() int64 { return p.limitAtom.Load() })
	reg.GaugeFunc("buffer.pinned_frames", func() int64 { return int64(p.PinnedCount()) })
	for i, s := range p.shards {
		s := s
		reg.GaugeFunc(fmt.Sprintf("buffer.shard%02d.contention", i),
			func() int64 { return int64(s.contention.Load()) })
	}
}

// SetFaultPolicy installs bounded-retry handling for transient I/O errors
// on the miss path and the writeback paths. stats may be nil. Call before
// the pool serves concurrent traffic.
func (p *Pool) SetFaultPolicy(pol faultinject.RetryPolicy, stats *faultinject.Stats) {
	cur := p.fh.Load()
	next := &faultHandling{pol: pol, stats: stats}
	if cur != nil {
		next.il = cur.il
	}
	p.fh.Store(next)
}

// SetImageLog installs the log every dirty non-temp page write-back is
// checked against (see ImageLog). Call before the pool serves traffic.
func (p *Pool) SetImageLog(il ImageLog) {
	cur := p.fh.Load()
	next := &faultHandling{il: il}
	if cur != nil {
		next.pol, next.stats = cur.pol, cur.stats
	}
	p.fh.Store(next)
}

// imageLog returns the installed image log, nil if none.
func (p *Pool) imageLog() ImageLog {
	if fh := p.fh.Load(); fh != nil {
		return fh.il
	}
	return nil
}

// ioRead loads a page from the store, retrying transient faults.
func (p *Pool) ioRead(id store.PageID, buf page.Buf) error {
	fh := p.fh.Load()
	if fh == nil {
		return p.st.Read(id, buf)
	}
	return faultinject.Retry(fh.pol, fh.stats, func() error { return p.st.Read(id, buf) })
}

// needsImage reports whether writing f in place is subject to the
// write-back rule: an image log is installed and f is a non-temp page.
func needsImage(il ImageLog, f *Frame) bool {
	return il != nil && f.ID.File() != store.TempFile
}

// covered reports whether the log holds an image of f's page from its
// contents since start and a record of every change to f since.
func covered(f *Frame, start wal.LSN) bool {
	return f.logged.Load() == f.gen.Load() && f.img.Load() > start
}

// needLSN is the LSN the log must be durable through before f is written:
// its image and its stamped changes.
func needLSN(f *Frame) wal.LSN { return max(f.img.Load(), f.Data.LSN()) }

// writeLogged writes f in place, dirty bit and all, if the write-back rule
// allows it now, and reports whether it did. The check and the write share
// one epoch hold, so a truncate cannot discard the image in between. f's
// bytes must be stable: the caller holds its content latch, or the
// exclusive shard lock with f unpinned.
func (p *Pool) writeLogged(s *shard, il ImageLog, f *Frame) (bool, error) {
	il.HoldEpoch()
	defer il.ReleaseEpoch()
	if start, durable := il.Bounds(); !covered(f, start) || durable < needLSN(f) {
		return false, nil
	}
	return true, p.writeBack(s, f)
}

// writeBack writes f's bytes in place, retrying transient faults, and
// marks it clean. Callers have already applied the write-back rule.
func (p *Pool) writeBack(s *shard, f *Frame) error {
	write := func() error { return p.st.Write(f.ID, f.Data) }
	var err error
	if fh := p.fh.Load(); fh == nil {
		err = write()
	} else {
		err = faultinject.Retry(fh.pol, fh.stats, write)
	}
	if err != nil {
		return err
	}
	s.writebacks.Add(1)
	f.dirty.Store(false)
	return nil
}

// image appends an image of f's bytes, which must be stable, unless f is
// covered already.
func (s *shard) image(il ImageLog, f *Frame) {
	start, _ := il.Bounds()
	if covered(f, start) {
		return
	}
	s.images.Add(1)
	s.noteImage(f, il.LogImage(f.ID, f.Data), start)
}

// noteImage records that the log holds an image of f's current bytes,
// ending at lsn, and that start was the log's start before it was logged.
func (s *shard) noteImage(f *Frame, lsn, start wal.LSN) {
	f.img.Store(lsn)
	f.logged.Store(f.gen.Load())
	s.imgMu.Lock()
	if s.imaged == nil || start > s.imagedAfter {
		s.imaged, s.imagedAfter = map[store.PageID]wal.LSN{}, start
	}
	s.imaged[f.ID] = lsn
	s.imgMu.Unlock()
}

// Imaged records that recovery restored f's bytes from the image ending at
// lsn. The caller holds f's exclusive latch.
func (p *Pool) Imaged(f *Frame, lsn wal.LSN) {
	start, _ := p.imageLog().Bounds()
	p.shardOf(f.ID).noteImage(f, lsn, start)
}

// forcedSync flushes the log up to lsn on the pool's own account.
func (s *shard) forcedSync(il ImageLog, lsn wal.LSN) error {
	s.wbSyncs.Add(1)
	return il.FlushTo(lsn)
}

// touch records a reference: the frame moves to the newest reference-time
// segment, and its score grows by the number of segment boundaries it had
// aged across since its last reference (§2.2: "the score of a page is
// incremented as it moves from segment to segment"). Adjacent references
// during a table scan cross no boundary and leave the score unchanged,
// which is how the algorithm distinguishes scan locality from re-use. The
// reference sequence is global across shards so segment ages stay
// comparable pool-wide.
func (p *Pool) touch(f *Frame) {
	now := p.refSeq.Add(1)
	segWidth := p.segWidth()
	last := f.lastRef.Load()
	if crossed := (now - last) / segWidth; crossed > 0 {
		s := f.score.Load() + uint32(min64(int64(crossed), segments))
		if s > maxScore {
			s = maxScore
		}
		f.score.Store(s)
	}
	f.lastRef.Store(now)
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

func (p *Pool) segWidth() uint64 {
	w := p.limitAtom.Load() / segments
	if w < 1 {
		w = 1
	}
	return uint64(w)
}

// Get pins the page, reading it from the store on a miss, and returns its
// frame. The hit path takes only the shard's read-lock and pins through
// the frame's atomic, so concurrent hits never block each other; the
// read-lock orders the pin against the shard's evictor, which holds the
// write lock while choosing victims.
func (p *Pool) Get(id store.PageID) (*Frame, error) {
	s := p.shardOf(id)
	for {
		s.rlock()
		if f, ok := s.table[id]; ok {
			f.pin.Add(1)
			s.mu.RUnlock()
			f, err := p.awaitLoaded(s, f)
			if err == errRetry {
				continue
			}
			return f, err
		}
		s.mu.RUnlock()
		f, err := p.load(s, id)
		if err == errRetry {
			continue
		}
		return f, err
	}
}

// awaitLoaded completes a hit on a pinned frame: if a concurrent loader is
// still filling the frame, wait for it on the frame's io mutex; if that
// load failed, release the pin and signal a retry. In the steady state
// this costs one atomic load.
func (p *Pool) awaitLoaded(s *shard, f *Frame) (*Frame, error) {
	if f.loading.Load() {
		start := time.Now()
		f.io.Lock()
		//lint:ignore SA2001 empty critical section: the lock is a load barrier
		f.io.Unlock()
		p.observeReadWait(start)
	}
	// Check defunct unconditionally, not only when we saw the load in
	// flight: the failed-read undo stores defunct=true before loading=false,
	// so a hitter that pinned mid-load but reads loading only after the undo
	// completed still observes the failure here. Skipping this check would
	// serve the never-filled frame as a hit and leak it (releaseDefunct
	// backs off while we hold the pin, and the clock never visits !valid
	// frames).
	if f.defunct.Load() {
		p.releaseDefunct(s, f)
		return nil, errRetry
	}
	s.hits.Add(1)
	p.touch(f)
	return f, nil
}

// releaseDefunct drops a pin taken on a frame whose load failed. The last
// holder returns the frame to its shard's free list; until then the frame
// is invalid, unpinned-but-held, and invisible to the clock and to grabs.
func (p *Pool) releaseDefunct(s *shard, f *Frame) {
	if f.pin.Add(-1) != 0 {
		return
	}
	p.freeDefunct(s, f)
}

// freeDefunct returns a fully-released defunct frame to its shard's free
// list. The locked re-check makes stale calls harmless: if the frame was
// meanwhile re-grabbed (grabLocked clears defunct before reuse) or already
// freed, the caller backs off.
func (p *Pool) freeDefunct(s *shard, f *Frame) {
	s.lock()
	if f.defunct.Load() && f.pin.Load() == 0 && !f.valid && !f.onFree &&
		f.idx < len(s.frames) && s.frames[f.idx] == f {
		f.defunct.Store(false)
		f.onFree = true
		s.free = append(s.free, f.idx)
	}
	s.mu.Unlock()
}

// load handles a Get miss: grab a frame under the shard's write lock,
// publish it in the page table with the load-in-progress mark, and read
// the page outside the lock. Concurrent Gets for the same page pin the
// frame and wait on its io mutex instead of issuing a second read.
func (p *Pool) load(s *shard, id store.PageID) (*Frame, error) {
	for {
		s.lock()
		// Re-check under the write lock: another goroutine may have loaded
		// the page while we were between locks.
		if f, ok := s.table[id]; ok {
			f.pin.Add(1)
			s.mu.Unlock()
			return p.awaitLoaded(s, f)
		}
		f, err := s.grabLocked(p)
		if err == ErrPoolExhausted {
			s.mu.Unlock()
			if p.borrow(s) {
				continue
			}
			return nil, ErrPoolExhausted
		}
		if err != nil {
			s.mu.Unlock()
			return nil, err
		}
		f.ID = id
		f.valid = true
		f.pin.Store(1)
		f.dirty.Store(false)
		f.score.Store(0)
		f.lastRef.Store(p.refSeq.Load()) // fresh occupant: no inherited age
		// The page on disk is its image, if any, plus logged records.
		s.imgMu.Lock()
		f.img.Store(s.imaged[id])
		s.imgMu.Unlock()
		f.logged.Store(f.gen.Load())
		f.loading.Store(true)
		f.io.Lock() // published loading: hitters queue here until the read lands
		s.table[id] = f
		s.mu.Unlock()

		s.misses.Add(1)
		p.touch(f)
		ioStart := time.Now()
		rerr := p.ioRead(id, f.Data)
		p.observeReadWait(ioStart)
		if rerr != nil {
			// Undo under the shard lock. The frame is pinned, so neither a
			// concurrent Resize nor Discard can have evicted or moved it
			// across shards in the window the lock was dropped (both skip
			// pinned frames); its idx may have been renumbered by a shrink's
			// swap-remove, which keeps f.idx current. Re-verify the mapping
			// anyway before deleting: the undo must never remove a different
			// frame that re-cached the page.
			s.lock()
			if cur, ok := s.table[id]; ok && cur == f {
				delete(s.table, id)
			}
			f.valid = false
			f.defunct.Store(true)
			f.loading.Store(false)
			s.mu.Unlock()
			f.io.Unlock()
			p.releaseDefunct(s, f) // drop the loader's own pin
			return nil, rerr
		}
		f.loading.Store(false)
		f.io.Unlock()
		return f, nil
	}
}

// NewPage allocates a fresh page in file fl, pins it, and formats it with
// the given page type. No read is performed.
func (p *Pool) NewPage(fl store.FileID, t page.Type) (*Frame, error) {
	id, err := p.st.Alloc(fl)
	if err != nil {
		return nil, err
	}
	s := p.shardOf(id)
	for {
		s.lock()
		f, err := s.grabLocked(p)
		if err == ErrPoolExhausted {
			s.mu.Unlock()
			if p.borrow(s) {
				continue
			}
			_ = p.st.Free(id) // allocated above and never used; if Free fails the page is lost space, nothing else
			return nil, ErrPoolExhausted
		}
		if err != nil {
			s.mu.Unlock()
			_ = p.st.Free(id)
			return nil, err
		}
		f.ID = id
		f.valid = true
		f.pin.Store(1)
		f.dirty.Store(true)
		f.score.Store(0)
		f.lastRef.Store(p.refSeq.Load()) // fresh occupant: no inherited age
		f.img.Store(0)                   // a new page: imaged before its first write
		s.table[id] = f
		s.mu.Unlock()
		p.touch(f)
		// Under the content latch: ResidentPages' scan already sees the frame.
		f.mu.Lock()
		f.Data.Init(t)
		f.mu.Unlock()
		return f, nil
	}
}

// grabLocked finds a frame for a new page: the shard's free list first,
// then a materialized frame if the shard is under its limit, then the
// lookaside queue of immediately-reusable frames, then a clock victim.
// Called with s.mu held exclusively.
func (s *shard) grabLocked(p *Pool) (*Frame, error) {
	// Free frames first.
	if len(s.free) > 0 {
		idx := s.free[len(s.free)-1]
		s.free = s.free[:len(s.free)-1]
		f := s.frames[idx]
		f.onFree = false
		f.defunct.Store(false)
		if f.Data == nil {
			f.Data = make(page.Buf, page.Size)
		}
		return f, nil
	}
	// Below this shard's limit: materialize another frame.
	if len(s.frames) < s.limit {
		f := &Frame{idx: len(s.frames), Data: make(page.Buf, page.Size)}
		s.frames = append(s.frames, f)
		return f, nil
	}
	// Lookaside queue: frames that were marked immediately reusable. An
	// entry may be stale (the frame was since reused, freed, or moved to
	// another shard by a borrow), so verify identity and state before
	// taking it.
	for {
		f, ok := s.look.pop()
		if !ok {
			break
		}
		if f.pin.Load() == 0 && !f.valid && !f.onFree &&
			f.idx < len(s.frames) && s.frames[f.idx] == f {
			s.lookHits.Add(1)
			f.defunct.Store(false)
			if f.Data == nil {
				f.Data = make(page.Buf, page.Size)
			}
			return f, nil
		}
	}
	f, err := s.evictLocked(p)
	if err == nil {
		f.defunct.Store(false)
	}
	return f, err
}

// evictLocked runs the clock algorithm over this shard's frames: each
// unpinned frame's score is decayed exponentially per sweep; the first
// frame whose decayed score reaches zero is the victim — or, when writing
// it would need a sync, a frame that costs none (see victimLocked). Called
// with s.mu held exclusively.
func (s *shard) evictLocked(p *Pool) (*Frame, error) {
	n := len(s.frames)
	if n == 0 {
		return nil, ErrPoolExhausted
	}
	// Halving needs up to log2(maxScore) visits per frame to drain a
	// saturated score.
	for pass := 0; pass < 6*n+1; pass++ {
		s.hand = (s.hand + 1) % n
		f := s.frames[s.hand]
		if !f.valid || f.pin.Load() != 0 {
			continue
		}
		decayed := f.score.Load()
		if decayed == 0 {
			v, err := s.victimLocked(p, f)
			if err != nil {
				return nil, err
			}
			delete(s.table, v.ID)
			v.valid = false
			s.evictions.Add(1)
			if v.Data == nil {
				v.Data = make(page.Buf, page.Size)
			}
			return v, nil
		}
		// Exponential decay: each sweep pass halves the score, so every
		// page eventually becomes a candidate if not re-referenced.
		f.score.Store(decayed / 2)
	}
	return nil, ErrPoolExhausted
}

// victimLocked cleans the clock's zero-score victim f, or a frame standing
// in for it, and returns the frame to take. A frame that is clean, a temp
// page, or already written back as far as the log goes is written (if
// dirty) and taken at no sync. Otherwise f is imaged if it needs it and
// kept — the next commit's flush will make it durable — and one more
// rotation, decaying nothing, looks for a zero-score frame that costs no
// sync. Only when none exists does the pool sync the log itself, after
// imaging every other cold dirty frame of the shard so the one sync covers
// a shard's worth of future victims. Called with s.mu held exclusively.
func (s *shard) victimLocked(p *Pool, f *Frame) (*Frame, error) {
	il := p.imageLog()
	if ok, err := s.cleanNoSyncLocked(p, il, f); ok || err != nil {
		return f, err
	}
	s.image(il, f)
	n := len(s.frames)
	for i := 1; i < n; i++ {
		g := s.frames[(s.hand+i)%n]
		if !g.valid || g.pin.Load() != 0 || g.score.Load() != 0 {
			continue
		}
		if ok, err := s.cleanNoSyncLocked(p, il, g); ok || err != nil {
			// The hand follows: the sweep resumes past the frame taken, so
			// the imaged frames ahead of it are the next ones it meets.
			s.hand = g.idx
			return g, err
		}
	}
	need := needLSN(f)
	for _, g := range s.frames {
		if g.valid && g.pin.Load() == 0 && g.score.Load() == 0 && g.dirty.Load() && needsImage(il, g) {
			s.image(il, g)
			need = max(need, needLSN(g))
		}
	}
	// A truncate between the sync and the write takes the image with it:
	// image again. Each retry needs a whole checkpoint to race it.
	for try := 0; try < 3; try++ {
		if err := s.forcedSync(il, need); err != nil {
			return nil, err
		}
		if ok, err := p.writeLogged(s, il, f); ok || err != nil {
			return f, err
		}
		s.image(il, f)
		need = needLSN(f)
	}
	return nil, errImageDiscarded(f.ID)
}

// cleanNoSyncLocked makes f clean if that costs no log sync — it is clean
// already, exempt from the write-back rule, or the rule allows the write
// now — and reports whether it did. Called with s.mu held exclusively and
// f unpinned.
func (s *shard) cleanNoSyncLocked(p *Pool, il ImageLog, f *Frame) (bool, error) {
	switch {
	case !f.dirty.Load():
		return true, nil
	case !needsImage(il, f):
		return true, p.writeBack(s, f)
	}
	return p.writeLogged(s, il, f)
}

// errImageDiscarded is a write-back whose image a truncate discarded after
// each of three appends: only a storm of checkpoints does that.
func errImageDiscarded(id store.PageID) error {
	return fmt.Errorf("buffer: page %v: image discarded by three truncates in a row", id)
}

// borrow moves one frame's worth of capacity from a sibling shard into s,
// so a shard whose pages are all pinned can still serve requests while the
// pool as a whole has room. ErrPoolExhausted is thereby a whole-pool
// verdict, exactly as with the single global lock. Returns false when no
// sibling can spare a frame.
func (p *Pool) borrow(s *shard) bool {
	p.structMu.Lock()
	defer p.structMu.Unlock()
	for _, t := range p.shards {
		if t == s {
			continue
		}
		t.lock()
		// Unmaterialized capacity: transfer the allowance, no frame moves.
		if t.limit > len(t.frames) {
			t.limit--
			t.mu.Unlock()
			s.lock()
			s.limit++
			s.borrows.Add(1)
			s.mu.Unlock()
			return true
		}
		// A free frame.
		if len(t.free) > 0 {
			idx := t.free[len(t.free)-1]
			t.free = t.free[:len(t.free)-1]
			f := t.frames[idx]
			f.onFree = false
			t.removeFrameLocked(idx)
			t.limit--
			t.mu.Unlock()
			p.adopt(s, f)
			return true
		}
		// A clock victim.
		if f, err := t.evictLocked(p); err == nil {
			t.removeFrameLocked(f.idx)
			t.limit--
			t.mu.Unlock()
			p.adopt(s, f)
			return true
		}
		t.mu.Unlock()
	}
	return false
}

// adopt appends a frame taken from another shard to s's population and
// free list.
func (p *Pool) adopt(s *shard, f *Frame) {
	s.lock()
	f.idx = len(s.frames)
	f.onFree = true
	s.frames = append(s.frames, f)
	s.free = append(s.free, f.idx)
	s.limit++
	s.borrows.Add(1)
	s.mu.Unlock()
}

// Unpin releases a pin taken by Get, NewPage, or the flush paths' internal
// pins. FlushPage/FlushAll can pin a table-resident frame whose load is
// still in flight; if that load fails, the flusher may end up holding the
// last pin on a defunct frame, which Unpin must route back to its shard's
// free list — a defunct frame is invisible to the clock and to grabs, so
// nothing else would ever reclaim it.
func (p *Pool) Unpin(f *Frame, dirty bool) {
	if dirty {
		f.dirty.Store(true)
	}
	id := f.ID // stable while our pin is held: re-grabs require pin==0
	n := f.pin.Add(-1)
	if n < 0 {
		panic(fmt.Sprintf("buffer: unpin of unpinned frame %v", id))
	}
	if n == 0 && f.defunct.Load() {
		// The failed-load undo stores defunct before the loader's own
		// releaseDefunct decrement, so whichever decrement reaches zero is
		// guaranteed to observe it; checking only before the decrement would
		// race. freeDefunct re-validates everything under the shard lock, so
		// a false positive (frame re-grabbed in between) backs off safely.
		p.freeDefunct(p.shardOf(id), f)
	}
}

// Discard removes a page from the pool without writing it back and pushes
// its frame onto its shard's lookaside queue for immediate reuse. Used for
// freed heap pages and dropped temporary tables, whose contents are dead.
// The page must be unpinned.
func (p *Pool) Discard(id store.PageID) {
	s := p.shardOf(id)
	s.lock()
	// The page's next life starts without an image.
	s.imgMu.Lock()
	delete(s.imaged, id)
	s.imgMu.Unlock()
	f, ok := s.table[id]
	if !ok || f.pin.Load() != 0 {
		s.mu.Unlock()
		return
	}
	delete(s.table, id)
	f.valid = false
	f.dirty.Store(false)
	s.mu.Unlock()
	if !s.look.push(f) {
		// Queue full: hand the frame back via the free list instead.
		s.lock()
		if !f.onFree && f.idx < len(s.frames) && s.frames[f.idx] == f {
			f.onFree = true
			s.free = append(s.free, f.idx)
		}
		s.mu.Unlock()
	}
}

// FlushPage writes the page back if it is dirty and cached: a batch of one
// (see flush).
func (p *Pool) FlushPage(id store.PageID) error {
	s := p.shardOf(id)
	s.rlock()
	f, ok := s.table[id]
	s.mu.RUnlock()
	if !ok {
		return nil
	}
	return p.flush([]flushItem{{s: s, f: f, id: id}})
}

// FlushAll writes back every dirty page (checkpoint support) under one log
// sync (see flush).
func (p *Pool) FlushAll() error {
	var batch []flushItem
	for _, s := range p.shards {
		s.rlock()
		for _, f := range s.frames {
			if f.valid && f.dirty.Load() {
				batch = append(batch, flushItem{s: s, f: f, id: f.ID})
			}
		}
		s.mu.RUnlock()
	}
	return p.flush(batch)
}

// flushItem is one page of a flush batch: the frame that held it when the
// batch was formed.
type flushItem struct {
	s  *shard
	f  *Frame
	id store.PageID
}

// pin pins the item's frame if it still holds the item's page, and reports
// whether it did.
func (it *flushItem) pin() bool {
	it.s.rlock()
	ok := it.s.table[it.id] == it.f
	if ok {
		it.f.pin.Add(1)
	}
	it.s.mu.RUnlock()
	return ok
}

// flush writes a batch of pages back under the write-back rule with one
// log sync: it images every dirty page of the batch that needs it, flushes
// the log once, then writes each page the rule then allows. A page that
// changed in between goes through flushOne. Frames are pinned only while
// one is imaged or written, so a checkpoint never pins more of the pool
// than the page in hand.
func (p *Pool) flush(batch []flushItem) error {
	il := p.imageLog()
	var need wal.LSN
	for i := range batch {
		it := &batch[i]
		if !it.pin() {
			continue
		}
		it.f.RLock()
		if it.f.dirty.Load() && needsImage(il, it.f) {
			it.s.image(il, it.f)
			need = max(need, needLSN(it.f))
		}
		it.f.RUnlock()
		p.Unpin(it.f, false)
	}
	if need != 0 {
		if _, durable := il.Bounds(); durable < need {
			if err := batch[0].s.forcedSync(il, need); err != nil {
				return err
			}
		}
	}
	changed := batch[:0]
	for _, it := range batch {
		if !it.pin() {
			continue
		}
		it.f.RLock()
		var err error
		written := true
		switch {
		case !it.f.dirty.Load():
		case !needsImage(il, it.f):
			err = p.writeBack(it.s, it.f)
		default:
			written, err = p.writeLogged(it.s, il, it.f)
		}
		it.f.RUnlock()
		p.Unpin(it.f, false)
		if err != nil {
			return err
		}
		if !written {
			changed = append(changed, it)
		}
	}
	for i := range changed {
		if err := p.flushOne(il, &changed[i]); err != nil {
			return err
		}
	}
	return nil
}

// flushOne writes back one page that changed between the batch's sync and
// its write, latched from its image to its write so it cannot change again.
func (p *Pool) flushOne(il ImageLog, it *flushItem) error {
	if !it.pin() {
		return nil
	}
	defer p.Unpin(it.f, false)
	f := it.f
	f.RLock()
	defer f.RUnlock()
	if !f.dirty.Load() {
		return nil
	}
	for try := 0; try < 3; try++ {
		it.s.image(il, f)
		if _, durable := il.Bounds(); durable < needLSN(f) {
			if err := it.s.forcedSync(il, needLSN(f)); err != nil {
				return err
			}
		}
		if ok, err := p.writeLogged(it.s, il, f); ok || err != nil {
			return err
		}
	}
	return errImageDiscarded(it.id)
}

// Resize sets the pool's size (in frames), clamped to the immutable
// bounds, distributing the budget across shards by largest-remainder
// apportionment. Shrinking evicts victims immediately, free frames first,
// writing back dirty pages; frames that cannot be evicted because they are
// pinned keep the pool temporarily above target, and subsequent Resize
// calls retry. Returns the achieved size.
func (p *Pool) Resize(target int) int {
	p.structMu.Lock()
	defer p.structMu.Unlock()
	if target < p.minSize {
		target = p.minSize
	}
	if target > p.maxSize {
		target = p.maxSize
	}
	quotas := apportion(target, len(p.shards))
	total := 0
	for i, s := range p.shards {
		s.lock()
		if quotas[i] >= s.limit {
			s.limit = quotas[i]
		} else {
			s.shrinkLocked(p, quotas[i])
		}
		total += s.limit
		s.mu.Unlock()
	}
	p.limitAtom.Store(int64(total))
	return total
}

// shrinkLocked reduces this shard to target frames, preferring empty
// frames, then clock victims, dropping freed frame memory so the process
// footprint actually falls. Called with s.mu held exclusively.
func (s *shard) shrinkLocked(p *Pool, target int) {
	excess := len(s.frames) - target
	for excess > 0 {
		if len(s.free) > 0 {
			idx := s.free[len(s.free)-1]
			s.free = s.free[:len(s.free)-1]
			f := s.frames[idx]
			f.onFree = false
			f.Data = nil // release memory
			s.removeFrameLocked(idx)
			excess--
			continue
		}
		f, err := s.evictLocked(p)
		if err != nil {
			break // everything pinned; give up for now
		}
		s.steals.Add(1) // an occupied frame stolen from the pool by the shrink
		f.Data = nil
		s.removeFrameLocked(f.idx)
		excess--
	}
	s.limit = len(s.frames)
	if s.limit < target {
		s.limit = target
	}
}

// removeFrameLocked removes the frame at idx from the shard entirely by
// swapping the last frame into its place. Stale lookaside entries for
// either frame are handled at pop time by pointer-identity checks.
func (s *shard) removeFrameLocked(idx int) {
	last := len(s.frames) - 1
	if idx != last {
		moved := s.frames[last]
		s.frames[idx] = moved
		moved.idx = idx
		// Fix the free list entry for the moved frame, if any.
		for i, fi := range s.free {
			if fi == last {
				s.free[i] = idx
				break
			}
		}
	}
	s.frames = s.frames[:last]
	if s.hand >= len(s.frames) && len(s.frames) > 0 {
		s.hand = 0
	}
}

// PinnedCount reports how many frames are currently pinned (diagnostics).
func (p *Pool) PinnedCount() int {
	n := 0
	for _, s := range p.shards {
		s.rlock()
		for _, f := range s.frames {
			if f.valid && f.pin.Load() > 0 {
				n++
			}
		}
		s.mu.RUnlock()
	}
	return n
}

// Contains reports whether the page is currently resident (used by the
// cost model's table-residency statistics).
func (p *Pool) Contains(id store.PageID) bool {
	s := p.shardOf(id)
	s.rlock()
	_, ok := s.table[id]
	s.mu.RUnlock()
	return ok
}

// ResidentPages counts resident pages owned by the given object, by
// scanning frame headers shard by shard. The cost model uses the fraction
// of a table resident in the buffer pool when costing access methods
// (§3.2).
func (p *Pool) ResidentPages(owner uint64) int {
	n := 0
	for _, s := range p.shards {
		s.rlock()
		for _, f := range s.frames {
			// A frame still being read from the store is skipped, not
			// waited for: the loader fills Data under the loading mark (set
			// with valid, under the shard's write lock), not the latch.
			if !f.valid || f.Data == nil || f.loading.Load() {
				continue
			}
			// The owner field is page content, so reading it needs the
			// content latch; TryRLock keeps this scan non-blocking — a
			// frame latched exclusively is mid-modification (or a new page
			// being formatted), and skipping it only perturbs a residency
			// estimate.
			if !f.mu.TryRLock() {
				continue
			}
			if f.Data.Owner() == owner {
				n++
			}
			f.mu.RUnlock()
		}
		s.mu.RUnlock()
	}
	return n
}
