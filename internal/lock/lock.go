// Package lock implements the long-term lock manager. Locks are stored in
// a disk-based extensible hash table (§2.1), which eliminates the need to
// configure a lock-table size or lock-escalation thresholds: the table
// grows by splitting bucket pages in the temporary file.
package lock

import (
	"bytes"
	"cmp"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"iter"
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"anywheredb/internal/buffer"
	"anywheredb/internal/page"
	"anywheredb/internal/store"
	"anywheredb/internal/telemetry"
)

// Mode is a lock mode.
type Mode uint8

const (
	// Shared permits concurrent readers.
	Shared Mode = iota
	// Exclusive permits a single writer.
	Exclusive
	// IntentExclusive marks a coarser object (a table) as "rows below are
	// being written": compatible with other writers' intents, conflicting
	// with a Shared lock on the same object. Locking readers take table-S
	// and block behind it; snapshot readers never call the lock manager.
	IntentExclusive
)

func (m Mode) String() string {
	switch m {
	case Shared:
		return "S"
	case IntentExclusive:
		return "IX"
	default:
		return "X"
	}
}

// ErrTimeout reports that a lock wait exceeded its deadline — the engine's
// deadlock resolution policy.
var ErrTimeout = errors.New("lock: wait timeout (possible deadlock)")

// A lock record is one cell of a bucket page:
// uvarint(obj) uvarint(txn) mode uvarint(len(key)) key.
// Buckets are read where they lie; cellFields' key aliases the page and is
// valid only under the frame's latch.

func appendCell(b []byte, obj, txn uint64, mode Mode, key []byte) []byte {
	b = binary.AppendUvarint(b, obj)
	b = binary.AppendUvarint(b, txn)
	b = append(b, byte(mode))
	b = binary.AppendUvarint(b, uint64(len(key)))
	return append(b, key...)
}

func cellFields(c []byte) (obj, txn uint64, mode Mode, key []byte) {
	obj, n := binary.Uvarint(c)
	c = c[n:]
	txn, n = binary.Uvarint(c)
	mode = Mode(c[n])
	c = c[n+1:]
	kl, n := binary.Uvarint(c)
	return obj, txn, mode, c[n : n+int(kl)]
}

// maxDepth bounds the directory at 2^20 slots.
const maxDepth = 20

// Manager is the lock manager. It is safe for concurrent use.
type Manager struct {
	pool *buffer.Pool
	st   *store.Store

	mu       sync.Mutex
	dir      []store.PageID // extensible hashing directory
	depth    uint           // global depth
	localDep map[store.PageID]uint
	// atDepth counts the buckets at each local depth: the directory halves
	// while none sits at the global depth.
	atDepth [maxDepth + 1]int
	// held lists, per transaction, the hash of every lock record it owns
	// (one per cell, so a hash repeats when a transaction holds S and IX on
	// one object). Release finds the transaction's buckets through it and
	// never walks the directory.
	held map[uint64][]uint64
	// broadcast is closed by the next release. It is nil until a waiter
	// asks for it, so a release with nobody waiting allocates nothing.
	broadcast chan struct{}
	// Timeout bounds lock waits; exceeded waits fail with ErrTimeout.
	Timeout time.Duration

	// waitObs, when set, is called once per Lock call that blocked at
	// least once, with the waiting transaction and the total blocked
	// wall-clock microseconds (reported on every exit: grant, timeout, or
	// error). The flight recorder attributes lock waits to statement spans
	// through this.
	waitObs atomic.Pointer[func(txn uint64, us int64)]

	acquires      atomic.Uint64 // granted lock requests (including re-entrant)
	waits         atomic.Uint64 // requests that blocked at least once
	wakeups       atomic.Uint64 // times a blocked request was woken by a release to re-check
	timeouts      atomic.Uint64 // waits that expired (deadlock resolution)
	releases      atomic.Uint64 // Unlock + ReleaseAll calls
	releaseErrors atomic.Uint64 // ReleaseAll calls that failed part-way
}

// AttachTelemetry publishes the manager's counters into reg under "lock.".
func (m *Manager) AttachTelemetry(reg *telemetry.Registry) {
	reg.GaugeFunc("lock.acquires", func() int64 { return int64(m.acquires.Load()) })
	reg.GaugeFunc("lock.waits", func() int64 { return int64(m.waits.Load()) })
	reg.GaugeFunc("lock.wakeups", func() int64 { return int64(m.wakeups.Load()) })
	reg.GaugeFunc("lock.timeouts", func() int64 { return int64(m.timeouts.Load()) })
	reg.GaugeFunc("lock.releases", func() int64 { return int64(m.releases.Load()) })
	reg.GaugeFunc("lock.release_errors", func() int64 { return int64(m.releaseErrors.Load()) })
	reg.GaugeFunc("lock.buckets", func() int64 { return int64(m.Buckets()) })
}

// SetWaitObserver installs (or replaces) the blocked-wait observer. f is
// called after a Lock call that blocked returns, with the transaction id
// and the total blocked microseconds. A nil f uninstalls.
func (m *Manager) SetWaitObserver(f func(txn uint64, us int64)) {
	if f == nil {
		m.waitObs.Store(nil)
		return
	}
	m.waitObs.Store(&f)
}

// NewManager creates a lock manager with a single bucket.
func NewManager(pool *buffer.Pool, st *store.Store) (*Manager, error) {
	m := &Manager{
		pool:     pool,
		st:       st,
		localDep: make(map[store.PageID]uint),
		held:     make(map[uint64][]uint64),
		Timeout:  2 * time.Second,
	}
	f, err := pool.NewPage(store.TempFile, page.TypeLockTable)
	if err != nil {
		return nil, err
	}
	id := f.ID
	pool.Unpin(f, true)
	m.dir = []store.PageID{id}
	m.localDep[id] = 0
	m.atDepth[0] = 1
	return m, nil
}

// hashLock is FNV-1a over the object id and the key.
func hashLock(obj uint64, key []byte) uint64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	for i := 0; i < 8; i++ {
		h = (h ^ (obj >> (8 * i) & 0xff)) * prime
	}
	for _, b := range key {
		h = (h ^ uint64(b)) * prime
	}
	return h
}

func (m *Manager) bucketFor(h uint64) store.PageID {
	return m.dir[h&((1<<m.depth)-1)]
}

// latchBucket pins and exclusively latches the bucket h hashes to.
func (m *Manager) latchBucket(h uint64) (*buffer.Frame, error) {
	f, err := m.pool.Get(m.bucketFor(h))
	if err != nil {
		return nil, err
	}
	f.Lock()
	return f, nil
}

func (m *Manager) unlatch(f *buffer.Frame, dirty bool) {
	f.Unlock()
	m.pool.Unpin(f, dirty)
}

// tryLock makes one attempt at the request with the bucket pinned once: it
// compares the request with the bucket's cells in place and, when nothing
// conflicts, adds exactly one cell (after deleting the cells an upgrade to
// Exclusive subsumes). It reports false when a conflicting holder exists.
// Called with m.mu held.
func (m *Manager) tryLock(txn, obj uint64, key []byte, mode Mode) (bool, error) {
	h := hashLock(obj, key)
	f, err := m.latchBucket(h)
	if err != nil {
		return false, err
	}
	p := f.Data
	var weaker [2]int // slots of txn's own S and IX cells on this object
	nWeaker, conflict := 0, false
	for i, n := 0, p.NumSlots(); i < n; i++ {
		c := p.Cell(i)
		if c == nil {
			continue
		}
		o, holder, has, k := cellFields(c)
		if o != obj || !bytes.Equal(k, key) {
			continue
		}
		if holder != txn {
			// S-S and IX-IX coexist; every other pair conflicts.
			conflict = conflict || mode == Exclusive || has == Exclusive || has != mode
			continue
		}
		// Exclusive subsumes every mode; S and IX cover only themselves (a
		// transaction holding both is effectively SIX).
		if has == Exclusive || has == mode {
			m.unlatch(f, false)
			return true, nil
		}
		weaker[nWeaker] = i
		nWeaker++
	}
	if conflict {
		m.unlatch(f, false)
		return false, nil
	}
	if mode == Exclusive && nWeaker > 0 {
		// Upgrade: X subsumes our weaker locks. S and IX are not ordered, so
		// a transaction adding one while holding the other keeps both cells.
		for _, slot := range weaker[:nWeaker] {
			p.Delete(slot)
		}
		m.forget(txn, h, nWeaker)
	}
	var buf [64]byte
	cell := appendCell(buf[:0], obj, txn, mode, key)
	for f.Data.Insert(cell) < 0 {
		// The bucket is full: split it (extensible hashing — local depth
		// grows; past the global depth the directory doubles) and go on in
		// whichever half the request now hashes to.
		err := m.splitBucket(f, h)
		m.unlatch(f, true)
		if err != nil {
			return false, err
		}
		if f, err = m.latchBucket(h); err != nil {
			return false, err
		}
	}
	m.unlatch(f, true)
	hs := m.held[txn]
	if hs == nil {
		hs = make([]uint64, 0, 4) // a one-row statement holds two or three locks
	}
	m.held[txn] = append(hs, h)
	return true, nil
}

// forget drops n occurrences of h from txn's held list.
func (m *Manager) forget(txn, h uint64, n int) {
	hs := m.held[txn]
	kept := hs[:0]
	for _, x := range hs {
		if x == h && n > 0 {
			n--
			continue
		}
		kept = append(kept, x)
	}
	if len(kept) == 0 {
		delete(m.held, txn)
		return
	}
	m.held[txn] = kept
}

// splitBucket moves the cells of the latched bucket f, which h hashes to,
// whose hash has bit (local depth) set into a new sibling bucket. Called
// with m.mu held.
func (m *Manager) splitBucket(f *buffer.Frame, h uint64) error {
	id := f.ID
	ld := m.localDep[id]
	if ld >= maxDepth {
		return fmt.Errorf("lock: hash directory too deep")
	}
	sf, err := m.pool.NewPage(store.TempFile, page.TypeLockTable)
	if err != nil {
		return err
	}
	sib := sf.ID
	for i, n := 0, f.Data.NumSlots(); i < n; i++ {
		c := f.Data.Cell(i)
		if c == nil {
			continue
		}
		if obj, _, _, key := cellFields(c); hashLock(obj, key)>>ld&1 == 1 {
			sf.Data.Insert(c) // cannot fail: every cell came out of one page
			f.Data.Delete(i)
		}
	}
	m.pool.Unpin(sf, true)
	if ld == m.depth {
		m.dir = append(m.dir, m.dir...)
		m.depth++
	}
	m.localDep[id], m.localDep[sib] = ld+1, ld+1
	m.atDepth[ld]--
	m.atDepth[ld+1] += 2
	// Directory slots that pointed at id and have bit ld set now point at sib.
	for i := int(h&(1<<ld-1)) | 1<<ld; i < len(m.dir); i += 1 << (ld + 1) {
		m.dir[i] = sib
	}
	return nil
}

// newWaitTimer builds the single wait-deadline timer a contended Lock call
// uses. A test seam: the regression test swaps it to count allocations and
// observe Stop — the retry loop must create at most one timer per Lock
// call, not one per wake-up (time.After in the loop leaked a timer every
// iteration, each lingering until the full Timeout elapsed), and the timer
// must be stopped on every exit path, including a context cancellation
// that lands between a wake-up and the re-check under the mutex.
var newWaitTimer = time.NewTimer

// Lock acquires (or upgrades to) the given mode for txn, waiting up to
// Timeout for conflicting holders to release.
func (m *Manager) Lock(txn, obj uint64, key []byte, mode Mode) error {
	return m.LockCtx(context.Background(), txn, obj, key, mode)
}

// LockCtx is Lock under a context: a cancelled or expired ctx aborts the
// wait with ctx's error (the statement-deadline path of the network
// server rides this). The wait uses one timer for the whole call, stopped
// on return no matter how many times the waiter is woken and re-blocked
// and no matter which path — grant, timeout, error, or cancellation
// observed either in the select or at the re-check — exits the loop.
func (m *Manager) LockCtx(ctx context.Context, txn, obj uint64, key []byte, mode Mode) error {
	deadline := time.Now().Add(m.Timeout)
	var timer *time.Timer
	var expired <-chan time.Time
	var blockStart time.Time // zero until the first block
	defer func() {
		if timer != nil {
			timer.Stop()
		}
		if !blockStart.IsZero() {
			if f := m.waitObs.Load(); f != nil {
				(*f)(txn, time.Since(blockStart).Microseconds())
			}
		}
	}()
	var done <-chan struct{}
	if ctx != nil {
		done = ctx.Done()
	}
	for {
		// Re-check cancellation before taking the mutex: a waiter woken by
		// a release races the canceller, and the statement must not acquire
		// a lock its context has already abandoned.
		if ctx != nil {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		m.mu.Lock()
		if !blockStart.IsZero() {
			// Counted under the mutex that also hands out the next broadcast
			// channel: whoever sees the count move and then releases a lock
			// wakes this waiter again.
			m.wakeups.Add(1)
		}
		granted, err := m.tryLock(txn, obj, key, mode)
		if granted || err != nil {
			m.mu.Unlock()
			if granted {
				m.acquires.Add(1)
			}
			return err
		}
		if m.broadcast == nil {
			m.broadcast = make(chan struct{})
		}
		ch := m.broadcast
		m.mu.Unlock()

		if timer == nil {
			remain := time.Until(deadline)
			if remain <= 0 {
				m.timeouts.Add(1)
				return ErrTimeout
			}
			timer = newWaitTimer(remain)
			expired = timer.C
		}
		if blockStart.IsZero() {
			blockStart = time.Now()
			m.waits.Add(1)
		}
		select {
		case <-ch:
			// Locks were released somewhere; retry.
		case <-done:
			return ctx.Err()
		case <-expired:
			m.timeouts.Add(1)
			return ErrTimeout
		}
	}
}

// release deletes txn's cells from the bucket h hashes to — those on
// (obj, key), or every one when all is set — with the bucket pinned once,
// and reports how many it deleted. A bucket it leaves empty is coalesced.
// Called with m.mu held.
func (m *Manager) release(h, txn uint64, all bool, obj uint64, key []byte) (int, error) {
	f, err := m.latchBucket(h)
	if err != nil {
		return 0, err
	}
	p := f.Data
	deleted, kept := 0, 0
	for i, n := 0, p.NumSlots(); i < n; i++ {
		c := p.Cell(i)
		if c == nil {
			continue
		}
		o, holder, _, k := cellFields(c)
		if holder == txn && (all || (o == obj && bytes.Equal(k, key))) {
			p.Delete(i)
			deleted++
		} else {
			kept++
		}
	}
	m.unlatch(f, deleted > 0)
	if deleted > 0 && kept == 0 {
		return deleted, m.coalesce(h)
	}
	return deleted, nil
}

// coalesce folds the empty bucket h hashes to into its buddy — the bucket
// whose directory pattern differs in the top bit of their common local
// depth — frees its page, halves the directory while no bucket sits at the
// global depth, and goes on with the surviving bucket while that is empty
// too: what one bulk transaction grew shrinks back when it ends.
func (m *Manager) coalesce(h uint64) error {
	for {
		id := m.bucketFor(h)
		ld := m.localDep[id]
		if ld == 0 {
			return nil
		}
		pattern := int(h & (1<<ld - 1))
		buddy := m.dir[pattern^1<<(ld-1)]
		if m.localDep[buddy] != ld {
			return nil // the buddy has split further; nothing to fold into
		}
		for i := pattern; i < len(m.dir); i += 1 << ld {
			m.dir[i] = buddy
		}
		delete(m.localDep, id)
		m.localDep[buddy] = ld - 1
		m.atDepth[ld] -= 2
		m.atDepth[ld-1]++
		for m.depth > 0 && m.atDepth[m.depth] == 0 {
			m.depth--
			m.dir = m.dir[:1<<m.depth]
		}
		m.pool.Discard(id)
		if err := m.st.Free(id); err != nil {
			return err
		}
		f, err := m.latchBucket(h)
		if err != nil {
			return err
		}
		empty := f.Data.LiveCells() == 0
		m.unlatch(f, false)
		if !empty {
			return nil
		}
	}
}

// Unlock releases one lock held by txn.
func (m *Manager) Unlock(txn, obj uint64, key []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	h := hashLock(obj, key)
	n, err := m.release(h, txn, false, obj, key)
	m.forget(txn, h, n)
	if err != nil {
		return err
	}
	m.releases.Add(1)
	m.wake()
	return nil
}

// perBucket yields one hash (and its index) per distinct bucket that the
// hashes of hs map to. It sorts hs by low bits first, the order in which
// the directory assigns hashes to buckets, so the hashes of one bucket are
// adjacent whatever the directory's depth — and stay so while the loop
// body coalesces buckets, which merges neighbours in exactly that order.
func (m *Manager) perBucket(hs []uint64) iter.Seq2[int, uint64] {
	return func(yield func(int, uint64) bool) {
		slices.SortFunc(hs, func(a, b uint64) int { return cmp.Compare(bits.Reverse64(a), bits.Reverse64(b)) })
		var last store.PageID
		for i, h := range hs {
			if id := m.bucketFor(h); i == 0 || id != last {
				last = id
				if !yield(i, h) {
					return
				}
			}
		}
	}
}

// ReleaseAll drops every lock held by txn (commit/rollback): one pin per
// distinct bucket on its held list, never the directory. When a bucket
// cannot be read, the locks not yet released stay on the held list and the
// error is returned, so calling ReleaseAll again finishes the job.
func (m *Manager) ReleaseAll(txn uint64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	hs := m.held[txn]
	for i, h := range m.perBucket(hs) {
		if _, err := m.release(h, txn, true, 0, nil); err != nil {
			m.held[txn] = hs[i:]
			m.releaseErrors.Add(1)
			m.wake()
			return err
		}
	}
	delete(m.held, txn)
	m.releases.Add(1)
	m.wake()
	return nil
}

// wake signals waiters that locks were released. Called with m.mu held.
func (m *Manager) wake() {
	if m.broadcast != nil {
		close(m.broadcast)
		m.broadcast = nil
	}
}

// Held counts the lock records txn owns in the bucket pages, reading each
// bucket on its held list once (for tests and monitoring).
func (m *Manager) Held(txn uint64) (int, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	total := 0
	for _, h := range m.perBucket(m.held[txn]) {
		f, err := m.latchBucket(h)
		if err != nil {
			return 0, err
		}
		for i, n := 0, f.Data.NumSlots(); i < n; i++ {
			if c := f.Data.Cell(i); c != nil {
				if _, holder, _, _ := cellFields(c); holder == txn {
					total++
				}
			}
		}
		m.unlatch(f, false)
	}
	return total, nil
}

// HeldCount is the length of txn's held list: what Held counts, without
// reading a page.
func (m *Manager) HeldCount(txn uint64) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.held[txn])
}

// Buckets reports the number of bucket pages (grows and shrinks with lock
// volume, without any configuration).
func (m *Manager) Buckets() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.localDep)
}
