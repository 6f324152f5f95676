// Package lock implements the long-term lock manager, in memory (§2.1).
// It holds two things: table locks, and waits on transactions. Both are
// bounded by the open transactions — a table lock is a record per table a
// transaction holds or waits for, a wait is one blocked call — so there is
// no lock table to size and nothing to escalate.
//
// Row locks are implicit. An INSERT, UPDATE or DELETE asks for none: the
// unpublished version entry its write leaves at the head of the row's
// version chain is its X lock until the writer settles, and the writer
// re-checks under the page latch it writes under that no other live
// transaction holds the row. A writer that meets a row another transaction
// holds waits for that transaction to end (WaitFor), as PostgreSQL's
// XactLockTableWait does, and then reads the row again. A writer holds its
// table's intent lock from its first write until it settles, so "holds a
// lock here" is "is a live writer".
package lock

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"
)

// Mode is a lock mode.
type Mode uint8

const (
	// Exclusive permits a single holder: DDL's table lock.
	Exclusive Mode = iota
	// IntentExclusive marks a table as "rows below are being written":
	// compatible with other writers' intents, conflicting with an
	// Exclusive lock on the same table. DDL's table-X waits behind it;
	// readers read snapshots and never call the lock manager.
	IntentExclusive
)

func (m Mode) String() string {
	if m == IntentExclusive {
		return "IX"
	}
	return "X"
}

// ErrDeadlock refuses a request whose wait would close a cycle of waits:
// its requester is the victim. The manager takes none of its locks; its
// caller ends its transaction, which releases them.
var ErrDeadlock = errors.New("lock: deadlock: the wait would close a cycle; retry the transaction")

// Manager is the lock manager. It is safe for concurrent use.
type Manager struct {
	mu sync.Mutex
	// held is the table grants of each transaction that holds a lock.
	// Emptied lists are kept in free for the next transaction, so a steady
	// stream of transactions allocates no bookkeeping.
	held map[uint64][]tableGrant
	free [][]tableGrant
	// tables is the lock record of every table somebody holds or waits for
	// a lock on.
	tables map[uint64]tableLock
	// waiting is what each blocked call waits for, by its transaction: the
	// edges of the waits-for graph (with held and tables) that a call about
	// to block walks for a cycle. walk and seen are that walk's scratch,
	// reused under mu.
	waiting map[uint64]request
	walk    []uint64
	seen    map[uint64]struct{}
	// broadcast is closed by the next release. It is nil until a waiter
	// asks for it, so a release with nobody waiting allocates nothing.
	broadcast chan struct{}

	// waitObs, when set, is called once per LockCtx or WaitFor call that
	// blocked at least once, with the total blocked wall-clock
	// microseconds (reported on every exit: grant, refusal, or error): the
	// engine-wide wait registry. The caller gets the same measurement back
	// to charge its own statement.
	waitObs atomic.Pointer[func(us int64)]

	Counters
}

// Counters is what a manager counts, for its owner to publish.
type Counters struct {
	Acquires  atomic.Uint64 // granted lock requests (including re-entrant)
	RowWaits  atomic.Uint64 // WaitFor calls that found a live holder
	Waits     atomic.Uint64 // calls that blocked at least once
	Wakeups   atomic.Uint64 // times a blocked call was woken by a release to re-check
	Deadlocks atomic.Uint64 // requests refused with ErrDeadlock
	Releases  atomic.Uint64 // ReleaseAll calls
}

// SetWaitObserver installs (or replaces) the blocked-wait observer f: it
// is called after a LockCtx or WaitFor call that blocked returns, with the
// total blocked microseconds.
func (m *Manager) SetWaitObserver(f func(us int64)) { m.waitObs.Store(&f) }

// NewManager creates an empty lock manager.
func NewManager() *Manager {
	return &Manager{
		held:    make(map[uint64][]tableGrant),
		tables:  make(map[uint64]tableLock),
		waiting: make(map[uint64]request),
		seen:    make(map[uint64]struct{}),
	}
}

// tableGrant is the mode a transaction holds on one table. Exclusive
// subsumes IntentExclusive, so one mode says it all.
type tableGrant struct {
	obj  uint64
	mode Mode
}

// tableLock is a table's lock record: how many transactions hold it in
// each mode, and the requests waiting for it in arrival order.
type tableLock struct {
	granted [2]int32 // indexed by Mode
	queue   []tableWaiter
}

// tableWaiter is a queued request. A transaction waits for one lock at a
// time, so its id names the request.
type tableWaiter struct {
	txn  uint64
	mode Mode
}

// compatible reports whether two transactions may hold a and b on one
// table at once: only IX-IX coexist.
func compatible(a, b Mode) bool {
	return a == IntentExclusive && b == IntentExclusive
}

// grantOf returns txn's grants and the index of its grant on table obj
// (-1 when it holds none). Called with m.mu held.
func (m *Manager) grantOf(txn, obj uint64) ([]tableGrant, int) {
	gs := m.held[txn]
	for i, g := range gs {
		if g.obj == obj {
			return gs, i
		}
	}
	return gs, -1
}

// tryTable makes one attempt at a table-lock request. A transaction
// holding nothing on the table also waits behind every queued request
// ahead of its own (all of them, when it has not queued) that it conflicts
// with, so a waiting X is not starved by a stream of new IX; a holder's
// request is decided by the grants alone. A granted request leaves the
// queue. Called with m.mu held.
func (m *Manager) tryTable(txn, obj uint64, mode Mode) bool {
	gs, i := m.grantOf(txn, obj)
	if i >= 0 && (gs[i].mode == Exclusive || gs[i].mode == mode) {
		return true // re-entrant: never a queued request, whose transaction is waiting in it
	}
	tl := m.tables[obj]
	for o, n := range tl.granted {
		if i >= 0 && gs[i].mode == Mode(o) {
			n-- // txn's own
		}
		if n > 0 && !compatible(mode, Mode(o)) {
			return false
		}
	}
	if i < 0 {
		for _, w := range tl.queue {
			if w.txn == txn {
				break
			}
			if !compatible(mode, w.mode) {
				return false
			}
		}
	}
	if i >= 0 {
		tl.granted[gs[i].mode]-- // an upgrade: X subsumes the IX it replaces
		gs[i].mode = mode
	} else {
		if gs == nil {
			if n := len(m.free); n > 0 {
				gs, m.free = m.free[n-1], m.free[:n-1]
			} else {
				gs = make([]tableGrant, 0, 4)
			}
		}
		m.held[txn] = append(gs, tableGrant{obj: obj, mode: mode})
	}
	tl.granted[mode]++
	tl.queue = dequeue(tl.queue, txn)
	m.tables[obj] = tl
	return true
}

// enqueue gives a blocked table-lock request its place at the end of the
// table's queue. Called with m.mu held.
func (m *Manager) enqueue(txn, obj uint64, mode Mode) {
	tl := m.tables[obj]
	tl.queue = append(tl.queue, tableWaiter{txn: txn, mode: mode})
	m.tables[obj] = tl
}

// leaveQueue takes txn's request, which gives up waiting, out of obj's
// queue. Requests queued behind it may now be granted: they are woken.
// Called with m.mu held.
func (m *Manager) leaveQueue(txn, obj uint64) {
	tl := m.tables[obj]
	tl.queue = dequeue(tl.queue, txn)
	m.putTable(obj, tl)
	m.wake()
}

func dequeue(q []tableWaiter, txn uint64) []tableWaiter {
	for i, w := range q {
		if w.txn == txn {
			return append(q[:i], q[i+1:]...)
		}
	}
	return q
}

// putTable stores obj's lock record, or drops it once nobody holds or
// waits for the table. Called with m.mu held.
func (m *Manager) putTable(obj uint64, tl tableLock) {
	if tl.granted == [2]int32{} && len(tl.queue) == 0 {
		delete(m.tables, obj)
		return
	}
	m.tables[obj] = tl
}

// LockCtx acquires (or upgrades to) the given mode on table obj for txn,
// waiting for conflicting holders to release until ctx ends, and returns
// how long the call was blocked: zero when it never was. It fails at once
// with ErrDeadlock when waiting would close a cycle.
func (m *Manager) LockCtx(ctx context.Context, txn, obj uint64, mode Mode) (time.Duration, error) {
	blocked, err := m.wait(ctx, txn, request{obj: obj, mode: mode})
	if err == nil {
		m.Acquires.Add(1)
	}
	return blocked, err
}

// WaitFor blocks txn until transaction holder holds no lock — until its
// ReleaseAll — or ctx ends, as LockCtx waits. It returns at once when
// holder holds nothing: a settled holder, a rolled-back one whose version
// entry is not yet reclaimed, or one that never locked. Holder 0 names no
// transaction, and txn does not wait for itself.
func (m *Manager) WaitFor(ctx context.Context, txn, holder uint64) (time.Duration, error) {
	if holder == 0 || holder == txn {
		return 0, nil
	}
	return m.wait(ctx, txn, request{holder: holder})
}

// request is what a call waits for: the end of transaction holder when it
// is set, else mode on table obj.
type request struct {
	obj    uint64
	mode   Mode
	holder uint64
}

// wait is the one wait loop of LockCtx and WaitFor. Before each block it
// looks for a cycle through what txn waits for, and then records that in
// waiting until it is woken or returns. blocked is the time from the first
// block to the return, zero for a call that never blocked.
func (m *Manager) wait(ctx context.Context, txn uint64, r request) (blocked time.Duration, err error) {
	var blockStart time.Time // zero until the first block
	// A table-lock request queues when it first blocks; settled is set once
	// a grant or a refusal has left no record of the call behind.
	queued, settled := false, false
	defer func() {
		if !settled && (queued || !blockStart.IsZero()) {
			m.mu.Lock()
			delete(m.waiting, txn)
			if queued {
				m.leaveQueue(txn, r.obj)
			}
			m.mu.Unlock()
		}
		if !blockStart.IsZero() {
			blocked = time.Since(blockStart)
			if f := m.waitObs.Load(); f != nil {
				(*f)(blocked.Microseconds())
			}
		}
	}()
	for {
		// Re-check cancellation before taking the mutex: a waiter woken by
		// a release races the canceller, and the statement must not acquire
		// a lock its context has already abandoned.
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		m.mu.Lock()
		if !blockStart.IsZero() {
			// Counted under the mutex that also hands out the next broadcast
			// channel: whoever sees the count move and then releases a lock
			// wakes this waiter again.
			m.Wakeups.Add(1)
			delete(m.waiting, txn) // back below if it blocks again
		}
		var granted bool
		if r.holder != 0 {
			granted = m.held[r.holder] == nil
		} else if granted = m.tryTable(txn, r.obj, r.mode); !granted && !queued {
			m.enqueue(txn, r.obj, r.mode)
			queued = true
		}
		var refusal error
		if !granted && m.closesCycle(txn, r) {
			refusal = ErrDeadlock
			m.Deadlocks.Add(1)
			if queued {
				m.leaveQueue(txn, r.obj) // before anyone can block behind it
			}
		}
		if granted || refusal != nil {
			settled = true
			m.mu.Unlock()
			return 0, refusal
		}
		m.waiting[txn] = r
		if m.broadcast == nil {
			m.broadcast = make(chan struct{})
		}
		ch := m.broadcast
		m.mu.Unlock()

		if blockStart.IsZero() {
			if r.holder != 0 {
				m.RowWaits.Add(1)
			}
			blockStart = time.Now()
			m.Waits.Add(1)
		}
		select {
		case <-ch:
			// Locks were released somewhere; retry.
		case <-ctx.Done():
			return 0, ctx.Err()
		}
	}
}

// closesCycle reports whether txn blocking on r would close a cycle of
// waits: whether a transaction r waits for waits, directly or through
// others, for txn. The graph has at most one node per open transaction.
// Called with m.mu held.
func (m *Manager) closesCycle(txn uint64, r request) bool {
	next := m.blockers(m.walk[:0], txn, r)
	clear(m.seen)
	found := false
	for len(next) > 0 && !found {
		b := next[len(next)-1]
		next = next[:len(next)-1]
		found = b == txn
		if _, done := m.seen[b]; !found && !done {
			if w, ok := m.waiting[b]; ok {
				m.seen[b] = struct{}{}
				next = m.blockers(next, b, w)
			}
		}
	}
	m.walk = next[:0]
	return found
}

// blockers appends to dst the transactions txn's request r waits for, as
// tryTable decides it: the holder of a row wait while it still holds; for a
// table request, every other transaction holding a conflicting grant on the
// table, and, unless txn holds the table already, each conflicting request
// queued ahead of txn's. Called with m.mu held.
func (m *Manager) blockers(dst []uint64, txn uint64, r request) []uint64 {
	if r.holder != 0 {
		if m.held[r.holder] != nil {
			dst = append(dst, r.holder)
		}
		return dst
	}
	for h, gs := range m.held {
		for _, g := range gs {
			if g.obj == r.obj && h != txn && !compatible(r.mode, g.mode) {
				dst = append(dst, h)
			}
		}
	}
	if _, i := m.grantOf(txn, r.obj); i < 0 {
		for _, w := range m.tables[r.obj].queue {
			if w.txn == txn {
				break
			}
			if !compatible(r.mode, w.mode) {
				dst = append(dst, w.txn)
			}
		}
	}
	return dst
}

// ReleaseAll drops every lock held by txn (commit/rollback) and wakes the
// waiters: those queued for its tables and those waiting for txn itself.
func (m *Manager) ReleaseAll(txn uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.Releases.Add(1)
	gs, ok := m.held[txn]
	if !ok {
		return
	}
	for _, g := range gs {
		tl := m.tables[g.obj]
		tl.granted[g.mode]--
		m.putTable(g.obj, tl)
	}
	delete(m.held, txn)
	// A list a bulk transaction grew is dropped instead of kept.
	if cap(gs) <= 64 {
		m.free = append(m.free, gs[:0])
	}
	m.wake()
}

// wake signals waiters that locks were released. Called with m.mu held.
func (m *Manager) wake() {
	if m.broadcast != nil {
		close(m.broadcast)
		m.broadcast = nil
	}
}

// HeldCount is the number of table locks txn holds. It is not zero while
// a row's implicit owner is live: a writer holds its table's intent lock
// from its first write until it settles.
func (m *Manager) HeldCount(txn uint64) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.held[txn])
}
