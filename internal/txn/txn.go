// Package txn provides ACID transactions over the write-ahead log and the
// lock manager: begin/commit/rollback, with undo actions collected as the
// transaction modifies data.
package txn

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"anywheredb/internal/faultinject"
	"anywheredb/internal/lock"
	"anywheredb/internal/mvcc"
	"anywheredb/internal/wal"
)

// ErrDone is returned when a finished transaction is used again.
var ErrDone = errors.New("txn: transaction already committed or rolled back")

// Manager creates transactions and owns the id sequence.
type Manager struct {
	log   *wal.Log
	locks *lock.Manager
	inj   faultinject.Injector

	mu     sync.Mutex
	next   uint64
	active map[uint64]*Txn

	// commitMu serializes commit publication so the commit sequence is
	// dense and every snapshot watermark is a consistent prefix: a commit
	// stamps all its version entries with the next CSN, then advances
	// commitSeq. Snapshots read commitSeq, so a half-stamped commit is
	// always above their watermark (invisible) until published.
	commitMu  sync.Mutex
	commitSeq atomic.Uint64

	// snapMu guards the registry of live snapshots (statement snapshots
	// and BEGIN READ ONLY transaction snapshots); vacuum computes its
	// reclaim threshold under the same mutex so a snapshot can never be
	// acquired "in the past" of a concurrent vacuum pass.
	snapMu sync.Mutex
	snaps  map[uint64]snapState

	// logMu orders a transaction's first log record against a checkpoint's
	// decision to truncate the log (see QuietMark and IfQuiet): logging counts
	// the open transactions that have logged a record, firsts every
	// transaction that ever did.
	logMu   sync.Mutex
	logging int
	firsts  uint64

	// commitWaitObs, when set, is called with the transaction id and the
	// wall-clock microseconds Commit/Rollback spent blocked in the WAL
	// flush. The id lets the flight recorder attribute the wait to the
	// statement span bound to the transaction.
	commitWaitObs atomic.Pointer[func(txnID uint64, us int64)]

	// reclaimObs, when set, receives the number of version entries each
	// eager commit/rollback reclamation freed (telemetry).
	reclaimObs atomic.Pointer[func(n int)]
}

// SetReclaimObserver installs (or replaces) the eager-reclaim observer. A
// nil f uninstalls.
func (m *Manager) SetReclaimObserver(f func(n int)) {
	if f == nil {
		m.reclaimObs.Store(nil)
		return
	}
	m.reclaimObs.Store(&f)
}

func (m *Manager) noteReclaim(n int) {
	if f := m.reclaimObs.Load(); f != nil {
		(*f)(n)
	}
}

// SetCommitWaitObserver installs (or replaces) the commit durability-wait
// observer. A nil f uninstalls.
func (m *Manager) SetCommitWaitObserver(f func(txnID uint64, us int64)) {
	if f == nil {
		m.commitWaitObs.Store(nil)
		return
	}
	m.commitWaitObs.Store(&f)
}

// flushTo is the FlushTo wait path for one transaction, timed for the
// commit-wait observer.
func (m *Manager) flushTo(id uint64, lsn wal.LSN) error {
	f := m.commitWaitObs.Load()
	if f == nil {
		return m.log.FlushTo(lsn)
	}
	start := time.Now()
	err := m.log.FlushTo(lsn)
	(*f)(id, time.Since(start).Microseconds())
	return err
}

// NewManager builds a transaction manager. locks may be nil for a
// single-user (embedded, exclusive) database.
func NewManager(log *wal.Log, locks *lock.Manager) *Manager {
	return &Manager{log: log, locks: locks, next: 1, active: map[uint64]*Txn{},
		snaps: map[uint64]snapState{}}
}

// StartIDsAt raises the local id sequence floor to base. A replica calls it
// so locally issued ids (read-only transactions, snapshots) can never
// collide with the primary transaction ids arriving in the shipped WAL
// stream — a collision would make Snapshot.Self match a streaming writer
// and expose its uncommitted versions to a local reader.
func (m *Manager) StartIDsAt(base uint64) {
	m.mu.Lock()
	if m.next < base {
		m.next = base
	}
	m.mu.Unlock()
}

// Begin starts a read-write transaction. It logs nothing: a reader of the
// log learns of the transaction from its first record.
func (m *Manager) Begin() *Txn { return m.begin(false) }

// BeginRO starts a read-only transaction. It writes nothing to the WAL —
// there is nothing to recover — and Commit/Rollback only release its bound
// snapshot and deregister it.
func (m *Manager) BeginRO() *Txn {
	return m.begin(true)
}

func (m *Manager) begin(ro bool) *Txn {
	m.mu.Lock()
	id := m.next
	m.next++
	t := &Txn{id: id, m: m, ro: ro, began: time.Now()}
	m.active[id] = t
	m.mu.Unlock()
	return t
}

// Adopt registers and returns the local stand-in for primary transaction
// id, whose records a replica is replaying from the shipped log. It is a
// real transaction: it owns the version entries and compensations the
// table's mutation kernels register, sits in the active registry (vacuum's
// writer-gone rule and sys.transactions see it), and settles through
// Commit and Rollback like any other. But it takes no locks — the
// primary's locks already ordered the stream — and logs nothing: its
// frames, including its compensations and the commit or rollback record
// that settles it, are in the local log before they are applied. Recovery
// adopts the transactions of the log it replays the same way.
func (m *Manager) Adopt(id uint64) *Txn {
	t := &Txn{id: id, m: m, shipped: true, began: time.Now()}
	m.mu.Lock()
	m.active[id] = t
	m.next = max(m.next, id+1) // no later id may name a logged transaction
	m.mu.Unlock()
	t.noteLogged() // its records are arriving in the local log
	return t
}

// noQuiet is the mark of a moment that was not quiet; no later one matches.
const noQuiet = ^uint64(0)

// QuietMark returns the mark a checkpoint takes before it flushes pages and
// hands to IfQuiet afterwards.
func (m *Manager) QuietMark() uint64 {
	m.logMu.Lock()
	defer m.logMu.Unlock()
	if m.logging != 0 {
		return noQuiet
	}
	return m.firsts
}

// IfQuiet runs truncate only if the log holds nothing an open transaction
// needs and nothing newer than the pages the checkpoint flushed: no
// transaction that has logged a record was open when mark was taken, and
// none has logged its first since — so none is open now, and every page
// change a logged record describes was made before the flush began. (One
// open at the mark may dirty a page the flush has already passed and then
// commit: its records are that page's only redo, however quiet the manager
// looks afterwards.) A first record arriving meanwhile waits until truncate
// returns and lands in the new log. Without the rule, a checkpoint beside an
// open transaction flushed its uncommitted rows and then discarded the
// records that would undo them.
func (m *Manager) IfQuiet(mark uint64, truncate func() error) error {
	m.logMu.Lock()
	defer m.logMu.Unlock()
	if m.firsts != mark {
		return nil
	}
	return truncate()
}

// IsActive reports whether the given transaction is still in flight.
// Vacuum uses it to distinguish a rolled-back version entry (writer gone,
// CSN never published) from one whose writer may yet commit.
func (m *Manager) IsActive(id uint64) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	_, ok := m.active[id]
	return ok
}

// CommitSeq returns the published commit horizon.
func (m *Manager) CommitSeq() uint64 { return m.commitSeq.Load() }

// snapState is one live snapshot in the registry.
type snapState struct {
	csn   uint64
	began time.Time
}

// AcquireSnapshot makes s, a snapshot the caller owns, a new registered
// snapshot at the current commit horizon, and returns it. self, when
// nonzero, is the read-write transaction the snapshot serves (its own
// uncommitted writes stay visible to it). The snapshot pins versions from
// reclamation until ReleaseSnapshot; then s may be acquired again.
func (m *Manager) AcquireSnapshot(s *mvcc.Snapshot, self uint64) *mvcc.Snapshot {
	m.mu.Lock()
	id := m.next
	m.next++
	m.mu.Unlock()
	m.snapMu.Lock()
	csn := m.commitSeq.Load()
	m.snaps[id] = snapState{csn: csn, began: time.Now()}
	m.snapMu.Unlock()
	*s = mvcc.Snapshot{ID: id, CSN: csn, Self: self}
	return s
}

// ReleaseSnapshot unpins s. Safe on nil.
func (m *Manager) ReleaseSnapshot(s *mvcc.Snapshot) {
	if s == nil {
		return
	}
	m.snapMu.Lock()
	delete(m.snaps, s.ID)
	m.snapMu.Unlock()
}

// VacuumThreshold returns the CSN at or below which every live and future
// snapshot sees all commits: the oldest active snapshot's watermark, or
// the commit horizon when no snapshot is open. Reading commitSeq under
// snapMu (the same mutex AcquireSnapshot registers under) guarantees no
// snapshot older than the returned threshold can appear afterwards.
func (m *Manager) VacuumThreshold() uint64 {
	m.snapMu.Lock()
	defer m.snapMu.Unlock()
	th := m.commitSeq.Load()
	for _, s := range m.snaps {
		if s.csn < th {
			th = s.csn
		}
	}
	return th
}

// OldestSnapshot returns the smallest watermark among live snapshots, and
// whether any snapshot is live at all.
func (m *Manager) OldestSnapshot() (uint64, bool) {
	m.snapMu.Lock()
	defer m.snapMu.Unlock()
	var oldest uint64
	found := false
	for _, s := range m.snaps {
		if !found || s.csn < oldest {
			oldest, found = s.csn, true
		}
	}
	return oldest, found
}

// TxnInfo is one row of sys.transactions: a live transaction as seen by
// the manager.
type TxnInfo struct {
	ID          uint64
	ReadOnly    bool
	AgeUS       int64
	SnapshotID  uint64 // registry id of the bound snapshot; 0 = none
	SnapshotCSN uint64 // watermark of the bound snapshot; 0 = none
	UndoBytes   int64
}

// SnapInfo is one live snapshot (possibly bound to a transaction).
type SnapInfo struct {
	ID    uint64
	CSN   uint64
	AgeUS int64
}

// Transactions lists the in-flight transactions.
func (m *Manager) Transactions() []TxnInfo {
	now := time.Now()
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]TxnInfo, 0, len(m.active))
	for _, t := range m.active {
		info := TxnInfo{
			ID:        t.id,
			ReadOnly:  t.ro,
			AgeUS:     now.Sub(t.began).Microseconds(),
			UndoBytes: t.undoBytes.Load(),
		}
		if s := t.snap.Load(); s != nil {
			info.SnapshotID = s.ID
			info.SnapshotCSN = s.CSN
		}
		out = append(out, info)
	}
	return out
}

// Snapshots lists the live snapshots in the registry.
func (m *Manager) Snapshots() []SnapInfo {
	now := time.Now()
	m.snapMu.Lock()
	defer m.snapMu.Unlock()
	out := make([]SnapInfo, 0, len(m.snaps))
	for id, s := range m.snaps {
		out = append(out, SnapInfo{ID: id, CSN: s.csn, AgeUS: now.Sub(s.began).Microseconds()})
	}
	return out
}

// SetInjector arms named commit-path crashpoints. inj may be nil.
func (m *Manager) SetInjector(inj faultinject.Injector) {
	m.mu.Lock()
	m.inj = inj
	m.mu.Unlock()
}

func (m *Manager) crashpoint(name string) error {
	m.mu.Lock()
	inj := m.inj
	m.mu.Unlock()
	if inj == nil {
		return nil
	}
	return inj.Crashpoint(name)
}

// Txn is one transaction. A Txn is used by a single goroutine.
type Txn struct {
	id    uint64
	m     *Manager
	undo  []func(lsn wal.LSN) error
	done  bool
	ro    bool
	began time.Time
	// shipped marks a transaction adopted from a log (see Manager.Adopt):
	// no locks, no log records, no flush.
	shipped bool
	// logged is set once the log holds a record of this transaction's.
	logged bool

	// entries are the version-chain pre-images this transaction pushed;
	// Commit stamps them all with one CSN, then eagerly reclaims the ones
	// no live snapshot pins. undoBytes and snap are read by
	// sys.transactions from other goroutines, hence atomic.
	entries   []versionRef
	undoBytes atomic.Int64
	snap      atomic.Pointer[mvcc.Snapshot]
}

// versionRef locates one version entry this transaction pushed: the entry
// itself for CSN stamping, plus its store and row for eager reclamation.
type versionRef struct {
	store *mvcc.Store
	rid   mvcc.RowID
	e     *mvcc.Entry
}

// ID returns the transaction id.
func (t *Txn) ID() uint64 { return t.id }

// ReadOnly reports whether the transaction was started with BeginRO.
func (t *Txn) ReadOnly() bool { return t.ro }

// NoteVersion records a version-chain entry this transaction pushed into
// store at rid, for CSN stamping at commit, eager reclamation, and
// undo-arena accounting.
func (t *Txn) NoteVersion(store *mvcc.Store, rid mvcc.RowID, e *mvcc.Entry) {
	t.entries = append(t.entries, versionRef{store: store, rid: rid, e: e})
	t.undoBytes.Add(e.Bytes)
}

// BindSnapshot associates a snapshot with the transaction (the repeatable-
// read snapshot of BEGIN READ ONLY) so sys.transactions can show its
// watermark.
func (t *Txn) BindSnapshot(s *mvcc.Snapshot) { t.snap.Store(s) }

// Snapshot returns the bound snapshot, or nil.
func (t *Txn) Snapshot() *mvcc.Snapshot { return t.snap.Load() }

// publish stamps every version entry the transaction pushed with the next
// commit sequence number and advances the published horizon. It runs after
// the commit record is durable and before locks are released: the row
// locks guarantee chain order equals CSN order, and readers that saw the
// pre-publication horizon simply keep resolving to the pre-images.
func (t *Txn) publish() {
	if len(t.entries) == 0 {
		return
	}
	m := t.m
	m.commitMu.Lock()
	csn := m.commitSeq.Load() + 1
	for _, r := range t.entries {
		r.e.SetCSN(csn)
	}
	m.commitSeq.Store(csn)
	m.commitMu.Unlock()
}

// reclaim eagerly drops this transaction's own version entries once they
// are dead: committed entries no live snapshot predates (snapshots
// acquired from here on get a watermark at or past the commit, so they
// resolve to the heap content, not these pre-images), and rolled-back
// entries (the undo restored the heap, and the transaction has been
// deregistered, so vacuum's writer-gone rule applies). Without this the
// common no-concurrent-reader case would leave chains — and the columnar
// fast path's chain-free invariant — dirty until the next background
// sweep.
func (t *Txn) reclaim() {
	if len(t.entries) == 0 {
		return
	}
	threshold := t.m.VacuumThreshold()
	n := 0
	for _, r := range t.entries {
		if c := r.e.CSN(); c != 0 && c > threshold {
			continue // a snapshot older than our commit pins the chain
		}
		n += r.store.VacuumOne(r.rid, threshold, t.m.IsActive)
	}
	if n > 0 {
		t.m.noteReclaim(n)
	}
}

// Log appends a data record to the WAL on this transaction's behalf and
// returns its end-LSN. A shipped transaction's records are in the local log
// already: Log returns the LSN the record was ingested at.
func (t *Txn) Log(rec *wal.Record) wal.LSN {
	if t.shipped {
		return rec.LSN
	}
	if !t.logged {
		t.noteLogged()
	}
	rec.Txn = t.id
	return t.m.log.Append(rec)
}

// noteLogged counts the transaction among those a checkpoint must not
// truncate the log under, until finish.
func (t *Txn) noteLogged() {
	t.logged = true
	t.m.logMu.Lock()
	t.m.logging++
	t.m.firsts++
	t.m.logMu.Unlock()
}

// OnRollback registers the inverse of a change the transaction just made.
// It logs itself as a compensation (wal.Record.Undo), or, with lsn
// nonzero, replays the compensation a log holds at lsn.
func (t *Txn) OnRollback(f func(lsn wal.LSN) error) {
	t.undo = append(t.undo, f)
}

// UndoDepth reports how many changes a rollback would take back.
func (t *Txn) UndoDepth() int { return len(t.undo) }

// UndoLast runs and discards the newest registered inverse: a statement
// that fails right after a change backs that one change out, and a
// replayed compensation takes back the change it was logged for.
func (t *Txn) UndoLast(lsn wal.LSN) error {
	last := len(t.undo) - 1
	f := t.undo[last]
	t.undo = t.undo[:last]
	return f(lsn)
}

// undoAll runs every inverse, newest first, and reports the first failure.
func (t *Txn) undoAll() error {
	var firstErr error
	for len(t.undo) > 0 {
		if err := t.UndoLast(0); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// TakeOver makes an adopted transaction the log never settled the
// engine's own, for recovery to roll back: its compensations and rollback
// record are logged like a local transaction's. It holds no locks.
func (t *Txn) TakeOver() { t.shipped = false }

// locks returns the lock manager this transaction locks through: none for
// a single-user database or a shipped transaction.
func (t *Txn) locks() *lock.Manager {
	if t.shipped {
		return nil
	}
	return t.m.locks
}

// Lock acquires a long-term lock for the transaction. With no lock manager
// it is a no-op.
func (t *Txn) Lock(obj uint64, key []byte, mode lock.Mode) error {
	if lm := t.locks(); lm != nil {
		return lm.Lock(t.id, obj, key, mode)
	}
	return nil
}

// LockCtx is Lock under a context: a cancelled statement context aborts
// the lock wait instead of parking until the deadlock timeout.
func (t *Txn) LockCtx(ctx context.Context, obj uint64, key []byte, mode lock.Mode) error {
	if lm := t.locks(); lm != nil {
		return lm.LockCtx(ctx, t.id, obj, key, mode)
	}
	return nil
}

// Commit makes the transaction durable: commit record, group flush, lock
// release. The commit LSN is captured at append time and the wait happens
// via FlushTo, so concurrent committers share one leader's fsync (group
// commit) instead of each paying their own. A crash before the flush
// leaves the transaction a loser (it is undone at recovery); a crash after
// the flush leaves it durable even though the caller saw an error — the
// classic indeterminate commit.
//
// When the group's flush fails, every transaction waiting on it gets the
// error, and each compensates its in-memory changes before returning: the
// engine may keep serving reads (degraded mode), and those reads must not
// see data the caller was just told did not commit. The compensations and
// a rollback record are logged behind the stranded commit record, so a
// later flush that lands the commit lands the start of the undo too, and
// recovery ignores a commit record its transaction logged past.
func (t *Txn) Commit() error {
	if t.done {
		return ErrDone
	}
	t.done = true
	if t.ro {
		// Nothing was logged and nothing can have changed: just release
		// the snapshot and deregister.
		t.finish()
		return nil
	}
	if t.shipped {
		// The shipped commit record is already durable in the local log.
		t.publish()
		t.finish()
		return nil
	}
	if err := t.m.crashpoint("commit.before_flush"); err != nil {
		t.compensate()
		t.finish()
		return err
	}
	lsn := t.m.log.Append(&wal.Record{Type: wal.RecCommit, Txn: t.id})
	if err := t.m.flushTo(t.id, lsn); err != nil {
		t.compensate()
		t.finish()
		return err
	}
	// The commit is durable: publish its versions before anything else —
	// even the indeterminate-commit path below must leave snapshot readers
	// seeing the committed data, since it IS the durable state.
	t.publish()
	if err := t.m.crashpoint("commit.after_flush"); err != nil {
		// The commit IS durable; only the caller's acknowledgement was
		// lost. In-memory state already matches the durable state, so no
		// compensation here.
		t.finish()
		return err
	}
	t.finish()
	return nil
}

// compensate takes back the transaction's changes after a failed commit
// flush. Undo errors are ignored: on a crashed or failed device the
// in-memory state is about to be discarded anyway, and recovery rolls back
// whatever the log shows standing.
func (t *Txn) compensate() {
	_ = t.undoAll()
	t.m.log.Append(&wal.Record{Type: wal.RecRollback, Txn: t.id})
}

// Rollback undoes the transaction's changes (reverse order) and releases
// its locks.
func (t *Txn) Rollback() error {
	if t.done {
		return ErrDone
	}
	t.done = true
	if t.ro {
		t.finish()
		return nil
	}
	// Each compensation logs itself under the latch of the page it changes,
	// ahead of whatever another transaction does with the space it hands
	// back, and the rollback record marks the end of the undo. A shipped
	// transaction's are in the local log already, and were run as they were
	// replayed: normally nothing is left to run.
	firstErr := t.undoAll()
	if !t.shipped {
		lsn := t.m.log.Append(&wal.Record{Type: wal.RecRollback, Txn: t.id})
		if err := t.m.flushTo(t.id, lsn); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	t.finish()
	return firstErr
}

func (t *Txn) finish() {
	if s := t.snap.Swap(nil); s != nil {
		// A BEGIN READ ONLY transaction owns its bound snapshot: dropping
		// it here unpins the versions it held against vacuum.
		t.m.ReleaseSnapshot(s)
	}
	if lm := t.locks(); lm != nil {
		// A failed release (a bucket page that could not be read back) keeps
		// the unreleased locks on the manager's held list, so one retry can
		// finish it. A second failure leaves them to the waiters' timeouts;
		// lock.release_errors counts both.
		if err := lm.ReleaseAll(t.id); err != nil {
			_ = lm.ReleaseAll(t.id)
		}
	}
	// Deregister after publish (Commit) and after undo (Rollback): vacuum
	// checks liveness before reading an entry's CSN, so a writer observed
	// "gone" with CSN zero has definitively rolled back.
	t.m.mu.Lock()
	delete(t.m.active, t.id)
	t.m.mu.Unlock()
	if t.logged {
		t.m.logMu.Lock()
		t.m.logging--
		t.m.logMu.Unlock()
	}
	t.reclaim()
	t.undo = nil
	t.entries = nil
}
