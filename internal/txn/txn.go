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
func (m *Manager) Begin() *Txn { return m.begin(new(Txn), 0, false) }

// BeginIn starts a transaction in t, which the caller owns and keeps from
// one transaction to the next: a new Txn, or one that has finished. t is
// begun afresh — a new id, and no undo record, version, lock, snapshot or
// scratch byte of the last — and keeps what its lists and scratch had grown
// to. A read-only (ro) transaction writes nothing to the WAL — there is
// nothing to recover — and Commit/Rollback only release its bound snapshot
// and deregister it.
func (m *Manager) BeginIn(t *Txn, ro bool) *Txn { return m.begin(t, 0, ro) }

// begin starts t, which is not running, as transaction id (0: the next one)
// and registers it. A transaction's lists and scratch were emptied when it
// last finished (see finish).
func (m *Manager) begin(t *Txn, id uint64, ro bool) *Txn {
	t.m, t.ro, t.began = m, ro, time.Now()
	t.done, t.logged, t.intent, t.ctx, t.w = false, false, 0, nil, nil
	t.undoBytes.Store(0)
	m.mu.Lock()
	if id == 0 {
		id = m.next
	}
	m.next = max(m.next, id+1) // no later id may name a logged transaction
	t.id = id
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
	t := m.begin(&Txn{shipped: true}, id, false)
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

// Undoer takes back a change a transaction made: the table whose mutation
// kernel made it, which runs the inverse record the change registered.
type Undoer interface {
	Undo(tx *Txn, inv *wal.Record) error
}

// undoRec is one registered inverse: the compensation record, and the
// table that applies it.
type undoRec struct {
	by  Undoer
	inv wal.Record
}

// Txn is one transaction. A Txn is used by a single goroutine.
type Txn struct {
	id    uint64
	m     *Manager
	undo  []undoRec
	done  bool
	ro    bool
	began time.Time
	// shipped marks a transaction adopted from a log (see Manager.Adopt):
	// no locks, no log records, no flush.
	shipped bool
	// logged is set once the log holds a record of this transaction's.
	logged bool
	// intent is the table this transaction last took its intent lock on
	// (object ids start at 1). Table locks are held until the transaction
	// settles, so a row write's request for it again is answered here.
	intent uint64
	// ctx and w are the context and wait tally of the statement running in
	// the transaction (SetStatement): its lock and row waits end when ctx
	// is cancelled, and they and its flush waits are added to w. Nil
	// between statements; w is nil when nobody reads the tally.
	ctx context.Context
	w   *Waits

	// entries are the version-chain pre-images this transaction pushed;
	// Commit stamps them all with one CSN, then eagerly reclaims the ones
	// no live snapshot pins. undoBytes and snap are read by
	// sys.transactions from other goroutines, hence atomic.
	entries   []versionRef
	undoBytes atomic.Int64
	snap      atomic.Pointer[mvcc.Snapshot]

	// scratch is the chunk row encodings are cut from (Scratch), and key
	// the buffer index keys are built in (KeyScratch). Both live until the
	// transaction finishes; only the log, which copies at Append, and the
	// transaction's own undo records see their bytes.
	scratch []byte
	key     []byte
}

// scratchChunk is the size of the chunks Scratch cuts row encodings from: a
// chunk is never grown, so what a long transaction wrote stays where it is.
const scratchChunk = 16 << 10

// keepRecords caps, in entries, the undo and version lists a finished
// transaction keeps the capacity of: a bulk load's are let go.
const keepRecords = 1024

// versionRef locates one version entry this transaction pushed: the entry
// itself for CSN stamping, plus its store and row for eager reclamation.
type versionRef struct {
	store *mvcc.Store
	rid   mvcc.RowID
	e     *mvcc.Entry
}

// ID returns the transaction id.
func (t *Txn) ID() uint64 { return t.id }

// ReadOnly reports whether the transaction was started read-only.
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
// the commit record is durable and before locks are released: a row has at
// most one live holder, the writer of its unpublished chain head, and no
// other transaction writes it until that one settles, so chain order equals
// CSN order. Readers that saw the pre-publication horizon simply keep
// resolving to the pre-images.
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

// OnRollback registers inv, the inverse of a change the transaction just
// made, which by applies: logged as a compensation (wal.Record.Undo), or,
// replayed, at the LSN a log holds it. The record is kept by value; its
// images must live as long as the transaction (see Scratch).
func (t *Txn) OnRollback(by Undoer, inv *wal.Record) {
	t.undo = append(t.undo, undoRec{by: by, inv: *inv})
}

// Scratch returns room for an n-byte encoding, empty, that is the
// transaction's until it finishes: what is appended to it within n bytes
// stays put. It is for what only the transaction and its undo read — the
// log copies a record at Append — and never for bytes a version entry, a
// snapshot reader or a replica can hold once the transaction has ended.
func (t *Txn) Scratch(n int) []byte {
	if n > scratchChunk {
		return make([]byte, 0, n)
	}
	if cap(t.scratch)-len(t.scratch) < n {
		t.scratch = make([]byte, 0, scratchChunk)
	}
	lo := len(t.scratch)
	t.scratch = t.scratch[:lo+n]
	return t.scratch[lo : lo : lo+n]
}

// KeyScratch returns the transaction's index-key buffer: a key built in
// (*b)[:0] and stored back in *b is valid until the next is built, and the
// buffer keeps its capacity. The same rule as Scratch's holds for its bytes.
func (t *Txn) KeyScratch() *[]byte { return &t.key }

// UndoDepth reports how many changes a rollback would take back.
func (t *Txn) UndoDepth() int { return len(t.undo) }

// UndoLast runs and discards the newest registered inverse: a statement
// that fails right after a change backs that one change out, and a
// replayed compensation takes back the change it was logged for.
func (t *Txn) UndoLast(lsn wal.LSN) error {
	// The record is run where it lies: a compensation registers no inverse,
	// so nothing is appended under it.
	last := len(t.undo) - 1
	u := &t.undo[last]
	u.inv.LSN = lsn
	err := u.by.Undo(t, &u.inv)
	*u = undoRec{}
	t.undo = t.undo[:last]
	return err
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

// Waits is a statement's plain tally of its transaction's lock and row
// waits and of its Commit's or Rollback's flush: counts and microseconds.
type Waits struct {
	Locks, LockUS    int64
	Flushes, FlushUS int64
}

// SetStatement binds the transaction to the statement about to run in it:
// its context ctx ends the lock and row waits of Lock and WaitFor when it
// is cancelled or expires, and its tally w (nil for none) gets those waits
// and Commit's or Rollback's flush. Nil, nil unbinds: waits then end only
// with what they wait for, tallied for no statement.
func (t *Txn) SetStatement(ctx context.Context, w *Waits) { t.ctx, t.w = ctx, w }

// context is the statement context waits observe.
func (t *Txn) context() context.Context {
	if t.ctx == nil {
		return context.Background()
	}
	return t.ctx
}

// Lock acquires a long-term lock on table obj for the transaction. With no
// lock manager it is a no-op, and so is a request for the table intent it
// took last. A wait ends early when the statement context is cancelled.
func (t *Txn) Lock(obj uint64, mode lock.Mode) error {
	lm := t.locks()
	intent := mode == lock.IntentExclusive
	if lm == nil || intent && obj == t.intent {
		return nil
	}
	err := t.chargeLock(lm.LockCtx(t.context(), t.id, obj, mode))
	if err == nil && intent {
		t.intent = obj
	}
	return err
}

// WaitFor blocks until holder, the writer of a row's unpublished version
// entry, settles, or the statement context is cancelled: see
// lock.Manager.WaitFor. It returns at once when holder is already settled.
func (t *Txn) WaitFor(holder uint64) error {
	if lm := t.locks(); lm != nil {
		return t.chargeLock(lm.WaitFor(t.context(), t.id, holder))
	}
	return nil
}

// chargeLock adds a lock-manager call that was blocked for d to the
// statement's tally, and passes its error on.
func (t *Txn) chargeLock(d time.Duration, err error) error {
	if d > 0 && t.w != nil {
		t.w.Locks++
		t.w.LockUS += d.Microseconds()
	}
	return err
}

// Contends reports whether holder, the writer of a row's unpublished version
// entry (zero for none), is another transaction that still holds the row:
// one WaitFor would wait for.
func (t *Txn) Contends(holder uint64) bool {
	lm := t.locks()
	return holder != 0 && holder != t.id && lm != nil && lm.HeldCount(holder) > 0
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
	if !t.logged {
		// A read-only transaction, or one that wrote nothing: no record
		// would make anything durable. Release the snapshot and deregister.
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
	if err := t.flush(lsn); err != nil {
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

// flush waits until the log is durable through lsn. The wait is timed only
// for a statement's tally, and added to it.
func (t *Txn) flush(lsn wal.LSN) error {
	if t.w == nil {
		return t.m.log.FlushTo(lsn)
	}
	start := time.Now()
	err := t.m.log.FlushTo(lsn)
	if us := time.Since(start).Microseconds(); us > 0 {
		t.w.Flushes++
		t.w.FlushUS += us
	}
	return err
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
	// replayed: normally nothing is left to run. A transaction that logged
	// nothing, its compensations included, ends with no record and waits
	// for no flush.
	firstErr := t.undoAll()
	if t.logged && !t.shipped {
		lsn := t.m.log.Append(&wal.Record{Type: wal.RecRollback, Txn: t.id})
		if err := t.flush(lsn); err != nil && firstErr == nil {
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
		lm.ReleaseAll(t.id)
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
	t.undo = emptied(t.undo)
	t.entries = emptied(t.entries)
	// A reused chunk carries no byte of this transaction into the next.
	clear(t.scratch)
	t.scratch = t.scratch[:0]
}

// emptied returns s emptied, its capacity kept unless a large transaction
// grew it past keepRecords. Its elements are zeroed: a finished
// transaction pins no table, version entry or scratch chunk.
func emptied[T any](s []T) []T {
	if cap(s) > keepRecords {
		return nil
	}
	clear(s)
	return s[:0]
}
