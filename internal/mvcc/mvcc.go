// Package mvcc implements row versioning for snapshot reads: an in-memory
// undo arena of pre-images hung off each row, plus the commit-sequence
// visibility rule that lets read-only statements see a consistent point in
// time without touching the lock manager.
//
// The design is undo-style and volatile. The heap page always holds the
// newest version of a row; every transactional write prepends an Entry
// carrying the *pre-image* (the row as it looked before the write) to that
// row's chain. Readers resolve a row by starting from the current heap
// content and walking the chain newest-to-oldest, substituting pre-images
// until they hit an entry whose writer committed within their snapshot.
// Chains live only in memory: after a crash, recovery resolves every
// in-flight transaction, so an empty chain (current == only version) is
// exactly right — the WAL's existing before-images in RecUpdate/RecDelete
// are the durable version metadata that makes that so.
//
// Entries are stamped with a commit sequence number (CSN) when their writer
// commits; CSN zero means "in flight or rolled back", which a snapshot never
// sees. Rolled-back entries stay at CSN zero forever — harmless, because
// the transaction's undo also restored the heap, so the entry's pre-image
// equals the current content — and are unlinked by vacuum once the writer
// is gone.
package mvcc

import (
	"sort"
	"sync"
	"sync/atomic"

	"anywheredb/internal/store"
	"anywheredb/internal/val"
)

// Entry is one link in a row's version chain: the pre-image saved by a
// single transactional write (insert, update, or delete) to that row.
type Entry struct {
	// Writer is the transaction that made the overwriting change.
	Writer uint64
	// Row is the pre-image: the row as it existed before Writer's change.
	// Nil when Exists is false. Shared by every reader that resolves
	// through this entry, so it must never be mutated after Push.
	Row []val.Value
	// Exists reports whether the row existed at all before Writer's
	// change (false for the entry pushed by an insert).
	Exists bool
	// Bytes approximates the entry's memory footprint for undo-arena
	// accounting (sys.transactions undo_bytes).
	Bytes int64
	// Cell is the length of the heap cell that held Row (zero when Exists
	// is false): the page space a rollback of Writer's change needs back.
	Cell int

	csn  atomic.Uint64
	prev *Entry
}

// CSN returns the commit sequence stamped on the entry, or zero while the
// writer is still in flight (or rolled back).
func (e *Entry) CSN() uint64 { return e.csn.Load() }

// SetCSN publishes the writer's commit sequence. Called exactly once, by
// the transaction manager, after the commit record is durable and before
// the writer's locks are released.
func (e *Entry) SetCSN(csn uint64) { e.csn.Store(csn) }

// Snapshot is a point-in-time visibility horizon: it sees every write
// published with CSN <= CSN, plus (inside a read-write transaction) the
// transaction's own uncommitted writes.
type Snapshot struct {
	// ID identifies the snapshot in the manager's registry (shares the
	// transaction-id space so sys.transactions can list both).
	ID uint64
	// CSN is the newest commit sequence the snapshot sees.
	CSN uint64
	// Self, when nonzero, is the read-write transaction this snapshot
	// belongs to; its own in-flight writes are visible.
	Self uint64
}

// Sees reports whether the write that produced entry e is visible: the
// resolve walk stops at the first entry it sees (the content above that
// entry — heap or a younger pre-image — is then the visible version).
func (s *Snapshot) Sees(e *Entry) bool {
	if s.Self != 0 && e.Writer == s.Self {
		return true
	}
	c := e.csn.Load()
	return c != 0 && c <= s.CSN
}

// RowID addresses a row slot in a table's heap file.
type RowID struct {
	Page store.PageID
	Slot int
}

// Store holds the version chains for one table, keyed by heap location.
// Push/Resolve take the lock briefly; chains are small (bounded by the
// number of writes behind the oldest snapshot) and vacuum truncates them.
type Store struct {
	mu     sync.RWMutex
	chains map[RowID]*Entry
	count  atomic.Int64 // live entries, for the cheap Empty() fast path
	bytes  atomic.Int64 // sum of Entry.Bytes over live entries
}

// NewStore returns an empty version store.
func NewStore() *Store {
	return &Store{chains: make(map[RowID]*Entry)}
}

// Empty reports whether the store holds no entries. Used as the fast path
// that lets snapshot scans fall through to chain-free code (including the
// columnar path: no chains means every committed write is visible to every
// live snapshot, so sealed segments are snapshot-consistent as-is).
func (s *Store) Empty() bool { return s.count.Load() == 0 }

// Count returns the number of live entries.
func (s *Store) Count() int64 { return s.count.Load() }

// Bytes returns the approximate memory held by live entries.
func (s *Store) Bytes() int64 { return s.bytes.Load() }

// Push prepends e to the chain at id. The caller (the table layer) pushes
// *before* modifying the heap cell for updates and deletes, and while
// holding the page latch for inserts, so a concurrent resolve always finds
// either the old content, or the new content plus an entry carrying the
// old content.
func (s *Store) Push(id RowID, e *Entry) {
	s.mu.Lock()
	e.prev = s.chains[id]
	s.chains[id] = e
	s.mu.Unlock()
	s.count.Add(1)
	s.bytes.Add(e.Bytes)
}

// Resolve walks the chain at id and returns the version of the row visible
// to snap, starting from the current heap content (row, exists). The caller
// holds the page latch of id.Page in shared mode, so the heap content and
// the chain head are mutually consistent.
func (s *Store) Resolve(id RowID, row []val.Value, exists bool, snap *Snapshot) ([]val.Value, bool) {
	s.mu.RLock()
	e := s.chains[id]
	for ; e != nil; e = e.prev {
		if snap.Sees(e) {
			break
		}
		row, exists = e.Row, e.Exists
	}
	s.mu.RUnlock()
	return row, exists
}

// Head returns the newest entry at id, or nil.
func (s *Store) Head(id RowID) *Entry {
	s.mu.RLock()
	e := s.chains[id]
	s.mu.RUnlock()
	return e
}

// Unsettled reports whether the chain at id holds a write whose transaction
// has not settled (committed and published, or rolled back and reclaimed),
// and the largest heap cell such a write replaced: what a rollback may yet
// have to put back at id.
func (s *Store) Unsettled(id RowID) (cell int, ok bool) {
	s.mu.RLock()
	for e := s.chains[id]; e != nil; e = e.prev {
		if e.csn.Load() == 0 {
			ok = true
			cell = max(cell, e.Cell)
		}
	}
	s.mu.RUnlock()
	return cell, ok
}

// SlotsOnPage returns the slots of page that have version chains, sorted.
// Snapshot scans use it to resurrect rows whose heap cell is gone (deleted
// or moved by a writer the snapshot does not see).
func (s *Store) SlotsOnPage(page store.PageID) []int {
	if s.Empty() {
		return nil
	}
	var slots []int
	s.mu.RLock()
	for id := range s.chains {
		if id.Page == page {
			slots = append(slots, id.Slot)
		}
	}
	s.mu.RUnlock()
	sort.Ints(slots)
	return slots
}

// RowIDs returns every heap location with a live chain. Index scans under
// a snapshot use it to find rows the current index no longer points at.
func (s *Store) RowIDs() []RowID {
	s.mu.RLock()
	ids := make([]RowID, 0, len(s.chains))
	for id := range s.chains {
		ids = append(ids, id)
	}
	s.mu.RUnlock()
	return ids
}

// Vacuum reclaims entries no live or future snapshot can need: everything
// at or below threshold (the oldest active snapshot's CSN, or the current
// commit horizon when no snapshot is open), and entries whose writer rolled
// back and is gone (CSN zero, writer no longer active). Returns the number
// of entries unlinked.
//
// Correctness of the truncation: an entry with CSN <= threshold is visible
// to every snapshot that can still resolve, so no walk ever descends past
// it — the entry and everything older are unreachable. A rolled-back entry
// of a finished writer is skippable because its pre-image equals the
// content above it (the writer's undo restored the heap before any younger
// writer could touch the row, serialized by the row's exclusive lock).
func (s *Store) Vacuum(threshold uint64, active func(txn uint64) bool) int {
	if s.Empty() {
		return 0
	}
	removed := 0
	var freed int64
	s.mu.Lock()
	for id, head := range s.chains {
		newHead, r, f := vacuumChain(head, threshold, active)
		removed += r
		freed += f
		if newHead == nil {
			delete(s.chains, id)
		} else {
			s.chains[id] = newHead
		}
	}
	s.mu.Unlock()
	s.count.Add(int64(-removed))
	s.bytes.Add(-freed)
	return removed
}

// VacuumOne prunes the single chain at id under the same rules as Vacuum.
// The transaction manager calls it at commit for the committer's own rows
// when no live snapshot predates the commit, so chains vanish eagerly
// instead of waiting for the next background sweep.
func (s *Store) VacuumOne(id RowID, threshold uint64, active func(txn uint64) bool) int {
	s.mu.Lock()
	head := s.chains[id]
	if head == nil {
		s.mu.Unlock()
		return 0
	}
	newHead, removed, freed := vacuumChain(head, threshold, active)
	if newHead == nil {
		delete(s.chains, id)
	} else {
		s.chains[id] = newHead
	}
	s.mu.Unlock()
	s.count.Add(int64(-removed))
	s.bytes.Add(-freed)
	return removed
}

// vacuumChain prunes one chain, returning the new head (nil when the whole
// chain is reclaimed) plus the entries removed and bytes freed. The caller
// holds s.mu exclusively.
func vacuumChain(head *Entry, threshold uint64, active func(txn uint64) bool) (*Entry, int, int64) {
	removed := 0
	var freed int64
	var keep []*Entry
	for e := head; e != nil; e = e.prev {
		// Order matters: check liveness before loading the CSN, so a
		// writer observed "finished" has already published its CSN
		// (commit stamps entries before deregistering the txn).
		isActive := active != nil && active(e.Writer)
		c := e.csn.Load()
		if c != 0 && c <= threshold {
			// Visible to everyone: this entry and all older ones are
			// unreachable by any resolve walk.
			for d := e; d != nil; d = d.prev {
				removed++
				freed += d.Bytes
			}
			break
		}
		if c == 0 && !isActive {
			removed++ // rolled back and writer gone: unlink
			freed += e.Bytes
			continue
		}
		keep = append(keep, e)
	}
	if len(keep) == 0 {
		return nil, removed, freed
	}
	for i := 0; i < len(keep)-1; i++ {
		keep[i].prev = keep[i+1]
	}
	keep[len(keep)-1].prev = nil
	return keep[0], removed, freed
}

// SizeOf approximates the memory footprint of a row pre-image.
func SizeOf(row []val.Value) int64 {
	n := int64(48) // Entry header + chain bookkeeping
	for _, v := range row {
		n += 24
		n += int64(len(v.S))
	}
	return n
}
