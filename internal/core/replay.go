// Log replay: the bridge between logged WAL records and the live engine.
// A database opened with Options.ReplicaMode feeds every record of the
// primary's stream — in LSN order — through an Applier, which runs the
// table's own mutation kernels at the shipped page/slot (so row counts,
// histograms and columnar invalidations follow as they do for local DML)
// under a transaction adopted for the primary's, which keeps the change
// invisible to local snapshot readers until the transaction's commit record
// arrives (MVCC version chains with the primary's transaction id as writer,
// published with a local CSN at commit). Readers on the replica therefore
// always see a transaction-consistent prefix of the primary's history, even
// mid-transaction, even if the primary dies mid-stream. Crash recovery
// feeds its own log's tail through an Applier the same way (recover).
package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"maps"
	"slices"
	"strings"

	"anywheredb/internal/faultinject"
	"anywheredb/internal/store"
	"anywheredb/internal/table"
	"anywheredb/internal/txn"
	"anywheredb/internal/wal"
)

// ErrUnknownTable is returned by Applier.Apply when a shipped record names
// a table id the replica has never attached. DDL is not logically
// replicated (the catalog travels only in the initial copy), so this means
// the primary created a table after the replica's last sync — the caller
// must fall back to a full resync. Recovery skips such records: their
// table was dropped.
var ErrUnknownTable = errors.New("core: shipped record names an unknown table (resync required)")

// WAL exposes the write-ahead log. The replication layer reads sealed
// frames from it on the primary (ReadChunk) and ingests them on a replica
// (IngestRaw).
func (db *DB) WAL() *wal.Log { return db.log }

// Dir reports the data directory ("" for a memory-backed instance). The
// replication layer reads the store files from it when serving a full
// resync; memory-backed databases cannot act as replication primaries.
func (db *DB) Dir() string { return db.opts.Dir }

// tableByID resolves a table by catalog id under the database mutex.
func (db *DB) tableByID(id uint64) (*table.Table, bool) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	for _, t := range db.tables {
		if t.ID == id {
			return t, true
		}
	}
	return nil, false
}

// Applier replays logged records: a primary's on a replica, and the log
// tail recovery found. It is not safe for concurrent use: records must
// arrive in LSN order, from one goroutine — exactly the shape of a
// shipping stream.
type Applier struct {
	db *DB
	// txns holds the local stand-in of every primary transaction mid-replay.
	txns map[uint64]*txn.Txn

	// Records and Commits count applied records and published commits (the
	// replication layer publishes them as telemetry).
	Records uint64
	Commits uint64
}

// NewApplier builds an applier for a replica-mode database (or recovery).
func (db *DB) NewApplier() *Applier {
	return &Applier{db: db, txns: map[uint64]*txn.Txn{}}
}

// txn returns the stand-in for a primary transaction, adopting it on its
// first row change: the log has no begin record.
func (a *Applier) txn(id uint64) *txn.Txn {
	tx, ok := a.txns[id]
	if !ok {
		tx = a.db.txns.Adopt(id)
		a.txns[id] = tx
	}
	return tx
}

// InFlight reports the number of primary transactions currently mid-replay.
func (a *Applier) InFlight() int { return len(a.txns) }

// Apply replays one shipped record. Data records, compensations among
// them, run the table's mutation kernels under their transaction's
// stand-in; RecCommit commits it (its versions are published at the next
// local CSN) and RecRollback, which follows the compensations, settles it
// as rolled back — the code a local transaction settles through.
// RecPageImage and RecCheckpoint are skipped: a shipped page image may
// contain another transaction's uncommitted steal-written bytes, and the
// physiological records alone reconstruct every page (images still protect
// the replica's own local write-backs, which log fresh ones).
func (a *Applier) Apply(r *wal.Record) error {
	a.Records++
	switch r.Type {
	case wal.RecCommit, wal.RecRollback:
		tx, ok := a.txns[r.Txn]
		if !ok {
			return nil // empty transaction, or one begun before a resync
		}
		delete(a.txns, r.Txn)
		if r.Type == wal.RecRollback {
			return tx.Rollback()
		}
		a.Commits++
		return tx.Commit()
	case wal.RecCheckpoint, wal.RecPageImage:
		return nil
	}
	tbl, ok := a.db.tableByID(r.Table)
	if !ok {
		return fmt.Errorf("%w: table id %d", ErrUnknownTable, r.Table)
	}
	if r.Type == wal.RecPageLink || r.Type == wal.RecColSegDrop {
		// Structural records change no row, so there is nothing to settle:
		// no stand-in is adopted on their account.
		return tbl.Apply(nil, r)
	}
	return tbl.Apply(a.txn(r.Txn), r)
}

// restoreImages writes each page's newest logged image back over it (see
// wal.RecPageImage): a state the page passed through, older than its last
// write only by records the log holds, so restoring it repairs any torn
// write. The pool learns that the log holds it: a page whose changes from
// here on are stamped by the replay is written back without a new image.
func (db *DB) restoreImages(plan *wal.RecoveryPlan) error {
	// A page on the free chain takes no image: whatever was logged of it
	// was logged before it was freed.
	free, err := db.st.FreeList(store.MainFile)
	if err != nil {
		return err
	}
	for _, id := range free {
		delete(plan.Images, id)
	}
	db.recoveryPages(plan)
	for _, id := range slices.Sorted(maps.Keys(plan.Images)) {
		r := plan.Images[id]
		f, err := db.pool.Get(id)
		if err != nil {
			continue // a page that cannot be read (a truncated file) has nothing to restore onto
		}
		f.Lock()
		if len(r.After) == len(f.Data) && string(f.Data) != string(r.After) {
			copy(f.Data, r.After)
			f.MarkDirty()
		}
		db.pool.Imaged(f, r.LSN)
		f.Unlock()
		db.pool.Unpin(f, false)
	}
	return nil
}

// recoveryPages lists the distinct pages a recovery plan touches,
// including the targets of page-link records, and makes each addressable:
// a crash loses the store header, so the on-disk page count can lag behind
// pages the log knows about (unwritten tails read back as zero pages).
func (db *DB) recoveryPages(plan *wal.RecoveryPlan) []store.PageID {
	seen := map[store.PageID]bool{}
	for id := range plan.Images {
		seen[id] = true
	}
	for _, r := range plan.Records {
		seen[r.Page] = true
		if r.Type == wal.RecPageLink && len(r.After) >= 8 {
			seen[store.PageID(binary.LittleEndian.Uint64(r.After))] = true
		}
	}
	delete(seen, 0) // the store header: records that name no page
	for id := range seen {
		db.st.EnsureAllocated(id)
	}
	return slices.Sorted(maps.Keys(seen))
}

// recover repeats history: it replays the log tail, winners and losers
// alike, then rolls back what the log leaves standing (see replay). With
// ParanoidRecovery it then restores the images and replays the log — which
// now holds that rollback too — a second time, and verifies the replay was
// idempotent: the logical page content must not change.
func (db *DB) recover(plan *wal.RecoveryPlan) error {
	if err := db.replay(plan, db.inj); err != nil {
		return err
	}
	if !db.opts.ParanoidRecovery {
		return nil
	}
	again, err := db.log.Analyze()
	if err != nil {
		return err
	}
	pages := db.recoveryPages(again)
	before := db.snapshotPages(pages)
	if err := db.restoreImages(again); err != nil {
		return err
	}
	if err := db.replay(again, nil); err != nil {
		return err
	}
	for i, after := range db.snapshotPages(pages) {
		if before[i] != after {
			return faultinject.Corrupt(fmt.Errorf(
				"core: recovery replay not idempotent: %q became %q", before[i], after))
		}
	}
	return nil
}

// replay attaches every table's heap without its index trees, as a replica
// does, and feeds plan's records in LSN order to an Applier, so that the
// table kernels make each change its page is stamped older than. Then each
// transaction the log holds neither a commit nor a rollback record of is
// taken over and rolled back, its compensations logged as a live rollback
// logs them. inj, when non-nil, is consulted at the recovery crashpoints:
// after the replay, and after the first compensation of a transaction with
// more than one change to take back.
func (db *DB) replay(plan *wal.RecoveryPlan, inj faultinject.Injector) error {
	for _, name := range db.cat.TableNames() {
		tm, _ := db.cat.GetTable(name)
		tbl, err := db.attachHeap(tm)
		if err != nil {
			return err
		}
		db.adopt(tbl)
	}
	a := db.NewApplier()
	for _, r := range plan.Records {
		// A table the catalog no longer has was dropped: its records have
		// nothing to replay onto.
		if err := a.Apply(r); err != nil && !errors.Is(err, ErrUnknownTable) {
			return err
		}
	}
	if inj != nil {
		if err := inj.Crashpoint("recovery.after_redo"); err != nil {
			return err
		}
	}
	for _, id := range slices.Sorted(maps.Keys(a.txns)) {
		tx := a.txns[id]
		tx.TakeOver()
		if inj != nil && tx.UndoDepth() > 1 {
			if err := tx.UndoLast(0); err != nil {
				return err
			}
			if err := inj.Crashpoint("recovery.undo"); err != nil {
				return err
			}
		}
		if err := tx.Rollback(); err != nil {
			return err
		}
	}
	return nil
}

// snapshotPages captures one logical description per page: type, owner,
// next pointer, and every live cell. Replay idempotency is judged on this
// logical content — raw bytes may legitimately differ between passes
// (slot-array garbage accounting, compaction offsets) when a replayed
// insert re-fires into a slot a later replayed delete had freed.
func (db *DB) snapshotPages(ids []store.PageID) []string {
	out := make([]string, 0, len(ids))
	for _, id := range ids {
		f, err := db.pool.Get(id)
		if err != nil {
			out = append(out, fmt.Sprintf("%v:unreadable", id))
			continue
		}
		f.RLock()
		var sb strings.Builder
		fmt.Fprintf(&sb, "%v t=%d o=%d n=%d", id, f.Data.Type(), f.Data.Owner(), f.Data.Next())
		for s := 0; s < f.Data.NumSlots(); s++ {
			if c := f.Data.Cell(s); c != nil {
				fmt.Fprintf(&sb, " %d=%x", s, c)
			}
		}
		f.RUnlock()
		db.pool.Unpin(f, false)
		out = append(out, sb.String())
	}
	return out
}
