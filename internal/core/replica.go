// Replica streaming apply: the bridge between shipped WAL records and the
// live engine. A database opened with Options.ReplicaMode feeds every
// record of the primary's stream — in LSN order — through an Applier, which
// runs the table's own mutation kernels at the shipped page/slot (so row
// counts, histograms and columnar invalidations follow as they do for local
// DML) under a transaction adopted for the primary's, which keeps the
// change invisible to local snapshot readers until the transaction's commit
// record arrives (MVCC version chains with the primary's transaction id as
// writer, published with a local CSN at commit). Readers on the
// replica therefore always see a transaction-consistent prefix of the
// primary's history, even mid-transaction, even if the primary dies
// mid-stream.
package core

import (
	"errors"
	"fmt"

	"anywheredb/internal/table"
	"anywheredb/internal/txn"
	"anywheredb/internal/wal"
)

// ErrUnknownTable is returned by Applier.Apply when a shipped record names
// a table id the replica has never attached. DDL is not logically
// replicated (the catalog travels only in the initial copy), so this means
// the primary created a table after the replica's last sync — the caller
// must fall back to a full resync.
var ErrUnknownTable = errors.New("core: shipped record names an unknown table (resync required)")

// WAL exposes the write-ahead log. The replication layer reads sealed
// frames from it on the primary (ReadChunk) and ingests them on a replica
// (IngestRaw).
func (db *DB) WAL() *wal.Log { return db.log }

// Dir reports the data directory ("" for a memory-backed instance). The
// replication layer reads the store files from it when serving a full
// resync; memory-backed databases cannot act as replication primaries.
func (db *DB) Dir() string { return db.opts.Dir }

// TableByID resolves a table by catalog id under the database mutex.
func (db *DB) TableByID(id uint64) (*table.Table, bool) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	t := db.tableByID(id)
	return t, t != nil
}

// Applier replays a primary's WAL records on a replica. It is not safe for
// concurrent use: records must arrive in LSN order, from one goroutine —
// exactly the shape of a shipping stream.
type Applier struct {
	db *DB
	// txns holds the local stand-in of every primary transaction mid-replay.
	txns map[uint64]*txn.Txn

	// Records and Commits count applied records and published commits (the
	// replication layer publishes them as telemetry).
	Records uint64
	Commits uint64
}

// NewApplier builds a streaming applier for a replica-mode database.
func (db *DB) NewApplier() *Applier {
	return &Applier{db: db, txns: map[uint64]*txn.Txn{}}
}

// txn returns the stand-in for a primary transaction, adopting it on first
// sight (a stream can legitimately start mid-transaction only after a
// resync, but being lenient here costs nothing and keeps vacuum's
// writer-gone rule safe either way).
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

// Apply replays one shipped record. Data records run the table's mutation
// kernels under their transaction's stand-in; RecCommit commits it (its
// versions are published at the next local CSN) and RecRollback rolls it
// back (its compensations run in reverse) — the code a local transaction
// settles through. RecPageImage and RecCheckpoint are skipped: a shipped
// page image may contain another transaction's uncommitted steal-written
// bytes, and the physiological records alone reconstruct every page (images
// still protect the replica's own local write-backs, which log fresh ones).
func (a *Applier) Apply(r *wal.Record) error {
	a.Records++
	switch r.Type {
	case wal.RecBegin:
		a.txn(r.Txn)
		return nil
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
	tbl, ok := a.db.TableByID(r.Table)
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
