// Replay surface: what a log-shipping replica needs to replay a primary's
// records in arrival (LSN) order, and recovery its own log's tail. Row
// changes run the same mutation kernels as forward DML (see table.go),
// under the transaction that stands for the logging one
// (txn.Manager.Adopt); the only differences are the ones the log dictates.
// The location is the logged one, not the chain tail. A change its page
// holds already (stamped at or past it) is not made again. An update that
// does not fit in place is an error, never a move: the primary ships a move
// as a delete/insert pair. An update logs only the span it changes, so it
// is rebuilt from the cell it names, and refused by a cell it does not
// describe. And chain growth and columnar drops arrive as
// records of their own. Index trees are untouched only because replay
// attaches none (a replica's btree split would allocate page ids the
// primary assigns later; recovery rebuilds its trees afterwards); the
// kernels maintain whatever Indexes holds.

package table

import (
	"encoding/binary"
	"fmt"
	"slices"

	"anywheredb/internal/page"
	"anywheredb/internal/store"
	"anywheredb/internal/txn"
	"anywheredb/internal/val"
	"anywheredb/internal/wal"
)

// Apply replays one logged record of this table on behalf of tx. The
// change stays invisible to snapshot readers, and tx holds its inverse,
// until the caller settles tx with the logged commit or rollback. A
// compensation runs the inverse of tx's newest change still standing; with
// none registered (the change came before the replay did, or with a commit
// since taken back) it is made from the record. Chain growth and columnar
// drops use no tx.
func (t *Table) Apply(tx *txn.Txn, r *wal.Record) error {
	if r.Undo && tx.UndoDepth() > 0 {
		return tx.UndoLast(r.LSN)
	}
	return t.apply(tx, r)
}

// apply makes the change r describes (a compensation registers no inverse).
func (t *Table) apply(tx *txn.Txn, r *wal.Record) (err error) {
	// A record can target a page past the file's size (allocated after the
	// copy a replica started from): make it addressable first.
	t.st.EnsureAllocated(r.Page)
	switch r.Type {
	case wal.RecPageLink:
		if len(r.After) < 8 {
			return nil
		}
		return t.applyPageLink(r, store.PageID(binary.LittleEndian.Uint64(r.After)))
	case wal.RecColSegDrop:
		t.invalidateColumnar(nil) // no page frees: the primary owns the free list
		return nil
	}
	rid := RID{Page: r.Page, Slot: int(r.Slot)}
	if r.Type == wal.RecUpdate {
		if err := t.applyUpdate(tx, rid, r); err != nil {
			return fmt.Errorf("table %s: apply %v at %v: %w", t.Name, r.Type, rid, err)
		}
		return nil
	}
	var oldRow, newRow []val.Value
	if r.Before != nil {
		oldRow, err = val.DecodeRow(r.Before)
	}
	if r.After != nil && err == nil {
		newRow, err = val.DecodeRow(r.After)
	}
	switch {
	case err != nil:
	case r.Type == wal.RecInsert:
		_, err = t.insertRow(tx, &rid, newRow, r.After, r)
	case r.Type == wal.RecDelete:
		err = t.deleteRow(tx, rid, nil, oldRow, nil, r)
	default:
		return fmt.Errorf("table %s: unexpected logged record type %v", t.Name, r.Type)
	}
	if err != nil {
		return fmt.Errorf("table %s: apply %v at %v: %w", t.Name, r.Type, rid, err)
	}
	return nil
}

// applyUpdate makes update r at rid. The record carries only the span it
// changes, so both images are rebuilt from the row's cell, which must be
// the one r describes: Front+len(Before)+Back bytes long, holding Before at
// Front. A cell that is not fails the update with nothing changed. A record
// its page holds already is passed over before any look at the cell.
func (t *Table) applyUpdate(tx *txn.Txn, rid RID, r *wal.Record) error {
	f, err := t.pool.Get(rid.Page)
	if err != nil {
		return err
	}
	defer t.pool.Unpin(f, false)
	var oldRow, newRow []val.Value
	var newEnc []byte
	f.RLock()
	if p := f.Data; r.LSN == 0 || p.LSN() < r.LSN {
		var cell []byte
		if p.Type() == page.TypeTable && p.Owner() == t.ID {
			cell = p.Cell(rid.Slot)
		}
		front, back := int(r.Front), int(r.Back)
		if len(cell) != front+len(r.Before)+back || string(cell[front:front+len(r.Before)]) != string(r.Before) {
			err = fmt.Errorf("the %d-byte cell is not the one the update describes", len(cell))
		} else {
			newEnc = slices.Concat(cell[:front], r.After, cell[len(cell)-back:])
			if oldRow, err = val.DecodeRow(cell); err == nil {
				newRow, err = val.DecodeRow(newEnc)
			}
		}
	}
	f.RUnlock()
	if err != nil {
		return err
	}
	// The row is the caller's alone (its lock, or a log replayed in order):
	// the cell read above is the one updateRow replaces.
	return t.updateRow(tx, rid, f, oldRow, newRow, nil, newEnc, r)
}

// applyPageLink replays heap-chain growth r: the next pointer of its page
// is set to next, next is initialised as a table page, both are stamped,
// and the in-memory chain bookkeeping (tail pointer, page count) follows.
func (t *Table) applyPageLink(r *wal.Record, next store.PageID) error {
	prev := r.Page
	t.st.EnsureAllocated(next)
	if _, err := t.withPage(prev, nil, nil, r, func(p page.Buf) error {
		p.SetNext(uint64(next))
		return nil
	}); err != nil {
		return err
	}
	if _, err := t.withPage(next, nil, nil, r, func(p page.Buf) error { return nil }); err != nil {
		return err
	}
	t.mu.Lock()
	if t.last == prev {
		t.last = next
		t.pages.Add(1)
	}
	t.mu.Unlock()
	return nil
}
