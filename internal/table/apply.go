// Streaming-apply surface: what a WAL log-shipping replica needs to replay
// a primary's data records in arrival (LSN) order. Row changes run the same
// mutation kernels as forward DML (see table.go), under the transaction
// that stands for the primary's (txn.Manager.Adopt); the only differences
// are the ones the log dictates. The location is the shipped one, not the
// chain tail. An update that does not fit in place is an error, never a
// move: the primary ships a move as a delete/insert pair. And chain growth
// and columnar drops arrive as records of their own instead of being
// decided here. Index trees are untouched only because a replica attaches
// none (a btree split would allocate pages that collide with ids the
// primary assigns later in the stream); the kernels maintain whatever
// Indexes holds.

package table

import (
	"encoding/binary"
	"fmt"

	"anywheredb/internal/page"
	"anywheredb/internal/store"
	"anywheredb/internal/txn"
	"anywheredb/internal/val"
	"anywheredb/internal/wal"
)

// Apply replays one shipped record of this table on behalf of tx. The
// change stays invisible to snapshot readers, and tx holds its inverse,
// until the caller settles tx with the shipped commit or rollback. Chain
// growth and columnar drops change no row and use no tx.
func (t *Table) Apply(tx *txn.Txn, r *wal.Record) error {
	// A shipped record can target a page past the replica's file size (the
	// primary allocated it after the copy): make it addressable first, as
	// recovery does.
	t.st.EnsureAllocated(r.Page)
	rid := RID{Page: r.Page, Slot: int(r.Slot)}
	var err error
	switch r.Type {
	case wal.RecPageLink:
		if len(r.After) < 8 {
			return nil
		}
		return t.applyPageLink(r, store.PageID(binary.LittleEndian.Uint64(r.After)))
	case wal.RecColSegDrop:
		t.ApplyColSegDrop()
		return nil
	case wal.RecInsert:
		var row []val.Value
		if row, err = val.DecodeRow(r.After); err == nil {
			_, err = t.insertRow(tx, &rid, row, r.After, r)
		}
	case wal.RecUpdate:
		var oldRow, newRow []val.Value
		if oldRow, err = val.DecodeRow(r.Before); err == nil {
			if newRow, err = val.DecodeRow(r.After); err == nil {
				err = t.updateRow(tx, rid, oldRow, newRow, r.After, r)
			}
		}
	case wal.RecDelete:
		var row []val.Value
		if row, err = val.DecodeRow(r.Before); err == nil {
			err = t.deleteRow(tx, rid, row, r)
		}
	default:
		return fmt.Errorf("table %s: unexpected shipped record type %v", t.Name, r.Type)
	}
	if err != nil {
		return fmt.Errorf("table %s: apply %v at %v: %w", t.Name, r.Type, rid, err)
	}
	return nil
}

// applyPageLink replays shipped heap-chain growth r: the next pointer of
// its page is set to next, next is initialised as a table page, both are
// stamped, and the in-memory chain bookkeeping (tail pointer, page count)
// follows.
func (t *Table) applyPageLink(r *wal.Record, next store.PageID) error {
	prev := r.Page
	t.st.EnsureAllocated(next)
	if err := t.withPage(prev, nil, r, func(p page.Buf) error {
		p.SetNext(uint64(next))
		return nil
	}); err != nil {
		return err
	}
	if err := t.withPage(next, nil, r, func(p page.Buf) error { return nil }); err != nil {
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

// ApplyColSegDrop replays a shipped columnar invalidation: the in-memory
// snapshot is dropped (no page frees — the primary owns the free list).
func (t *Table) ApplyColSegDrop() {
	t.invalidateColumnar(nil)
}
