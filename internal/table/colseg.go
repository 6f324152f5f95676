package table

import (
	"encoding/binary"
	"errors"
	"fmt"

	"anywheredb/internal/colseg"
	"anywheredb/internal/page"
	"anywheredb/internal/store"
	"anywheredb/internal/txn"
	"anywheredb/internal/val"
	"anywheredb/internal/wal"
)

// Columnar segment support. A table may carry an immutable set of sealed
// column segments (internal/colseg) covering a prefix of its heap chain;
// the remainder of the chain — the delta tail — holds rows inserted after
// the build and is scanned alongside the segments. The heap is always
// authoritative: any update or delete invalidates the segments (logging a
// RecColSegDrop so the invalidation survives a crash) and scans fall back
// to the heap until the reorganizer or an explicit ALTER rebuilds them.

// ErrBuildInvalidated is returned when a concurrent update/delete races a
// columnar build; the caller may simply retry later.
var ErrBuildInvalidated = errors.New("table: columnar build invalidated by concurrent write")

// ColState is an immutable snapshot of a table's columnar layout.
type ColState struct {
	// Segs are the sealed segments, covering every heap page before
	// DeltaStart in chain order.
	Segs []*colseg.Segment
	// DeltaStart is the first heap page NOT covered by Segs.
	DeltaStart store.PageID
	// SegHead is the head of the persisted blob chain (0 = memory only).
	SegHead store.PageID
}

// Columnar returns the current columnar snapshot, or nil when the table is
// row-only. The snapshot is immutable; a concurrent invalidation does not
// disturb a scan already holding it (same latch-level consistency as the
// heap scan).
func (t *Table) Columnar() *ColState { return t.colstate.Load() }

// SegmentCount reports the number of sealed segments (0 when row-only).
func (t *Table) SegmentCount() int {
	if cs := t.colstate.Load(); cs != nil {
		return len(cs.Segs)
	}
	return 0
}

// invalidateColumnar drops the columnar snapshot because a row covered by
// it may be about to change. When tx is non-nil the drop is WAL-logged
// BEFORE the caller logs its data record, so recovery can never replay the
// data change yet keep the stale segments. Dropping is conservative — a
// loser transaction's drop also sticks — which costs the acceleration, not
// correctness.
func (t *Table) invalidateColumnar(tx *txn.Txn) {
	if t.colstate.Load() == nil {
		t.mu.Lock()
		t.colGen++
		t.mu.Unlock()
		return
	}
	if tx != nil {
		tx.Log(&wal.Record{Type: wal.RecColSegDrop, Table: t.ID})
	}
	t.mu.Lock()
	t.colGen++
	t.colstate.Store(nil)
	t.mu.Unlock()
	if t.OnColsegDrop != nil {
		t.OnColsegDrop()
	}
}

// BuildColumnar seals the current heap into column segments. The heap
// chain is first "sealed" by appending a fresh, empty tail page: inserts
// only ever target the chain tail, so no later insert can land in — or
// reuse a freed slot of — any page before the boundary. The sealed prefix
// is then scanned into segments without holding the table mutex; a
// concurrent update/delete bumps the mutation generation and the build
// abandons its result instead of installing a stale snapshot.
//
// When tx is non-nil the chain growth is logged (RecPageLink) exactly as a
// transactional insert would, so crash recovery rebuilds the linkage; when
// persist is set the encoded segments are also written to a chain of
// colseg pages through the buffer pool, written back under the pool's
// page-image rule like every other page.
func (t *Table) BuildColumnar(tx *txn.Txn, persist bool) (*ColState, error) {
	t.mu.Lock()
	gen := t.colGen
	first := t.first
	f, err := t.pool.Get(t.last)
	if err != nil {
		t.mu.Unlock()
		return nil, err
	}
	nf, err := t.pool.NewPage(t.file, page.TypeTable)
	if err != nil {
		t.pool.Unpin(f, false)
		t.mu.Unlock()
		return nil, err
	}
	nf.Lock()
	nf.Data.SetOwner(t.ID)
	nf.Unlock()
	f.Lock()
	f.Data.SetNext(uint64(nf.ID))
	f.MarkDirty()
	if tx != nil {
		stamp(f, tx, &wal.Record{Type: wal.RecPageLink, Table: t.ID, Page: f.ID, After: pageIDBytes(nf.ID)})
	}
	f.Unlock()
	t.pool.Unpin(f, true)
	delta := nf.ID
	t.last = nf.ID
	t.pages.Add(1)
	t.pool.Unpin(nf, true)
	t.mu.Unlock()

	kinds := make([]val.Kind, len(t.Columns))
	for i, c := range t.Columns {
		kinds[i] = c.Kind
	}
	b := colseg.NewBuilder(kinds, t.SegmentRows)
	if err := t.scanRange(first, delta, nil, func(_ RID, row []val.Value) (bool, error) {
		b.Add(row)
		return true, nil
	}); err != nil {
		return nil, err
	}
	cs := &ColState{Segs: b.Finish(), DeltaStart: delta}
	if persist {
		head, err := t.writeSegChain(colseg.EncodeSegments(cs.Segs))
		if err != nil {
			return nil, err
		}
		cs.SegHead = head
	}

	t.mu.Lock()
	if t.colGen != gen {
		t.mu.Unlock()
		if cs.SegHead != 0 {
			t.freeSegChain(cs.SegHead)
		}
		return nil, ErrBuildInvalidated
	}
	t.colstate.Store(cs)
	t.mu.Unlock()
	return cs, nil
}

// DropColumnar removes the columnar snapshot and frees its persisted blob
// chain (ALTER TABLE ... STORE ROW). Unlike the hot-path invalidation it
// reclaims the pages eagerly.
func (t *Table) DropColumnar(tx *txn.Txn) {
	cs := t.colstate.Load()
	t.invalidateColumnar(tx)
	if cs != nil && cs.SegHead != 0 {
		t.freeSegChain(cs.SegHead)
	}
}

// AttachColumnar restores a persisted columnar snapshot at attach time.
// It is strictly validating: a bad blob, a broken chain, or a delta
// boundary that is no longer part of the heap chain silently degrades the
// table to row-only (the heap is authoritative; the segments are only an
// acceleration structure).
func (t *Table) AttachColumnar(segHead, deltaStart store.PageID) error {
	if segHead == 0 || deltaStart == 0 {
		return fmt.Errorf("table %s: no persisted segments", t.Name)
	}
	// The boundary must be reachable from the chain head, otherwise the
	// catalog entry is stale.
	found := false
	t.mu.Lock()
	cur := t.first
	t.mu.Unlock()
	for cur != 0 {
		if cur == deltaStart {
			found = true
			break
		}
		f, err := t.pool.Get(cur)
		if err != nil {
			return err
		}
		f.RLock()
		next := f.Data.Next()
		f.RUnlock()
		t.pool.Unpin(f, false)
		cur = store.PageID(next)
	}
	if !found {
		return fmt.Errorf("table %s: delta boundary %v not in heap chain", t.Name, deltaStart)
	}
	blob, err := t.readSegChain(segHead)
	if err != nil {
		return err
	}
	segs, err := colseg.DecodeSegments(blob)
	if err != nil {
		return err
	}
	t.mu.Lock()
	t.colstate.Store(&ColState{Segs: segs, DeltaStart: deltaStart, SegHead: segHead})
	t.mu.Unlock()
	return nil
}

// segChunk is the blob payload per colseg page (one cell, headroom like
// the catalog chain).
const segChunk = page.Size - page.HeaderSize - 64

// writeSegChain writes a blob into a fresh chain of colseg pages.
func (t *Table) writeSegChain(blob []byte) (store.PageID, error) {
	var head, prev store.PageID
	for off := 0; off == 0 || off < len(blob); off += segChunk {
		hi := off + segChunk
		if hi > len(blob) {
			hi = len(blob)
		}
		f, err := t.pool.NewPage(t.file, page.TypeColSeg)
		if err != nil {
			if head != 0 {
				t.freeSegChain(head)
			}
			return 0, err
		}
		f.Lock()
		f.Data.SetOwner(t.ID)
		f.Data.Insert(blob[off:hi])
		f.Unlock()
		id := f.ID
		t.pool.Unpin(f, true)
		if head == 0 {
			head = id
		} else {
			pf, err := t.pool.Get(prev)
			if err != nil {
				t.freeSegChain(head)
				return 0, err
			}
			pf.Lock()
			pf.Data.SetNext(uint64(id))
			pf.MarkDirty()
			pf.Unlock()
			t.pool.Unpin(pf, true)
		}
		prev = id
	}
	return head, nil
}

// readSegChain concatenates the blob chunks of a colseg chain.
func (t *Table) readSegChain(head store.PageID) ([]byte, error) {
	var blob []byte
	cur := head
	for cur != 0 {
		f, err := t.pool.Get(cur)
		if err != nil {
			return nil, err
		}
		f.RLock()
		if f.Data.Type() != page.TypeColSeg {
			f.RUnlock()
			t.pool.Unpin(f, false)
			return nil, fmt.Errorf("table %s: page %v is %v, not colseg", t.Name, cur, f.Data.Type())
		}
		if cell := f.Data.Cell(0); cell != nil {
			blob = append(blob, cell...)
		}
		next := f.Data.Next()
		f.RUnlock()
		t.pool.Unpin(f, false)
		cur = store.PageID(next)
	}
	return blob, nil
}

// freeSegChain returns a blob chain's pages to the free list.
func (t *Table) freeSegChain(head store.PageID) {
	cur := head
	for cur != 0 {
		f, err := t.pool.Get(cur)
		if err != nil {
			return // abandon the rest; reclaimed at the next vacuum
		}
		f.RLock()
		next := f.Data.Next()
		f.RUnlock()
		t.pool.Unpin(f, false)
		t.pool.Discard(cur)
		_ = t.st.Free(cur)
		cur = store.PageID(next)
	}
}

func pageIDBytes(id store.PageID) []byte {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(id))
	return b[:]
}
