// Package heap implements the connection/request heaps of §2.1.
//
// In-memory data structures created for query processing — hash tables,
// sorted runs, cursors — are allocated within heaps whose pages live in the
// one buffer pool, backed by temporary-file pages. When a heap is not in
// use (for example while the server awaits the next FETCH), it is
// "unlocked": its pages become stealable and the buffer manager may evict
// them to the temporary file to reuse the frames for table or index pages.
// Re-locking pins the pages back into memory; rows are addressed by stable
// (page, slot) handles, the moral equivalent of the paper's pointer
// swizzling on relocation.
package heap

import (
	"errors"
	"fmt"

	"anywheredb/internal/buffer"
	"anywheredb/internal/mem"
	"anywheredb/internal/page"
	"anywheredb/internal/store"
)

// ErrRowTooLarge is returned for rows that exceed one page's capacity.
// (The engine stores long strings through the separate long-value
// infrastructure; heap rows must fit a page.)
var ErrRowTooLarge = errors.New("heap: row exceeds page capacity")

// ErrUnlocked is returned when rows are accessed while the heap is
// unlocked.
var ErrUnlocked = errors.New("heap: access while unlocked")

// RowRef is a stable handle to a row in a heap. It survives page steals and
// reloads.
type RowRef struct {
	Page int32
	Slot int32
}

// Nil is the zero RowRef, never returned for a real row.
var Nil = RowRef{Page: -1, Slot: -1}

// Heap is a growable bag of rows in buffer-pool pages. Not safe for
// concurrent use; each task owns its heaps.
type Heap struct {
	pool   *buffer.Pool
	task   *mem.Task // optional memory accounting
	pages  []store.PageID
	frames []*buffer.Frame // parallel to pages; entries valid while locked
	locked bool
	rows   int
}

// New creates an empty, locked heap. task may be nil (no accounting).
func New(pool *buffer.Pool, task *mem.Task) *Heap {
	return &Heap{pool: pool, task: task, locked: true}
}

// Rows reports the number of rows added.
func (h *Heap) Rows() int { return h.rows }

// Pages reports the heap's size in pages — its memory-governor footprint.
func (h *Heap) Pages() int { return len(h.pages) }

// AddRow appends a row and returns its handle. The heap must be locked.
func (h *Heap) AddRow(b []byte) (RowRef, error) {
	if !h.locked {
		return Nil, ErrUnlocked
	}
	if len(b) > page.Size-page.HeaderSize-8 {
		return Nil, ErrRowTooLarge
	}
	// Try the last page.
	if n := len(h.frames); n > 0 {
		f := h.frames[n-1]
		if slot := f.Data.Insert(b); slot >= 0 {
			f.MarkDirty()
			h.rows++
			return RowRef{Page: int32(n - 1), Slot: int32(slot)}, nil
		}
	}
	// Need a new page: account it, then allocate.
	if h.task != nil {
		if err := h.task.Alloc(1); err != nil {
			return Nil, err
		}
	}
	f, err := h.pool.NewPage(store.TempFile, page.TypeHeap)
	if err != nil {
		if h.task != nil {
			h.task.Free(1)
		}
		return Nil, err
	}
	h.pages = append(h.pages, f.ID)
	h.frames = append(h.frames, f)
	slot := f.Data.Insert(b)
	if slot < 0 {
		return Nil, fmt.Errorf("heap: insert into fresh page failed for %d bytes", len(b))
	}
	f.MarkDirty()
	h.rows++
	return RowRef{Page: int32(len(h.frames) - 1), Slot: int32(slot)}, nil
}

// Row returns the bytes of a previously added row. The returned slice
// aliases the page and is valid until the heap is unlocked or freed.
func (h *Heap) Row(ref RowRef) ([]byte, error) {
	if !h.locked {
		return nil, ErrUnlocked
	}
	if ref.Page < 0 || int(ref.Page) >= len(h.frames) {
		return nil, fmt.Errorf("heap: bad row ref %+v", ref)
	}
	c := h.frames[ref.Page].Data.Cell(int(ref.Slot))
	if c == nil {
		return nil, fmt.Errorf("heap: dead row ref %+v", ref)
	}
	return c, nil
}

// Unlock unpins every page, making the frames stealable by the buffer
// manager (dirty pages are swapped to the temporary file on eviction).
func (h *Heap) Unlock() {
	if !h.locked {
		return
	}
	for _, f := range h.frames {
		h.pool.Unpin(f, false)
	}
	h.frames = h.frames[:0]
	h.locked = false
}

// Lock re-pins every page, re-reading any that were stolen while the heap
// was unlocked. Row handles issued before the unlock remain valid.
func (h *Heap) Lock() error {
	if h.locked {
		return nil
	}
	h.frames = h.frames[:0]
	for _, id := range h.pages {
		f, err := h.pool.Get(id)
		if err != nil {
			// Roll back partial pinning.
			for _, g := range h.frames {
				h.pool.Unpin(g, false)
			}
			h.frames = h.frames[:0]
			return err
		}
		h.frames = append(h.frames, f)
	}
	h.locked = true
	return nil
}

// Free releases every page: frames are discarded without write-back (the
// contents are dead) and pushed to the lookaside queue, and the temp-file
// pages return to the free chain. The heap becomes empty and locked.
func (h *Heap) Free(st *store.Store) {
	if h.locked {
		for _, f := range h.frames {
			h.pool.Unpin(f, false)
		}
	}
	for _, id := range h.pages {
		h.pool.Discard(id)
		if st != nil {
			_ = st.Free(id)
		}
	}
	if h.task != nil {
		h.task.Free(len(h.pages))
	}
	h.pages = h.pages[:0]
	h.frames = h.frames[:0]
	h.rows = 0
	h.locked = true
}

// ReleasePages frees the heap's newest pages down to keepPages, dropping
// the rows stored in them. Used by low-memory fallbacks that have already
// copied the affected rows elsewhere. Returns the number of pages freed.
// The heap must be locked.
func (h *Heap) ReleasePages(keepPages int, st *store.Store) int {
	if !h.locked || keepPages >= len(h.pages) {
		return 0
	}
	freed := 0
	for len(h.pages) > keepPages {
		n := len(h.pages) - 1
		h.rows -= h.frames[n].Data.LiveCells()
		h.pool.Unpin(h.frames[n], false)
		h.pool.Discard(h.pages[n])
		if st != nil {
			_ = st.Free(h.pages[n])
		}
		h.pages = h.pages[:n]
		h.frames = h.frames[:n]
		freed++
	}
	if h.task != nil {
		h.task.Free(freed)
	}
	return freed
}
