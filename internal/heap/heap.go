// Package heap implements the connection/request heaps of §2.1.
//
// In-memory data structures created for query processing — hash tables,
// sorted runs, cursors — are allocated within heaps whose pages live in the
// one buffer pool, backed by temporary-file pages. When a heap is not in
// use (for example while the server awaits the next FETCH), it is
// "unlocked": its pages become stealable and the buffer manager may evict
// them to the temporary file to reuse the frames for table or index pages.
// Rows are addressed by stable (page, slot) handles while the heap is
// locked; the paper's re-lock, which pins an unlocked heap back with its
// pointers swizzled, is not reproduced: no operator reads an unlocked heap
// by handle.
//
// A heap is also the engine's one container for rows spilled to the
// temporary file: a sorted run or an evicted hash partition is a heap its
// owner unlocked, appended to through one pinned tail page and read back
// through a Cursor that pins one page at a time. Every page a heap holds
// pinned is charged to the owner's mem.Account, and to nothing once unpinned.
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

// ErrUnlocked is returned when rows are addressed by handle while the heap
// is unlocked.
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
	st     *store.Store
	acct   *mem.Account
	pages  []store.PageID
	frames []*buffer.Frame // parallel to pages; non-nil = pinned and charged
	locked bool
	rows   int
}

// New creates an empty, locked heap whose pinned pages are charged to acct.
func New(pool *buffer.Pool, st *store.Store, acct *mem.Account) *Heap {
	return &Heap{pool: pool, st: st, acct: acct, locked: true}
}

// Rows reports the number of rows added.
func (h *Heap) Rows() int { return h.rows }

// Pages reports the heap's size in pages, pinned or not.
func (h *Heap) Pages() int { return len(h.pages) }

// PageIDs reports the heap's temporary-file pages in order.
func (h *Heap) PageIDs() []store.PageID { return h.pages }

// pin charges page i and pins it.
func (h *Heap) pin(i int) error {
	if err := h.acct.Alloc(1); err != nil {
		return err
	}
	f, err := h.pool.Get(h.pages[i])
	if err != nil {
		h.acct.Free(1)
		return err
	}
	h.frames[i] = f
	return nil
}

func (h *Heap) unpin(i int) {
	h.pool.Unpin(h.frames[i], false)
	h.frames[i] = nil
	h.acct.Free(1)
}

// AddRow appends a row and returns its handle. A locked heap keeps every
// page pinned; an unlocked one keeps only the page being filled, until the
// next Unlock. Charging a page can bring a release request that unlocks
// this heap (see mem.Account), so the state is re-read after each charge.
func (h *Heap) AddRow(b []byte) (RowRef, error) {
	if len(b) > page.Size-page.HeaderSize-8 {
		return Nil, ErrRowTooLarge
	}
	if n := len(h.pages) - 1; n >= 0 {
		if h.frames[n] == nil {
			if err := h.pin(n); err != nil {
				return Nil, err
			}
		}
		if ref, ok := h.insert(n, b); ok {
			return ref, nil
		}
		if !h.locked {
			h.unpin(n)
		}
	}
	if err := h.acct.Alloc(1); err != nil {
		return Nil, err
	}
	f, err := h.pool.NewPage(store.TempFile, page.TypeHeap)
	if err != nil {
		h.acct.Free(1)
		return Nil, err
	}
	h.pages = append(h.pages, f.ID)
	h.frames = append(h.frames, f)
	ref, ok := h.insert(len(h.pages)-1, b)
	if !ok {
		return Nil, fmt.Errorf("heap: insert into fresh page failed for %d bytes", len(b))
	}
	return ref, nil
}

// insert puts b in pinned page i if it fits.
func (h *Heap) insert(i int, b []byte) (RowRef, bool) {
	f := h.frames[i]
	f.Lock() // the pool reads page headers of resident frames
	slot := f.Data.Insert(b)
	f.Unlock()
	if slot < 0 {
		return Nil, false
	}
	f.MarkDirty()
	h.rows++
	return RowRef{Page: int32(i), Slot: int32(slot)}, true
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
// Unlocking an unlocked heap drops the page AddRow was filling.
func (h *Heap) Unlock() {
	for i, f := range h.frames {
		if f != nil {
			h.unpin(i)
		}
	}
	h.locked = false
}

// Free releases every page: frames are discarded without write-back (the
// contents are dead) and pushed to the lookaside queue, and the temp-file
// pages return to the free chain. The heap becomes empty and locked.
func (h *Heap) Free() {
	h.Unlock()
	for _, id := range h.pages {
		h.pool.Discard(id)
	}
	_ = h.st.Free(h.pages...) // temp-file pages: losing one to a failed free costs space until restart
	h.pages = h.pages[:0]
	h.frames = h.frames[:0]
	h.rows = 0
	h.locked = true
}

// Cursor reads a heap's rows in the order they were added while holding at
// most one page pinned (and charged), so it reads an unlocked heap of any
// size in one page of memory.
type Cursor struct {
	h       *Heap
	page    int // next page to pin
	slot    int // next slot of the pinned page
	f       *buffer.Frame
	charged bool
}

// Cursor opens a cursor at the heap's first row. Close it before the heap
// is freed.
func (h *Heap) Cursor() *Cursor { return &Cursor{h: h} }

// Next returns the next row, or nil at the end. The slice aliases the
// pinned page and is valid until the following Next or Close.
func (c *Cursor) Next() ([]byte, error) {
	for {
		if c.f != nil {
			for c.slot < c.f.Data.NumSlots() {
				c.slot++
				if cell := c.f.Data.Cell(c.slot - 1); cell != nil {
					return cell, nil
				}
			}
			c.h.pool.Unpin(c.f, false)
			c.f = nil
		}
		if c.page >= len(c.h.pages) {
			c.Close()
			return nil, nil
		}
		if !c.charged {
			if err := c.h.acct.Alloc(1); err != nil {
				return nil, err
			}
			c.charged = true
		}
		f, err := c.h.pool.Get(c.h.pages[c.page])
		if err != nil {
			return nil, err
		}
		c.f, c.slot = f, 0
		c.page++
	}
}

// Close unpins the cursor's page; Next then reports the end.
func (c *Cursor) Close() {
	if c.f != nil {
		c.h.pool.Unpin(c.f, false)
		c.f = nil
	}
	if c.charged {
		c.h.acct.Free(1)
		c.charged = false
	}
	c.page = len(c.h.pages)
}
