package heap

import (
	"bytes"
	"fmt"
	"testing"

	"anywheredb/internal/buffer"
	"anywheredb/internal/mem"
	"anywheredb/internal/page"
	"anywheredb/internal/store"
)

func setup(t *testing.T, poolFrames int) (*Heap, *buffer.Pool, *store.Store) {
	t.Helper()
	st, err := store.Open(store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	pool := buffer.New(st, 1, poolFrames, poolFrames)
	return New(pool, st, new(mem.Account)), pool, st
}

func TestAddAndReadRows(t *testing.T) {
	h, _, _ := setup(t, 16)
	var refs []RowRef
	for i := 0; i < 100; i++ {
		ref, err := h.AddRow([]byte(fmt.Sprintf("row-%03d", i)))
		if err != nil {
			t.Fatal(err)
		}
		refs = append(refs, ref)
	}
	if h.Rows() != 100 {
		t.Fatalf("rows %d", h.Rows())
	}
	for i, ref := range refs {
		b, err := h.Row(ref)
		if err != nil {
			t.Fatal(err)
		}
		if want := fmt.Sprintf("row-%03d", i); string(b) != want {
			t.Fatalf("row %d = %q, want %q", i, b, want)
		}
	}
}

func TestRowTooLarge(t *testing.T) {
	h, _, _ := setup(t, 8)
	if _, err := h.AddRow(make([]byte, page.Size)); err != ErrRowTooLarge {
		t.Fatalf("want ErrRowTooLarge, got %v", err)
	}
}

func TestUnlockedAccessFails(t *testing.T) {
	h, _, _ := setup(t, 8)
	ref, _ := h.AddRow([]byte("x"))
	h.Unlock()
	if _, err := h.Row(ref); err != ErrUnlocked {
		t.Fatalf("want ErrUnlocked, got %v", err)
	}
	// Unlock twice is harmless; the row stays readable through a cursor.
	h.Unlock()
	if _, err := h.Row(ref); err != ErrUnlocked {
		t.Fatalf("unlocked twice: want ErrUnlocked, got %v", err)
	}
	c := h.Cursor()
	b, err := c.Next()
	if err != nil || string(b) != "x" {
		t.Fatalf("cursor over the unlocked heap: %q, %v", b, err)
	}
	c.Close()
}

func TestStealAndSwizzle(t *testing.T) {
	// Pool of 8 frames; heap fills 4, then a flood of table pages steals
	// them while the heap is unlocked. A cursor must read the contents back.
	h, pool, st := setup(t, 8)
	const n = 16 // ~4 pages of 900-byte rows
	payload := bytes.Repeat([]byte("z"), 900)
	for i := 0; i < n; i++ {
		if _, err := h.AddRow(append(payload, byte('0'+i%10))); err != nil {
			t.Fatal(err)
		}
	}
	pagesBefore := h.Pages()
	h.Unlock()

	// Flood the pool with table pages so heap frames are stolen (dirty heap
	// pages are written to the temp file by the clock algorithm).
	for i := 0; i < 32; i++ {
		f, err := pool.NewPage(store.MainFile, page.TypeTable)
		if err != nil {
			t.Fatal(err)
		}
		f.Data.Insert([]byte("table data"))
		pool.Unpin(f, true)
	}
	if pool.Stats().Evictions == 0 {
		t.Fatal("test expected steals/evictions")
	}

	if h.Pages() != pagesBefore {
		t.Fatalf("pages %d, want %d", h.Pages(), pagesBefore)
	}
	c := h.Cursor()
	defer c.Close()
	for i := 0; i < n; i++ {
		b, err := c.Next()
		if err != nil {
			t.Fatalf("row %d after steal: %v", i, err)
		}
		if len(b) != 901 || b[900] != byte('0'+i%10) {
			t.Fatalf("row %d corrupted after steal/reload", i)
		}
	}
	_ = st
}

func TestFreeReturnsPages(t *testing.T) {
	h, pool, st := setup(t, 8)
	for i := 0; i < 20; i++ {
		h.AddRow(bytes.Repeat([]byte("a"), 500))
	}
	n := h.Pages()
	if n == 0 {
		t.Fatal("expected pages")
	}
	tempBefore := st.PageCount(store.TempFile)
	// Exhaust the pool's free list so that post-Free allocations must go
	// through the lookaside queue.
	for pool.Stats().Evictions == 0 {
		f, err := pool.NewPage(store.MainFile, page.TypeTable)
		if err != nil {
			t.Fatal(err)
		}
		pool.Unpin(f, true)
	}
	h.Free()
	if h.Pages() != 0 || h.Rows() != 0 {
		t.Fatal("heap not empty after Free")
	}
	// Freed pages are reusable: allocate again and the temp file shouldn't
	// grow beyond its previous size.
	for i := 0; i < 20; i++ {
		h.AddRow(bytes.Repeat([]byte("b"), 500))
	}
	if got := st.PageCount(store.TempFile); got > tempBefore {
		t.Fatalf("temp file grew from %d to %d despite free-chain", tempBefore, got)
	}
	// Discarded frames should be found via the lookaside queue.
	if pool.Stats().LookasideHits == 0 {
		t.Fatal("expected lookaside hits after Free")
	}
	h.Free()
}

func TestMemoryAccounting(t *testing.T) {
	st, _ := store.Open(store.Options{})
	defer st.Close()
	pool := buffer.New(st, 1, 64, 64)
	gov := mem.NewGovernor(func() int { return 8 }, func() int { return 8 }, 1)
	task := gov.Begin(new(mem.Task))
	defer task.Finish()

	var acct mem.Account
	acct.Open(task, nil, 0)
	defer acct.Close()
	h := New(pool, st, &acct)
	// Hard limit = ¾·8 = 6 pages. Rows of 900 bytes: 4 per page.
	var err error
	for i := 0; i < 100 && err == nil; i++ {
		_, err = h.AddRow(bytes.Repeat([]byte("m"), 900))
	}
	if err != mem.ErrHardLimit {
		t.Fatalf("want ErrHardLimit, got %v", err)
	}
	if task.UsedPages() > 7 {
		t.Fatalf("task used %d pages, hard limit is 6", task.UsedPages())
	}
	h.Free()
	if task.UsedPages() != 0 {
		t.Fatalf("pages not returned: %d", task.UsedPages())
	}
}

func TestBadRowRef(t *testing.T) {
	h, _, _ := setup(t, 8)
	if _, err := h.Row(RowRef{Page: 5, Slot: 0}); err == nil {
		t.Fatal("bad page ref should error")
	}
	h.AddRow([]byte("x"))
	if _, err := h.Row(RowRef{Page: 0, Slot: 99}); err == nil {
		t.Fatal("bad slot ref should error")
	}
}

// flood evicts every unpinned page by cycling table pages through the pool.
func flood(t *testing.T, pool *buffer.Pool, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		f, err := pool.NewPage(store.MainFile, page.TypeTable)
		if err != nil {
			t.Fatal(err)
		}
		pool.Unpin(f, true)
	}
}

// An unlocked heap is appended to through one pinned page and read back
// through a cursor that pins one page, whatever the pool steals meanwhile.
func TestUnlockedAppendAndCursor(t *testing.T) {
	st, err := store.Open(store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	pool := buffer.New(st, 1, 8, 64)
	gov := mem.NewGovernor(func() int { return 1000 }, func() int { return 1000 }, 1)
	task := gov.Begin(new(mem.Task))
	defer task.Finish()
	var acct mem.Account
	acct.Open(task, nil, 0)
	h := New(pool, st, &acct)
	h.Unlock()

	const n = 200 // 900-byte rows, 4 to a page: 50 pages through an 8-frame pool
	for i := 0; i < n; i++ {
		if _, err := h.AddRow(append(bytes.Repeat([]byte("u"), 900), byte(i))); err != nil {
			t.Fatal(err)
		}
		if got := pool.PinnedCount(); got > 1 {
			t.Fatalf("append %d: %d pages pinned, want the tail only", i, got)
		}
		if task.UsedPages() != pool.PinnedCount() {
			t.Fatalf("append %d: charged %d pages, pinned %d", i, task.UsedPages(), pool.PinnedCount())
		}
	}
	h.Unlock() // drops the tail
	if pool.PinnedCount() != 0 || task.UsedPages() != 0 {
		t.Fatalf("after Unlock: pinned %d, charged %d", pool.PinnedCount(), task.UsedPages())
	}

	c := h.Cursor()
	for i := 0; i < n; i++ {
		flood(t, pool, 16) // steal everything the cursor does not hold
		b, err := c.Next()
		if err != nil {
			t.Fatal(err)
		}
		if len(b) != 901 || b[900] != byte(i) {
			t.Fatalf("cursor row %d wrong", i)
		}
		if got := pool.PinnedCount(); got != 1 {
			t.Fatalf("cursor row %d: %d pages pinned, want 1", i, got)
		}
		if task.UsedPages() != 1 {
			t.Fatalf("cursor row %d: charged %d pages, want 1", i, task.UsedPages())
		}
	}
	if b, err := c.Next(); b != nil || err != nil {
		t.Fatalf("past the end: %v, %v", b, err)
	}
	if pool.PinnedCount() != 0 || task.UsedPages() != 0 {
		t.Fatalf("after the cursor: pinned %d, charged %d", pool.PinnedCount(), task.UsedPages())
	}

	free := len(mustFreeList(t, st))
	pages := h.Pages()
	h.Free()
	acct.Close()
	if task.UsedPages() != 0 || pool.PinnedCount() != 0 {
		t.Fatalf("after Free: charged %d, pinned %d", task.UsedPages(), pool.PinnedCount())
	}
	if got := len(mustFreeList(t, st)); got != free+pages {
		t.Fatalf("temp free list %d, want %d", got, free+pages)
	}
}

func mustFreeList(t *testing.T, st *store.Store) []store.PageID {
	t.Helper()
	ids, err := st.FreeList(store.TempFile)
	if err != nil {
		t.Fatal(err)
	}
	return ids
}
