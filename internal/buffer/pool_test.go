package buffer

import (
	"sync"
	"testing"

	"anywheredb/internal/page"
	"anywheredb/internal/store"
)

// testPool builds a 4-shard pool so every test exercises the striped page
// table, cross-shard borrowing, and per-shard clocks the same way on every
// host (New's default shard count tracks GOMAXPROCS).
func testPool(t *testing.T, minF, init, maxF int) (*Pool, *store.Store) {
	return testPoolShards(t, minF, init, maxF, 4)
}

func testPoolShards(t *testing.T, minF, init, maxF, shards int) (*Pool, *store.Store) {
	t.Helper()
	s, err := store.Open(store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return NewWithShards(s, minF, init, maxF, shards), s
}

func mkPage(t *testing.T, p *Pool, payload string) store.PageID {
	t.Helper()
	f, err := p.NewPage(store.MainFile, page.TypeTable)
	if err != nil {
		t.Fatal(err)
	}
	f.Data.Insert([]byte(payload))
	id := f.ID
	p.Unpin(f, true)
	return id
}

func TestGetHitAndMiss(t *testing.T) {
	p, _ := testPool(t, 2, 8, 16)
	id := mkPage(t, p, "hello")

	f, err := p.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	if string(f.Data.Cell(0)) != "hello" {
		t.Fatalf("content %q", f.Data.Cell(0))
	}
	p.Unpin(f, false)
	st := p.Stats()
	if st.Hits != 1 {
		t.Fatalf("hits = %d, want 1 (page still resident)", st.Hits)
	}
}

func TestEvictionWritesBackDirty(t *testing.T) {
	p, _ := testPool(t, 2, 4, 4)
	id := mkPage(t, p, "dirty data")
	// Fill the pool to force eviction of id.
	var ids []store.PageID
	for i := 0; i < 8; i++ {
		ids = append(ids, mkPage(t, p, "filler"))
	}
	_ = ids
	if p.Stats().Evictions == 0 {
		t.Fatal("expected evictions in a 4-frame pool after 9 pages")
	}
	// Re-read the original page: content must have been written back.
	f, err := p.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Unpin(f, false)
	if string(f.Data.Cell(0)) != "dirty data" {
		t.Fatalf("evicted page lost its data: %q", f.Data.Cell(0))
	}
}

func TestPinnedPagesNeverEvicted(t *testing.T) {
	p, _ := testPool(t, 2, 4, 4)
	// Pin all 4 frames.
	var pinned []*Frame
	for i := 0; i < 4; i++ {
		f, err := p.NewPage(store.MainFile, page.TypeTable)
		if err != nil {
			t.Fatal(err)
		}
		pinned = append(pinned, f)
	}
	if _, err := p.NewPage(store.MainFile, page.TypeTable); err != ErrPoolExhausted {
		t.Fatalf("want ErrPoolExhausted, got %v", err)
	}
	p.Unpin(pinned[0], false)
	if _, err := p.Get(pinned[0].ID); err != nil {
		t.Fatalf("get after unpin: %v", err)
	}
}

// A Get that finds no frame fails and leaves the page it asked for alone: it
// is somebody's live page, unlike the one NewPage had just allocated, which
// goes back to the store.
func TestExhaustedGetLeavesThePageAlone(t *testing.T) {
	for _, fl := range []store.FileID{store.MainFile, store.TempFile} {
		p, st := testPool(t, 2, 4, 4)
		f, err := p.NewPage(fl, page.TypeTable)
		if err != nil {
			t.Fatal(err)
		}
		f.Data.Insert([]byte("live"))
		live := f.ID
		p.Unpin(f, true)

		var pinned []*Frame
		for i := 0; i < 4; i++ { // the fourth evicts live
			f, err := p.NewPage(fl, page.TypeTable)
			if err != nil {
				t.Fatal(err)
			}
			pinned = append(pinned, f)
		}
		if _, err := p.Get(live); err != ErrPoolExhausted {
			t.Fatalf("file %d: Get with every frame pinned: %v, want ErrPoolExhausted", fl, err)
		}
		before, err := st.FreeList(fl)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := p.NewPage(fl, page.TypeTable); err != ErrPoolExhausted {
			t.Fatalf("file %d: NewPage with every frame pinned: %v, want ErrPoolExhausted", fl, err)
		}
		free, err := st.FreeList(fl)
		if err != nil {
			t.Fatal(err)
		}
		if len(free) != len(before)+1 {
			t.Errorf("file %d: free list %d -> %d pages over a failed NewPage, want its page back", fl, len(before), len(free))
		}
		for _, id := range free {
			if id == live {
				t.Fatalf("file %d: the failed Get freed the page it was asked to read", fl)
			}
		}

		p.Unpin(pinned[0], false)
		f, err = p.Get(live)
		if err != nil {
			t.Fatalf("file %d: Get after unpin: %v", fl, err)
		}
		if f.Data.Type() != page.TypeTable || string(f.Data.Cell(0)) != "live" {
			t.Fatalf("file %d: page came back as type %v, cell %q", fl, f.Data.Type(), f.Data.Cell(0))
		}
		p.Unpin(f, false)
		for _, f := range pinned[1:] {
			p.Unpin(f, false)
		}
	}
}

func TestUnpinUnderflowPanics(t *testing.T) {
	p, _ := testPool(t, 2, 4, 4)
	f, _ := p.NewPage(store.MainFile, page.TypeTable)
	p.Unpin(f, false)
	defer func() {
		if recover() == nil {
			t.Fatal("double unpin should panic")
		}
	}()
	p.Unpin(f, false)
}

func TestHotPageSurvivesScan(t *testing.T) {
	p, _ := testPool(t, 2, 16, 16)
	hot := mkPage(t, p, "hot")
	// Reference the hot page repeatedly so its score climbs.
	for i := 0; i < 50; i++ {
		f, _ := p.Get(hot)
		p.Unpin(f, false)
		if i%5 == 0 {
			mkPage(t, p, "stream") // interleave cold pages
		}
	}
	missesBefore := p.Stats().Misses
	// A scan of 32 cold pages floods the pool while the hot page keeps
	// being referenced; its high score must protect it from the
	// score-1 streaming pages.
	for i := 0; i < 32; i++ {
		mkPage(t, p, "cold scan")
		if i%4 == 0 {
			f, _ := p.Get(hot)
			p.Unpin(f, false)
		}
	}
	f, _ := p.Get(hot)
	p.Unpin(f, false)
	if p.Stats().Misses != missesBefore {
		t.Fatal("hot page was evicted by a scan despite frequent re-reference")
	}
}

// TestColdPageAgesOut is the complement: a page not re-referenced while the
// pool floods must eventually become a candidate and be evicted (scores
// decay exponentially, §2.2).
func TestColdPageAgesOut(t *testing.T) {
	p, _ := testPool(t, 2, 16, 16)
	cold := mkPage(t, p, "cold")
	for i := 0; i < 20; i++ { // build up some score
		f, _ := p.Get(cold)
		p.Unpin(f, false)
	}
	for i := 0; i < 64; i++ {
		mkPage(t, p, "flood")
	}
	if p.Contains(cold) {
		t.Fatal("unreferenced page should age out during a long flood")
	}
}

func TestDiscardFeedsLookaside(t *testing.T) {
	// Single shard: the lookaside queue is per-shard, and this test's
	// assertion (the next allocation reuses the discarded frame) only holds
	// when the new page is guaranteed to land in the discarding shard.
	p, _ := testPoolShards(t, 2, 8, 8, 1)
	// Fill the pool so the free list is empty and the lookaside queue is the
	// only fast path.
	var ids []store.PageID
	for i := 0; i < 8; i++ {
		ids = append(ids, mkPage(t, p, "temp"))
	}
	id := ids[3]
	p.Discard(id)
	if p.Contains(id) {
		t.Fatal("discarded page still resident")
	}
	// Next page allocation should come from the lookaside queue.
	f, err := p.NewPage(store.TempFile, page.TypeTemp)
	if err != nil {
		t.Fatal(err)
	}
	p.Unpin(f, false)
	if p.Stats().LookasideHits == 0 {
		t.Fatal("expected a lookaside hit")
	}
	// Discarded dirty page must NOT have been written back.
	if p.Stats().Writebacks != 0 {
		t.Fatal("discard must not write back")
	}
}

func TestDiscardPinnedIsNoop(t *testing.T) {
	p, _ := testPool(t, 2, 8, 8)
	f, _ := p.NewPage(store.MainFile, page.TypeTable)
	p.Discard(f.ID)
	if !p.Contains(f.ID) {
		t.Fatal("pinned page must not be discarded")
	}
	p.Unpin(f, false)
}

func TestFlushAllAndFlushPage(t *testing.T) {
	p, s := testPool(t, 2, 8, 8)
	id := mkPage(t, p, "flush me")
	if err := p.FlushAll(); err != nil {
		t.Fatal(err)
	}
	// Read directly from the store, bypassing the pool.
	raw := make(page.Buf, page.Size)
	if err := s.Read(id, raw); err != nil {
		t.Fatal(err)
	}
	if string(raw.Cell(0)) != "flush me" {
		t.Fatalf("store content after FlushAll: %q", raw.Cell(0))
	}
	if err := p.FlushPage(id); err != nil {
		t.Fatal(err) // now clean: no-op
	}
	if err := p.FlushPage(store.MakePageID(store.MainFile, 999)); err != nil {
		t.Fatal("flush of uncached page should be a no-op")
	}
}

func TestResizeGrowAndShrink(t *testing.T) {
	p, _ := testPool(t, 2, 4, 32)
	if got := p.Resize(16); got != 16 {
		t.Fatalf("grow to 16 got %d", got)
	}
	var ids []store.PageID
	for i := 0; i < 16; i++ {
		ids = append(ids, mkPage(t, p, "x"))
	}
	if got := p.Resize(4); got != 4 {
		t.Fatalf("shrink to 4 got %d", got)
	}
	if p.SizePages() != 4 {
		t.Fatalf("SizePages = %d", p.SizePages())
	}
	// All data still readable (written back during shrink).
	for _, id := range ids {
		f, err := p.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if string(f.Data.Cell(0)) != "x" {
			t.Fatal("data lost in shrink")
		}
		p.Unpin(f, false)
	}
}

func TestResizeClampedToBounds(t *testing.T) {
	p, _ := testPool(t, 4, 8, 16)
	if got := p.Resize(1); got != 4 {
		t.Fatalf("shrink below min got %d, want 4", got)
	}
	if got := p.Resize(100); got != 16 {
		t.Fatalf("grow beyond max got %d, want 16", got)
	}
	minF, maxF := p.Bounds()
	if minF != 4 || maxF != 16 {
		t.Fatalf("bounds %d,%d", minF, maxF)
	}
}

func TestResizeShrinkWithPins(t *testing.T) {
	p, _ := testPool(t, 1, 8, 8)
	var pinned []*Frame
	for i := 0; i < 6; i++ {
		f, _ := p.NewPage(store.MainFile, page.TypeTable)
		pinned = append(pinned, f)
	}
	got := p.Resize(2)
	if got < 6 {
		t.Fatalf("resize below pin count impossible; got %d", got)
	}
	for _, f := range pinned {
		p.Unpin(f, true)
	}
	if got := p.Resize(2); got != 2 {
		t.Fatalf("post-unpin shrink got %d", got)
	}
}

func TestResidentPages(t *testing.T) {
	p, _ := testPool(t, 2, 8, 8)
	f, _ := p.NewPage(store.MainFile, page.TypeTable)
	f.Data.SetOwner(42)
	p.Unpin(f, true)
	g, _ := p.NewPage(store.MainFile, page.TypeTable)
	g.Data.SetOwner(42)
	p.Unpin(g, true)
	h, _ := p.NewPage(store.MainFile, page.TypeTable)
	h.Data.SetOwner(7)
	p.Unpin(h, true)
	if got := p.ResidentPages(42); got != 2 {
		t.Fatalf("ResidentPages(42) = %d, want 2", got)
	}
}

// TestResidentPagesVsLoads runs the residency scan — which reads page
// content, the owner field, of frames it does not pin — against misses
// filling frames from the store and new pages being formatted. The scan
// must neither block on them nor read a buffer they are writing; only the
// race detector can see the second half.
func TestResidentPagesVsLoads(t *testing.T) {
	p, _ := testPool(t, 4, 8, 8)
	var ids []store.PageID
	for i := 0; i < 64; i++ {
		ids = append(ids, mkPage(t, p, "resident"))
	}
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 400; i++ {
				var f *Frame
				var err error
				if g == 0 && i%4 == 0 {
					f, err = p.NewPage(store.MainFile, page.TypeTable)
				} else {
					f, err = p.Get(ids[(g*13+i)%len(ids)]) // 8 frames, 64 pages: mostly misses
				}
				if err != nil {
					t.Error(err)
					return
				}
				p.Unpin(f, false)
			}
		}(g)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for scans := 0; ; scans++ {
		p.ResidentPages(0)
		select {
		case <-done:
			if scans == 0 {
				t.Fatal("the scan never overlapped the loaders")
			}
			return
		default:
		}
	}
}

func TestConcurrentGets(t *testing.T) {
	p, _ := testPool(t, 2, 32, 64)
	var ids []store.PageID
	for i := 0; i < 16; i++ {
		ids = append(ids, mkPage(t, p, "concurrent"))
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				id := ids[(g*7+i)%len(ids)]
				f, err := p.Get(id)
				if err != nil {
					t.Error(err)
					return
				}
				f.RLock()
				_ = f.Data.Cell(0)
				f.RUnlock()
				p.Unpin(f, false)
			}
		}(g)
	}
	wg.Wait()
}

func TestLookasideQueue(t *testing.T) {
	q := newLookaside[int](4)
	if _, ok := q.pop(); ok {
		t.Fatal("empty pop should fail")
	}
	for i := 0; i < 4; i++ {
		if !q.push(i) {
			t.Fatalf("push %d failed", i)
		}
	}
	if q.push(99) {
		t.Fatal("push to full queue should fail")
	}
	for i := 0; i < 4; i++ {
		v, ok := q.pop()
		if !ok || v != i {
			t.Fatalf("pop = %d,%v want %d", v, ok, i)
		}
	}
}

func TestLookasideConcurrent(t *testing.T) {
	q := newLookaside[int](128)
	var wg sync.WaitGroup
	var popped sync.Map
	for w := 0; w < 4; w++ {
		wg.Add(2)
		go func(base int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				for !q.push(base*1000 + i) {
				}
			}
		}(w)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; {
				if v, ok := q.pop(); ok {
					if _, dup := popped.LoadOrStore(v, true); dup {
						t.Errorf("value %d popped twice", v)
						return
					}
					i++
				}
			}
		}()
	}
	wg.Wait()
	count := 0
	popped.Range(func(_, _ any) bool { count++; return true })
	if count != 4000 {
		t.Fatalf("popped %d unique values, want 4000", count)
	}
}
