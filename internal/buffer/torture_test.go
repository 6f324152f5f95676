package buffer

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"anywheredb/internal/faultinject"
	"anywheredb/internal/page"
	"anywheredb/internal/store"
)

// readFault is a fault injector that fails a page read when the function
// returns an error for that page; every other operation passes through.
type readFault func(id store.PageID) error

func (f readFault) Fault(op faultinject.Op, arg uint64, _ []byte) ([]byte, error) {
	if op == faultinject.OpRead {
		return nil, f(store.PageID(arg))
	}
	return nil, nil
}

func (readFault) Crashpoint(string) error { return nil }

// checkInvariants verifies the pool's structural integrity at quiescence:
// no lost frames, no double residency of a PageID across shards, free
// lists consistent, and the size within bounds. Must be called with no
// concurrent pool users.
func checkInvariants(t *testing.T, p *Pool) {
	t.Helper()
	if sz := p.SizePages(); sz < p.minSize || sz > p.maxSize {
		t.Fatalf("SizePages %d outside bounds [%d,%d]", sz, p.minSize, p.maxSize)
	}
	seen := map[store.PageID]int{}
	totalLimit := 0
	for si, s := range p.shards {
		s.mu.Lock()
		totalLimit += s.limit
		if len(s.frames) > s.limit {
			t.Errorf("shard %d holds %d frames above limit %d", si, len(s.frames), s.limit)
		}
		// Page table entries point at valid frames of this shard.
		for id, f := range s.table {
			if prev, dup := seen[id]; dup {
				t.Errorf("page %v resident in shards %d and %d", id, prev, si)
			}
			seen[id] = si
			if !f.valid || f.ID != id {
				t.Errorf("shard %d: table entry %v maps to frame (valid=%v id=%v)", si, id, f.valid, f.ID)
			}
			if f.idx >= len(s.frames) || s.frames[f.idx] != f {
				t.Errorf("shard %d: table frame for %v not in frames slice", si, id)
			}
		}
		// Frame accounting: every frame is valid-in-table, on the free
		// list, or parked in the lookaside queue — nothing leaks.
		onFree := map[*Frame]bool{}
		for _, idx := range s.free {
			f := s.frames[idx]
			if onFree[f] {
				t.Errorf("shard %d: frame %d on free list twice", si, idx)
			}
			if !f.onFree || f.valid {
				t.Errorf("shard %d: free-list frame %d state onFree=%v valid=%v", si, idx, f.onFree, f.valid)
			}
			onFree[f] = true
		}
		inLook := map[*Frame]bool{}
		var drained []*Frame
		for {
			f, ok := s.look.pop()
			if !ok {
				break
			}
			inLook[f] = true
			drained = append(drained, f)
		}
		for _, f := range drained { // non-destructive: put the entries back
			s.look.push(f)
		}
		for idx, f := range s.frames {
			if f.idx != idx {
				t.Errorf("shard %d: frame at %d records idx %d", si, idx, f.idx)
			}
			if pin := f.pin.Load(); pin != 0 {
				t.Errorf("shard %d: frame %d still pinned (%d) at quiescence", si, idx, pin)
			}
			if f.valid {
				if s.table[f.ID] != f {
					t.Errorf("shard %d: valid frame %d (%v) missing from table", si, idx, f.ID)
				}
				continue
			}
			if !onFree[f] && !inLook[f] {
				t.Errorf("shard %d: invalid frame %d lost (not free, not in lookaside)", si, idx)
			}
		}
		s.mu.Unlock()
	}
	if int64(totalLimit) != p.limitAtom.Load() {
		t.Errorf("shard limits sum %d != limitAtom %d", totalLimit, p.limitAtom.Load())
	}
}

// TestPoolTorture hammers Get/Unpin/Discard/Resize (plus fault-injected
// read errors) from many goroutines across a 4-shard pool and then checks
// the structural invariants: no lost frames, no double residency, size
// within bounds. Run under -race in CI.
func TestPoolTorture(t *testing.T) {
	var faults atomic.Bool
	st, err := store.Open(store.Options{
		Injector: readFault(func(id store.PageID) error {
			// Fail reads of every 7th page while the fault phase is on, to
			// drive the miss-path undo concurrently with everything else.
			if faults.Load() && id.Index()%7 == 0 {
				return errors.New("injected read fault")
			}
			return nil
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	p := newWithShards(st, 8, 32, 96, 4)

	// Materialize a working set larger than the pool.
	var ids []store.PageID
	for i := 0; i < 160; i++ {
		f, err := p.NewPage(store.MainFile, page.TypeTable)
		if err != nil {
			t.Fatal(err)
		}
		f.Data.Insert([]byte(fmt.Sprintf("page-%d", i)))
		ids = append(ids, f.ID)
		p.Unpin(f, true)
	}
	if err := p.FlushAll(); err != nil {
		t.Fatal(err)
	}
	faults.Store(true)

	const (
		workers = 8
		iters   = 600
	)
	var failedGets atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				id := ids[(w*31+i*7)%len(ids)]
				switch (w + i) % 10 {
				case 0: // resize within bounds
					p.Resize(16 + (w*13+i)%72)
				case 1: // discard (no-op when pinned elsewhere)
					p.Discard(id)
				case 2: // temp page churn through the lookaside path
					f, err := p.NewPage(store.TempFile, page.TypeTemp)
					if err == nil {
						tid := f.ID
						p.Unpin(f, true)
						p.Discard(tid)
					}
				case 3:
					_ = p.FlushPage(id)
				default: // reads; some hit the injected fault and must undo
					f, err := p.Get(id)
					if err != nil {
						failedGets.Add(1)
						continue
					}
					f.RLock()
					_ = f.Data.Cell(0)
					f.RUnlock()
					p.Unpin(f, false)
				}
				if sz := p.SizePages(); sz < 8 || sz > 96 {
					t.Errorf("SizePages %d escaped bounds mid-run", sz)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	faults.Store(false)
	if failedGets.Load() == 0 {
		t.Fatal("no Get met the injected read fault: the miss-path undo went untested")
	}
	checkInvariants(t, p)

	// The pool must still function end to end: every non-faulted page
	// reads back with its payload intact.
	if got := p.Resize(48); got != 48 {
		t.Fatalf("post-torture resize got %d", got)
	}
	for i, id := range ids {
		f, err := p.Get(id)
		if err != nil {
			t.Fatalf("post-torture get %v: %v", id, err)
		}
		f.RLock()
		if string(f.Data.Cell(0)) != fmt.Sprintf("page-%d", i) {
			t.Fatalf("page %v corrupted: %q", id, f.Data.Cell(0))
		}
		f.RUnlock()
		p.Unpin(f, false)
	}
	checkInvariants(t, p)
}

// TestGetIOErrorUndo covers the miss-path undo window: a read fault must
// return the grabbed frame to the free list — even when a concurrent
// Resize reshuffles frame indexes between the lock being dropped for the
// I/O and re-taken for the undo — and must never strand a pin or a page
// table entry.
func TestGetIOErrorUndo(t *testing.T) {
	var failReads atomic.Bool
	var resizing sync.WaitGroup
	stop := make(chan struct{})
	st, err := store.Open(store.Options{
		Injector: readFault(func(store.PageID) error {
			if failReads.Load() {
				return errors.New("injected read fault")
			}
			return nil
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	p := newWithShards(st, 4, 16, 64, 4)

	var ids []store.PageID
	for i := 0; i < 32; i++ {
		f, err := p.NewPage(store.MainFile, page.TypeTable)
		if err != nil {
			t.Fatal(err)
		}
		f.Data.Insert([]byte("payload"))
		ids = append(ids, f.ID)
		p.Unpin(f, true)
	}
	if err := p.FlushAll(); err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		p.Discard(id) // contents are safely flushed; every Get below misses
	}

	// Keep Resize churning concurrently with the failing Gets, exercising
	// the undo against shifted frame indexes.
	resizing.Add(1)
	go func() {
		defer resizing.Done()
		n := 0
		for {
			select {
			case <-stop:
				return
			default:
			}
			n++
			p.Resize(4 + n%40)
		}
	}()

	failReads.Store(true)
	for i := 0; i < 200; i++ {
		if _, err := p.Get(ids[i%len(ids)]); err == nil {
			t.Fatal("expected injected read fault")
		}
	}
	failReads.Store(false)
	close(stop)
	resizing.Wait()

	checkInvariants(t, p)
	for _, id := range ids {
		f, err := p.Get(id)
		if err != nil {
			t.Fatalf("get after faults cleared: %v", err)
		}
		if string(f.Data.Cell(0)) != "payload" {
			t.Fatalf("page %v content %q", id, f.Data.Cell(0))
		}
		p.Unpin(f, false)
	}
	checkInvariants(t, p)
}

// TestGetConcurrentWaiterOnFailedLoad pins down the waiter protocol: a
// second Get that arrives while a load is in flight waits on the frame's
// io mutex; when the load fails it must release its pin and retry rather
// than return a frame full of garbage.
func TestGetConcurrentWaiterOnFailedLoad(t *testing.T) {
	var (
		failing atomic.Bool
		target  atomic.Uint64
	)
	entered := make(chan struct{}, 1)
	gate := make(chan struct{})
	st, err := store.Open(store.Options{
		Injector: readFault(func(id store.PageID) error {
			if failing.Load() && id == store.PageID(target.Load()) {
				entered <- struct{}{} // loader is mid-read, frame published
				<-gate                // hold the load open so the waiter queues up
				return errors.New("injected read fault")
			}
			return nil
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	p := newWithShards(st, 2, 8, 8, 2)

	f, err := p.NewPage(store.MainFile, page.TypeTable)
	if err != nil {
		t.Fatal(err)
	}
	f.Data.Insert([]byte("real data"))
	id := f.ID
	p.Unpin(f, true)
	if err := p.FlushAll(); err != nil {
		t.Fatal(err)
	}
	p.Discard(id) // contents are safely flushed; the Gets below miss

	target.Store(uint64(id))
	failing.Store(true)
	loaderErr := make(chan error, 1)
	go func() {
		_, err := p.Get(id) // first loader: blocks in the fault, then fails
		loaderErr <- err
	}()
	<-entered // the in-flight frame is now in the page table
	waiterDone := make(chan error, 1)
	go func() {
		// Second reader: hits the published frame, queues on its io mutex,
		// observes the failed load, releases its pin, retries, and must end
		// with the real page contents — never the loader's garbage frame.
		f, err := p.Get(id)
		if err != nil {
			waiterDone <- err
			return
		}
		// Unpin before reporting: the invariant check below runs as soon as
		// the report arrives, and a deferred Unpin raced it.
		got := string(f.Data.Cell(0))
		p.Unpin(f, false)
		if got != "real data" {
			waiterDone <- fmt.Errorf("waiter saw garbage: %q", got)
			return
		}
		waiterDone <- nil
	}()
	failing.Store(false) // the waiter's retry load succeeds
	close(gate)
	if err := <-loaderErr; err == nil {
		t.Fatal("loader should have failed")
	}
	if err := <-waiterDone; err != nil {
		t.Fatal(err)
	}
	checkInvariants(t, p)
}

// TestHitterAfterUndoCompletes covers the narrow window the io-mutex
// handshake cannot: a hitter pins the frame while the load is in flight but
// only inspects it after the loader's failed-read undo has fully completed
// (defunct set, loading already back to false). awaitLoaded must still
// observe the failure, release the pin, and signal a retry — never serve
// the never-filled frame as a hit or strand it off the free list.
func TestHitterAfterUndoCompletes(t *testing.T) {
	var (
		failing atomic.Bool
		target  atomic.Uint64
	)
	entered := make(chan struct{}, 1)
	gate := make(chan struct{})
	st, err := store.Open(store.Options{
		Injector: readFault(func(id store.PageID) error {
			if failing.Load() && id == store.PageID(target.Load()) {
				entered <- struct{}{} // loader is mid-read, frame published
				<-gate
				return errors.New("injected read fault")
			}
			return nil
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	p := newWithShards(st, 2, 8, 8, 2)

	f, err := p.NewPage(store.MainFile, page.TypeTable)
	if err != nil {
		t.Fatal(err)
	}
	f.Data.Insert([]byte("real data"))
	id := f.ID
	p.Unpin(f, true)
	if err := p.FlushAll(); err != nil {
		t.Fatal(err)
	}
	p.Discard(id)

	target.Store(uint64(id))
	failing.Store(true)
	loaderErr := make(chan error, 1)
	go func() {
		_, err := p.Get(id)
		loaderErr <- err
	}()
	<-entered // the in-flight frame is now in the page table

	// Replicate Get's hit path up to the point where the pin is taken and
	// the shard read-lock dropped, then park — exactly the raced window.
	s := p.shardOf(id)
	s.rlock()
	hf, ok := s.table[id]
	if !ok {
		t.Fatal("in-flight frame not published in the page table")
	}
	hf.pin.Add(1)
	s.mu.RUnlock()

	// Let the load fail and the undo run to completion before the hitter
	// looks at the frame: loaderErr only fires after releaseDefunct.
	close(gate)
	if err := <-loaderErr; err == nil {
		t.Fatal("loader should have failed")
	}

	got, err := p.awaitLoaded(s, hf)
	if err != errRetry {
		t.Fatalf("awaitLoaded after completed undo: frame=%v err=%v, want errRetry", got, err)
	}
	failing.Store(false)
	checkInvariants(t, p) // the frame must be back on the free list, not leaked

	f2, err := p.Get(id)
	if err != nil {
		t.Fatalf("retry load: %v", err)
	}
	if string(f2.Data.Cell(0)) != "real data" {
		t.Fatalf("retry saw garbage: %q", f2.Data.Cell(0))
	}
	p.Unpin(f2, false)
	checkInvariants(t, p)
}

// TestFlusherUnpinOfFailedLoad covers the flush paths holding the last pin
// on a defunct frame: FlushPage pins a table-resident frame whose load is
// still in flight; the load then fails, so the loader's releaseDefunct
// backs off (the flusher's pin is still up) and the flusher's Unpin drops
// the final pin. Unpin must route the defunct frame back to the free list
// rather than leak it.
func TestFlusherUnpinOfFailedLoad(t *testing.T) {
	var (
		failing atomic.Bool
		target  atomic.Uint64
	)
	entered := make(chan struct{}, 1)
	gate := make(chan struct{})
	st, err := store.Open(store.Options{
		Injector: readFault(func(id store.PageID) error {
			if failing.Load() && id == store.PageID(target.Load()) {
				entered <- struct{}{}
				<-gate
				return errors.New("injected read fault")
			}
			return nil
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	p := newWithShards(st, 2, 8, 8, 2)

	f, err := p.NewPage(store.MainFile, page.TypeTable)
	if err != nil {
		t.Fatal(err)
	}
	f.Data.Insert([]byte("real data"))
	id := f.ID
	p.Unpin(f, true)
	if err := p.FlushAll(); err != nil {
		t.Fatal(err)
	}
	p.Discard(id)

	target.Store(uint64(id))
	failing.Store(true)
	loaderErr := make(chan error, 1)
	go func() {
		_, err := p.Get(id)
		loaderErr <- err
	}()
	<-entered

	s := p.shardOf(id)
	s.rlock()
	lf, ok := s.table[id]
	if !ok {
		t.Fatal("in-flight frame not published in the page table")
	}
	s.mu.RUnlock()

	// Hold the content latch so the flusher, once pinned, parks inside
	// flushFrame until after the undo has run — forcing its Unpin to be the
	// one that drops the last pin on the defunct frame.
	lf.Lock()
	flusherDone := make(chan error, 1)
	go func() {
		flusherDone <- p.FlushPage(id)
	}()
	for lf.pin.Load() < 2 { // wait until the flusher holds its pin
		runtime.Gosched()
	}

	close(gate) // the read fails; the undo marks the frame defunct
	if err := <-loaderErr; err == nil {
		t.Fatal("loader should have failed")
	}
	lf.Unlock() // release the flusher: no write (frame is clean), then Unpin
	if err := <-flusherDone; err != nil {
		t.Fatalf("FlushPage: %v", err)
	}
	failing.Store(false)
	checkInvariants(t, p) // the frame must be back on the free list, not leaked

	f2, err := p.Get(id)
	if err != nil {
		t.Fatalf("reload after failed load: %v", err)
	}
	if string(f2.Data.Cell(0)) != "real data" {
		t.Fatalf("reload saw garbage: %q", f2.Data.Cell(0))
	}
	p.Unpin(f2, false)
	checkInvariants(t, p)
}

// TestApportion checks the largest-remainder split used by Resize.
func TestApportion(t *testing.T) {
	cases := []struct {
		total, n int
		want     []int
	}{
		{8, 4, []int{2, 2, 2, 2}},
		{10, 4, []int{3, 3, 2, 2}},
		{3, 4, []int{1, 1, 1, 0}},
		{1, 1, []int{1}},
		{0, 2, []int{0, 0}},
	}
	for _, c := range cases {
		got := apportion(c.total, c.n)
		sum := 0
		for i, g := range got {
			sum += g
			if g != c.want[i] {
				t.Fatalf("apportion(%d,%d) = %v, want %v", c.total, c.n, got, c.want)
			}
		}
		if sum != c.total {
			t.Fatalf("apportion(%d,%d) sums to %d", c.total, c.n, sum)
		}
	}
}

// TestBorrowAcrossShards verifies that a shard whose stripe is saturated
// with pins can still allocate by borrowing capacity from siblings, and
// that ErrPoolExhausted remains a whole-pool verdict.
func TestBorrowAcrossShards(t *testing.T) {
	p, _ := testPoolShards(t, 2, 8, 8, 4)
	var pinned []*Frame
	// Pin all 8 frames; page ids hash to arbitrary shards, so some shards
	// necessarily exceed their 2-frame quota via borrowing.
	for i := 0; i < 8; i++ {
		f, err := p.NewPage(store.MainFile, page.TypeTable)
		if err != nil {
			t.Fatalf("page %d: %v (borrowing should have found room)", i, err)
		}
		pinned = append(pinned, f)
	}
	if _, err := p.NewPage(store.MainFile, page.TypeTable); err != ErrPoolExhausted {
		t.Fatalf("want ErrPoolExhausted with all frames pinned, got %v", err)
	}
	if got := p.SizePages(); got != 8 {
		t.Fatalf("borrowing changed the pool size: %d", got)
	}
	for _, f := range pinned {
		p.Unpin(f, false)
	}
	f, err := p.NewPage(store.MainFile, page.TypeTable)
	if err != nil {
		t.Fatalf("after unpin: %v", err)
	}
	p.Unpin(f, false)
	checkInvariants(t, p)
}
