package mem

import (
	"anywheredb/internal/page"
	"errors"
	"slices"
	"testing"
)

func gov(maxPool, curPool, mpl int) *Governor {
	return NewGovernor(func() int { return maxPool }, func() int { return curPool }, mpl)
}

func TestHardLimitEq4(t *testing.T) {
	g := gov(1000, 800, 4)
	t1 := g.Begin(new(Task))
	defer t1.Finish()
	// One active request: ¾·1000/1 = 750.
	if got := t1.HardLimitPages(); got != 750 {
		t.Fatalf("hard limit %d, want 750", got)
	}
	t2 := g.Begin(new(Task))
	defer t2.Finish()
	// Two active: 750/2 = 375.
	if got := t1.HardLimitPages(); got != 375 {
		t.Fatalf("hard limit with 2 active %d, want 375", got)
	}
}

func TestSoftLimitEq5(t *testing.T) {
	g := gov(1000, 800, 4)
	tk := g.Begin(new(Task))
	defer tk.Finish()
	if got := tk.SoftLimitPages(); got != 200 {
		t.Fatalf("soft limit %d, want 800/4=200", got)
	}
	g.SetMPL(8)
	if got := tk.SoftLimitPages(); got != 100 {
		t.Fatalf("soft limit after mpl=8: %d, want 100", got)
	}
}

func TestAllocWithinLimits(t *testing.T) {
	g := gov(1000, 800, 4)
	tk := g.Begin(new(Task))
	defer tk.Finish()
	if err := tk.Alloc(100); err != nil {
		t.Fatal(err)
	}
	if tk.UsedPages() != 100 {
		t.Fatalf("used %d", tk.UsedPages())
	}
	tk.Free(40)
	if tk.UsedPages() != 60 {
		t.Fatalf("used after free %d", tk.UsedPages())
	}
	if tk.PeakPages() != 100 {
		t.Fatalf("peak %d", tk.PeakPages())
	}
	if err := tk.Alloc(-1); err == nil {
		t.Fatal("negative alloc should error")
	}
}

func TestHardLimitTerminatesStatement(t *testing.T) {
	g := gov(100, 100, 1)
	tk := g.Begin(new(Task))
	defer tk.Finish()
	// Hard limit = 75. No consumers to release.
	if err := tk.Alloc(80); !errors.Is(err, ErrHardLimit) {
		t.Fatalf("want ErrHardLimit, got %v", err)
	}
}

// fakeConsumer releases up to avail pages when asked.
type fakeConsumer struct {
	task     *Task
	avail    int
	asked    int
	released int
	err      error
}

func (f *fakeConsumer) ReleaseMemory(want int) (int, error) {
	f.asked++
	n := want
	if n > f.avail {
		n = f.avail
	}
	f.avail -= n
	f.released += n
	f.task.Free(n)
	return n, f.err
}

func TestSoftLimitTriggersRelease(t *testing.T) {
	g := gov(10000, 400, 4) // soft = 100, hard = 7500
	tk := g.Begin(new(Task))
	defer tk.Finish()
	c := &fakeConsumer{task: tk, avail: 500}
	tk.Register(c, 1)

	if err := tk.Alloc(90); err != nil {
		t.Fatal(err)
	}
	if c.asked != 0 {
		t.Fatal("release should not fire under the soft limit")
	}
	if err := tk.Alloc(60); err != nil { // 150 > 100
		t.Fatal(err)
	}
	if c.asked != 1 {
		t.Fatalf("release asked %d times, want 1", c.asked)
	}
	if c.released != 50 {
		t.Fatalf("released %d pages, want 50 (down to the soft limit)", c.released)
	}
	if tk.UsedPages() != 100 {
		t.Fatalf("used %d after release, want 100", tk.UsedPages())
	}
}

func TestReleaseOrderTopDown(t *testing.T) {
	g := gov(10000, 40, 4) // soft = 10
	tk := g.Begin(new(Task))
	defer tk.Finish()

	var order []string
	mk := func(name string, avail int) *namedConsumer {
		return &namedConsumer{name: name, avail: avail, order: &order, task: tk}
	}
	leaf := mk("leaf", 100)
	root := mk("root", 100)
	// Register out of order; depth must govern.
	tk.Register(leaf, 3)
	tk.Register(root, 0)

	tk.Alloc(15) // exceed soft by 5: root (highest consumer) is asked first
	if len(order) == 0 || order[0] != "root" {
		t.Fatalf("release order %v, want root first", order)
	}

	// Exhaust root's memory; the next overage moves down the tree.
	root.avail = 0
	tk.Alloc(20)
	found := false
	for _, n := range order {
		if n == "leaf" {
			found = true
		}
	}
	if !found {
		t.Fatalf("release never reached the leaf: %v", order)
	}
}

type namedConsumer struct {
	name  string
	avail int
	order *[]string
	task  *Task
}

func (n *namedConsumer) ReleaseMemory(want int) (int, error) {
	*n.order = append(*n.order, n.name)
	got := want
	if got > n.avail {
		got = n.avail
	}
	n.avail -= got
	n.task.Free(got)
	return got, nil
}

func TestUnregister(t *testing.T) {
	g := gov(10000, 40, 4)
	tk := g.Begin(new(Task))
	defer tk.Finish()
	c := &fakeConsumer{task: tk, avail: 100}
	tk.Register(c, 0)
	tk.Unregister(c)
	tk.Alloc(50) // over soft, but no consumers remain
	if c.asked != 0 {
		t.Fatal("unregistered consumer was asked to release")
	}
}

func TestFinishIdempotentAndActiveCount(t *testing.T) {
	g := gov(100, 100, 1)
	a := g.Begin(new(Task))
	b := g.Begin(new(Task))
	if g.ActiveRequests() != 2 {
		t.Fatalf("active %d", g.ActiveRequests())
	}
	a.Finish()
	a.Finish() // second call is a no-op
	if g.ActiveRequests() != 1 {
		t.Fatalf("active after double finish %d, want 1", g.ActiveRequests())
	}
	b.Finish()
	if g.ActiveRequests() != 0 {
		t.Fatalf("active %d", g.ActiveRequests())
	}
}

func TestQuotasTrackPoolResize(t *testing.T) {
	cur := 800
	g := NewGovernor(func() int { return 1000 }, func() int { return cur }, 4)
	tk := g.Begin(new(Task))
	defer tk.Finish()
	if tk.SoftLimitPages() != 200 {
		t.Fatal("initial soft limit")
	}
	cur = 400 // governor shrank the pool
	if tk.SoftLimitPages() != 100 {
		t.Fatal("soft limit must track the live pool size")
	}
}

func TestMPLFloor(t *testing.T) {
	g := gov(100, 100, 0)
	if g.MPL() != 1 {
		t.Fatal("mpl must be at least 1")
	}
	g.SetMPL(-5)
	if g.MPL() != 1 {
		t.Fatal("SetMPL must floor at 1")
	}
}

// With as many requests active as the multiprogramming level allows, Eq. 4
// falls below Eq. 5: a statement must still be asked to give memory back
// before it is refused any.
func TestReleaseIsRequestedBeforeDenial(t *testing.T) {
	g := gov(100, 100, 2) // Eq. 5: 50 pages
	tk := g.Begin(new(Task))
	defer tk.Finish()
	other := g.Begin(new(Task)) // Eq. 4: 75/2 = 37 pages
	defer other.Finish()
	if soft, hard := tk.SoftLimitPages(), tk.HardLimitPages(); soft != 50 || hard != 37 {
		t.Fatalf("soft %d hard %d, want 50 and 37", soft, hard)
	}
	c := &fakeConsumer{task: tk, avail: 30}
	tk.Register(c, 0)
	if err := tk.Alloc(30); err != nil {
		t.Fatal(err)
	}
	if err := tk.Alloc(10); err != nil {
		t.Fatalf("40 pages with 30 releasable: %v", err)
	}
	if c.asked != 1 || tk.UsedPages() != 37 {
		t.Fatalf("asked %d times, %d pages used", c.asked, tk.UsedPages())
	}
}

// A consumer that cannot give its memory back has lost it: the charge that
// asked fails, without being accounted.
func TestFailedReleaseFailsTheCharge(t *testing.T) {
	g := gov(10000, 40, 4) // soft = 10
	tk := g.Begin(new(Task))
	defer tk.Finish()
	boom := errors.New("temp file full")
	tk.Register(&fakeConsumer{task: tk, err: boom}, 0)
	if err := tk.Alloc(11); !errors.Is(err, boom) {
		t.Fatalf("want the release error, got %v", err)
	}
	if tk.UsedPages() != 0 {
		t.Fatalf("%d pages charged by a failed Alloc", tk.UsedPages())
	}
}

// selfFlusher is an operator whose ReleaseMemory gives back every byte it
// has charged — the Sort and HashGroupBy shape — and may fail doing it.
type selfFlusher struct {
	acct Account
	err  error
}

func (s *selfFlusher) ReleaseMemory(int) (int, error) {
	before := s.acct.Pages()
	s.acct.FreeBytes()
	return before - s.acct.Pages(), s.err
}

// TestChargeThatFlushesItself: the AddBytes that crosses the soft limit asks
// its own operator to flush, which frees the bytes the charge was for. What
// the task and the account hold afterwards agrees — nothing is freed twice,
// which at a task holding nothing else shows as pages charged after Close —
// whether the flush worked or failed.
func TestChargeThatFlushesItself(t *testing.T) {
	for _, flushErr := range []error{nil, errors.New("cancelled mid-flush")} {
		g := gov(10000, 40, 4) // soft = 10
		tk := g.Begin(new(Task))
		s := &selfFlusher{err: flushErr}
		s.acct.Open(tk, s, 0)
		if err := s.acct.AddBytes(9 * page.Size); err != nil {
			t.Fatal(err)
		}
		err := s.acct.AddBytes(2 * page.Size) // 11 pages: over
		if !errors.Is(err, flushErr) {
			t.Fatalf("flush error %v: AddBytes returned %v", flushErr, err)
		}
		if flushErr == nil {
			// Flushed: the rows the charge was for went with the rest.
			if s.acct.Pages() != 0 || tk.UsedPages() != 0 {
				t.Errorf("after a flush: account %d pages, task %d, want none", s.acct.Pages(), tk.UsedPages())
			}
		}
		s.acct.Close()
		if tk.UsedPages() != 0 {
			t.Errorf("flush error %v: %d pages charged after Close", flushErr, tk.UsedPages())
		}
		tk.Finish()
	}
}

// TestRegisterKeepsDepthOrderWithoutAllocating: Register files a consumer
// after every consumer of the same or a lower depth, so equal depths keep
// their registration order, and on a task whose consumer list has grown
// once Register and Unregister allocate nothing.
func TestRegisterKeepsDepthOrderWithoutAllocating(t *testing.T) {
	g := gov(10000, 40, 4)
	tk := g.Begin(new(Task))
	defer tk.Finish()
	cs := make([]*fakeConsumer, 6)
	for i := range cs {
		cs[i] = &fakeConsumer{task: tk}
	}
	depths := []int{2, 0, 2, 1, 0, 2}
	for i, c := range cs {
		tk.Register(c, depths[i])
	}
	want := []Consumer{cs[1], cs[4], cs[3], cs[0], cs[2], cs[5]}
	for i, tc := range tk.consumers {
		if tc.c != want[i] {
			t.Fatalf("consumer %d is registration %d, want the order of depth, then of registration", i, slices.Index(cs, tc.c.(*fakeConsumer)))
		}
	}
	for _, c := range cs {
		tk.Unregister(c)
	}
	objects := testing.AllocsPerRun(100, func() {
		for i, c := range cs {
			tk.Register(c, depths[i])
		}
		for _, c := range cs {
			tk.Unregister(c)
		}
	})
	if objects != 0 {
		t.Errorf("Register and Unregister allocate %.0f objects on a warmed task, want 0", objects)
	}
}
