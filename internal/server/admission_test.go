package server

import (
	"context"
	"errors"
	"testing"
	"time"
)

func TestGateAdmitsUpToWidth(t *testing.T) {
	g := newGate(3)
	var tks []ticket
	for i := 0; i < 3; i++ {
		tk, err := g.admit(context.Background())
		if err != nil {
			t.Fatalf("admit %d: %v", i, err)
		}
		tks = append(tks, tk)
	}
	admitted, _, eff, _ := g.snapshot()
	if admitted != 3 || eff != 3 {
		t.Fatalf("admitted=%d eff=%d", admitted, eff)
	}
	for _, tk := range tks {
		g.release(tk, 100)
	}
	// Slots free again.
	if _, err := g.admit(context.Background()); err != nil {
		t.Fatal(err)
	}
}

func TestGateShedsWhenQueueFull(t *testing.T) {
	g := newGate(2)
	// Occupy both slots and never release.
	for i := 0; i < 2; i++ {
		if _, err := g.admit(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	// Fill the bounded queue with waiters that will time out on their own;
	// the next admit must shed instantly.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	results := make(chan error, g.width*queueFactor)
	for i := 0; i < g.width*queueFactor; i++ {
		go func() {
			_, err := g.admit(ctx)
			results <- err
		}()
	}
	// Wait for all waiters to be enqueued.
	deadline := time.Now().Add(5 * time.Second)
	for {
		g.mu.Lock()
		n := len(g.waiters)
		g.mu.Unlock()
		if n == g.width*queueFactor {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d waiters queued", n)
		}
		time.Sleep(time.Millisecond)
	}
	start := time.Now()
	_, err := g.admit(context.Background())
	if !errors.Is(err, ErrShed) {
		t.Fatalf("err = %v, want ErrShed", err)
	}
	if time.Since(start) > time.Second {
		t.Fatal("full-queue shed was not immediate")
	}
	cancel()
	for i := 0; i < g.width*queueFactor; i++ {
		if err := <-results; err == nil {
			t.Fatal("queued statement admitted with no slot free")
		}
	}
}

func TestGateQueueWaitShedsOnDerivedDeadline(t *testing.T) {
	g := newGate(2)
	for i := 0; i < 2; i++ {
		if _, err := g.admit(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	start := time.Now()
	_, err := g.admit(context.Background())
	if !errors.Is(err, ErrShed) {
		t.Fatalf("err = %v, want ErrShed", err)
	}
	// Uncalibrated baseline: the derived wait is 5ms × queueFactor = 80ms,
	// clamped into [10ms, 2s]. Allow slack either way.
	el := time.Since(start)
	if el < 10*time.Millisecond || el > 5*time.Second {
		t.Fatalf("queue wait before shed = %v", el)
	}
}

func TestGateHandsSlotToWaiter(t *testing.T) {
	g := newGate(2) // the minimum width
	var tks []ticket
	for i := 0; i < g.width; i++ {
		tk, err := g.admit(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		tks = append(tks, tk)
	}
	tk := tks[0]
	got := make(chan error, 1)
	go func() {
		tk2, err := g.admit(context.Background())
		if err == nil {
			defer g.release(tk2, 50)
		}
		got <- err
	}()
	// Wait until queued, then release: the slot must transfer.
	for {
		g.mu.Lock()
		n := len(g.waiters)
		g.mu.Unlock()
		if n == 1 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	g.release(tk, 50)
	if err := <-got; err != nil {
		t.Fatalf("waiter not granted: %v", err)
	}
}

func TestGateBaselineCalibratesFromSoloStatements(t *testing.T) {
	g := newGate(4)
	for i := 0; i < 32; i++ {
		tk, err := g.admit(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		g.release(tk, 1000) // 1ms solo statements
	}
	_, _, _, base := g.snapshot()
	if base < 500 || base > 1500 {
		t.Fatalf("baseline = %dµs, want ≈1000", base)
	}

	// Concurrent (non-solo) releases must not move the baseline.
	tk1, _ := g.admit(context.Background())
	tk2, _ := g.admit(context.Background())
	g.release(tk2, 1_000_000)
	g.release(tk1, 1_000_000)
	_, _, _, after := g.snapshot()
	if after > 10*base {
		t.Fatalf("baseline moved from concurrent latencies: %d → %d", base, after)
	}
}

func TestGateDegradationShrinksEffectiveWidth(t *testing.T) {
	g := newGate(4)
	// Calibrate a 1ms baseline.
	for i := 0; i < 16; i++ {
		tk, _ := g.admit(context.Background())
		g.release(tk, 1000)
	}
	// Hold one slot so the remaining traffic is concurrent: solo
	// statements recalibrate the baseline (a genuine workload change),
	// while concurrency-induced slowdown must not. Feed enough degraded
	// latencies to fill the window and cross a recheck boundary:
	// p99 ≫ 3× baseline.
	hold, err := g.admit(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer g.release(hold, -1)
	for i := 0; i < latWindow+recheckEvery; i++ {
		tk, err := g.admit(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		g.release(tk, 50_000)
	}
	_, shrinks, eff, _ := g.snapshot()
	if eff != g.width/2 || shrinks == 0 {
		t.Fatalf("eff=%d shrinks=%d, want width/2=%d and ≥1", eff, shrinks, g.width/2)
	}

	// Recovery: healthy latencies restore the full width. The window must
	// wash out the degraded tail, and solo releases drag the baseline up
	// only mildly (EWMA), so feed latencies at the calibrated baseline.
	for i := 0; i < latWindow+recheckEvery; i++ {
		tk, err := g.admit(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		g.release(tk, 1000)
	}
	_, _, eff, _ = g.snapshot()
	if eff != g.width {
		t.Fatalf("eff=%d after recovery, want %d", eff, g.width)
	}
}

func TestGateContextCancelWhileQueued(t *testing.T) {
	g := newGate(2) // the minimum width
	for i := 0; i < g.width; i++ {
		tk, err := g.admit(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		defer g.release(tk, 10)
	}
	ctx, cancel := context.WithCancel(context.Background())
	got := make(chan error, 1)
	go func() {
		_, err := g.admit(ctx)
		got <- err
	}()
	for {
		g.mu.Lock()
		n := len(g.waiters)
		g.mu.Unlock()
		if n == 1 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	select {
	case err := <-got:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled waiter stuck in queue")
	}
	g.mu.Lock()
	n := len(g.waiters)
	g.mu.Unlock()
	if n != 0 {
		t.Fatalf("%d waiters left after cancel", n)
	}
}

// TestGateRecheckAllocatesNothing: admitting and releasing statements
// allocates nothing, the p99 recheck every recheckEvery releases included.
// The recheck's p99 is the window's: 99 of every 100 latencies are fast.
func TestGateRecheckAllocatesNothing(t *testing.T) {
	g := newGate(4)
	var i int64
	cycle := func() {
		tk, err := g.admit(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		lat := int64(1000)
		if i++; i%100 == 0 {
			lat = 9000
		}
		g.release(tk, lat)
	}
	for range latWindow {
		cycle()
	}
	if n := testing.AllocsPerRun(4*recheckEvery, cycle); n != 0 {
		t.Errorf("admit and release allocate %.2f objects per statement, want 0", n)
	}
	g.mu.Lock()
	p99 := g.windowP99Locked()
	g.mu.Unlock()
	if p99 != 9000 {
		t.Errorf("window p99 = %d, want 9000", p99)
	}
}
