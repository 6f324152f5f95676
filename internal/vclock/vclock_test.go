package vclock

import (
	"sync"
	"testing"
)

func TestNowStartsAtZero(t *testing.T) {
	c := New()
	if got := c.Now(); got != 0 {
		t.Fatalf("Now() = %d, want 0", got)
	}
}

func TestAdvance(t *testing.T) {
	c := New()
	if got := c.Advance(5); got != 5 {
		t.Fatalf("Advance(5) = %d, want 5", got)
	}
	c.Advance(10)
	if got := c.Now(); got != 15 {
		t.Fatalf("Now() = %d, want 15", got)
	}
}

func TestAdvanceNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on negative advance")
		}
	}()
	New().Advance(-1)
}

func TestConcurrentAdvance(t *testing.T) {
	c := New()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Advance(1)
			}
		}()
	}
	wg.Wait()
	if got := c.Now(); got != 8000 {
		t.Fatalf("Now() = %d, want 8000", got)
	}
}
