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

func TestAfterFiresAtDeadline(t *testing.T) {
	c := New()
	ch := c.After(100)
	select {
	case <-ch:
		t.Fatal("After fired before deadline")
	default:
	}
	c.Advance(99)
	select {
	case <-ch:
		t.Fatal("After fired one microsecond early")
	default:
	}
	c.Advance(1)
	select {
	case <-ch:
	default:
		t.Fatal("After did not fire at deadline")
	}
}

func TestAfterZeroFiresImmediately(t *testing.T) {
	c := New()
	c.Advance(10)
	select {
	case <-c.After(0):
	default:
		t.Fatal("After(0) should be closed immediately")
	}
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

func TestManyWaiters(t *testing.T) {
	c := New()
	chans := make([]<-chan struct{}, 10)
	for i := range chans {
		chans[i] = c.After(int64(i+1) * 10)
	}
	c.Advance(55)
	for i, ch := range chans {
		fired := false
		select {
		case <-ch:
			fired = true
		default:
		}
		want := (i+1)*10 <= 55
		if fired != want {
			t.Errorf("waiter %d fired=%v, want %v", i, fired, want)
		}
	}
}
