package telemetry

import (
	"fmt"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("a.hits")
	c.Inc()
	c.Add(4)
	if got := c.Load(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if c2 := r.Counter("a.hits"); c2 != c {
		t.Fatalf("re-registering a counter must return the same instance")
	}
	r.GaugeFunc("a.fn", func() int64 { return 42 })
	if v, ok := r.Value("a.fn"); !ok || v != 42 {
		t.Fatalf("Value(a.fn) = %d,%v want 42,true", v, ok)
	}
	if _, ok := r.Value("nope"); ok {
		t.Fatalf("Value on unknown name must return false")
	}
}

func TestKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x")
	defer func() {
		if recover() == nil {
			t.Fatalf("registering x as a gauge after a counter should panic")
		}
	}()
	r.GaugeFunc("x", func() int64 { return 0 })
}

func TestSnapshotSortedAndDelta(t *testing.T) {
	r := NewRegistry()
	r.Counter("b.two").Add(2)
	r.Counter("a.one").Inc()
	before := r.Snapshot()
	if len(before) != 2 || before[0].Name != "a.one" || before[1].Name != "b.two" {
		t.Fatalf("snapshot not sorted: %+v", before)
	}
	r.Counter("b.two").Add(3)
	d := Delta(before, r.Snapshot())
	if len(d) != 1 || d[0].Name != "b.two" || d[0].Value != 3 {
		t.Fatalf("delta = %+v, want b.two +3", d)
	}
}

// TestConcurrentUse hammers registration and updates from many goroutines;
// run under -race this is the allocation-free hot-path safety check.
func TestConcurrentUse(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := r.Counter(fmt.Sprintf("w.%d", i%4))
			h := r.Histogram("w.hist")
			for j := 0; j < 1000; j++ {
				c.Inc()
				h.Observe(int64(j))
				r.Value("w.hist")
			}
		}(i)
	}
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				r.Snapshot()
			}
		}()
	}
	wg.Wait()
	var total uint64
	for i := 0; i < 4; i++ {
		total += r.Counter(fmt.Sprintf("w.%d", i)).Load()
	}
	if total != 8000 {
		t.Fatalf("counter total = %d, want 8000", total)
	}
	if got := r.Histogram("w.hist").Count(); got != 8000 {
		t.Fatalf("histogram count = %d, want 8000", got)
	}
}
