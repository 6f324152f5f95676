package telemetry

import (
	"fmt"
	"sync"
	"testing"

	"anywheredb/internal/hist"
)

func TestValueQuantileSuffix(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("exec.statement_us")
	for i := int64(1); i <= 100; i++ {
		h.Observe(i * 10)
	}
	for _, name := range []string{
		"exec.statement_us.p50", "exec.statement_us.p95",
		"exec.statement_us.p99", "exec.statement_us.mean",
		"exec.statement_us.count", "exec.statement_us.sum",
	} {
		if _, ok := r.Value(name); !ok {
			t.Errorf("Value(%q) not resolved", name)
		}
	}
	if v, ok := r.Value("exec.statement_us.count"); !ok || v != 100 {
		t.Errorf("count suffix = %d, %v; want 100, true", v, ok)
	}
	if v, ok := r.Value("exec.statement_us.sum"); !ok || v != 50500 {
		t.Errorf("sum suffix = %d, %v; want 50500, true", v, ok)
	}
	if v, ok := r.Value("exec.statement_us.mean"); !ok || v != 505 {
		t.Errorf("mean suffix = %d, %v; want 505, true", v, ok)
	}
	if _, ok := r.Value("exec.statement_us.p42"); ok {
		t.Error("unknown suffix p42 resolved")
	}
	if _, ok := r.Value("nosuch.p99"); ok {
		t.Error("suffix on unknown base resolved")
	}
	// A counter must not answer quantile suffixes.
	r.Counter("exec.statements")
	if _, ok := r.Value("exec.statements.p99"); ok {
		t.Error("quantile suffix on a counter resolved")
	}
}

// TestRegisterHistogram covers external-histogram publication and the
// snapshot quantile fields.
func TestRegisterHistogram(t *testing.T) {
	r := NewRegistry()
	var h hist.Histogram
	r.RegisterHistogram("waits.lock.acquire.us", &h)
	for i := int64(0); i < 1000; i++ {
		h.Observe(i)
	}
	if v, ok := r.Value("waits.lock.acquire.us.p50"); !ok || v <= 0 {
		t.Fatalf("registered histogram p50 = %d, %v", v, ok)
	}
	for _, s := range r.Snapshot() {
		if s.Name != "waits.lock.acquire.us" {
			continue
		}
		if s.Value != 1000 {
			t.Errorf("snapshot value = %d, want 1000 observations", s.Value)
		}
		if s.P50 <= 0 || s.P95 < s.P50 || s.P99 < s.P95 {
			t.Errorf("snapshot quantiles not monotone: p50=%d p95=%d p99=%d",
				s.P50, s.P95, s.P99)
		}
		return
	}
	t.Fatal("registered histogram missing from snapshot")
}

// TestConcurrentRegistrationAndSnapshot hammers registration of new
// metrics of every kind while other goroutines snapshot and resolve
// quantile suffixes — the registry must stay consistent under -race.
func TestConcurrentRegistrationAndSnapshot(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				r.Counter(fmt.Sprintf("c.%d.%d", g, i)).Inc()
				r.GaugeFunc(fmt.Sprintf("g.%d.%d", g, i), func() int64 { return int64(i) })
				h := r.Histogram(fmt.Sprintf("h.%d.%d", g, i))
				h.Observe(int64(i))
				var ext hist.Histogram
				ext.Observe(int64(i))
				r.RegisterHistogram(fmt.Sprintf("x.%d.%d", g, i), &ext)
				r.GaugeFunc(fmt.Sprintf("f.%d.%d", g, i), func() int64 { return 1 })
			}
		}(g)
	}
	var readers sync.WaitGroup
	for g := 0; g < 2; g++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				snap := r.Snapshot()
				for _, s := range snap {
					if s.Kind == KindHistogram {
						r.Value(s.Name + ".p99")
					}
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	readers.Wait()
	snap := r.Snapshot()
	if len(snap) != 4*200*5 {
		t.Fatalf("snapshot has %d metrics, want %d", len(snap), 4*200*5)
	}
}
