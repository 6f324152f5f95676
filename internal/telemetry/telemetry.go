// Package telemetry is the engine-wide metrics registry: allocation-free
// atomic counters, func-backed gauges, and fixed-bucket virtual-time
// histograms, each registered once under a stable dotted name (e.g.
// "buffer.misses", "exec.statement_us"). Every layer of the engine
// publishes here, and the registry is surfaced through SQL via the
// PROPERTY() builtin and the sys.properties virtual table, mirroring SQL
// Anywhere's property model: the self-management loops of the paper (cache
// governor, statistics feedback, application profiling) all consume
// measurements of the engine itself, so those measurements need one
// uniform, cheap substrate.
//
// Hot-path cost is a single atomic add; registration (startup only) takes
// a mutex. A gauge is a function, so components that already maintain
// private atomics (the buffer pool, the plan cache) expose them without
// double counting.
package telemetry

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Kind classifies a registered metric.
type Kind int

const (
	KindCounter Kind = iota // monotonically increasing
	KindGauge               // instantaneous level, may go down
	KindHistogram
)

func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	}
	return "unknown"
}

// Counter is a monotonically increasing atomic counter.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Load returns the current value.
func (c *Counter) Load() uint64 { return c.v.Load() }

// HistBuckets is the number of power-of-two buckets in a Histogram.
// Bucket i counts observations v with 2^i <= v+1 < 2^(i+1), so bucket 0
// holds zeros and bucket 31 holds everything >= 2^31-1 µs of virtual time.
const HistBuckets = 32

// Histogram is a fixed-bucket power-of-two histogram of non-negative
// observations (typically virtual-time microseconds). All methods are
// lock-free.
type Histogram struct {
	buckets [HistBuckets]atomic.Uint64
	count   atomic.Uint64
	sum     atomic.Uint64
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	b := 0
	for x := uint64(v) + 1; x > 1 && b < HistBuckets-1; x >>= 1 {
		b++
	}
	h.buckets[b].Add(1)
	h.count.Add(1)
	h.sum.Add(uint64(v))
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() uint64 { return h.sum.Load() }

// Buckets returns a snapshot of the bucket counts.
func (h *Histogram) Buckets() [HistBuckets]uint64 {
	var out [HistBuckets]uint64
	for i := range h.buckets {
		out[i] = h.buckets[i].Load()
	}
	return out
}

// bucketBounds returns the inclusive value range [lo, hi] bucket i holds:
// Observe places v in bucket i when 2^i <= v+1 < 2^(i+1).
func bucketBounds(i int) (lo, hi int64) {
	if i == 0 {
		return 0, 0
	}
	return (int64(1) << i) - 1, (int64(1) << (i + 1)) - 2
}

// Quantile estimates the q-quantile (0 <= q <= 1) of the observed values
// by linear interpolation inside the power-of-two bucket containing the
// target rank. The estimate's error is bounded by the bucket's width
// (under 2x relative), which is enough for p50/p95/p99 health signals; an
// empty histogram reports 0.
func (h *Histogram) Quantile(q float64) int64 {
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	b := h.Buckets()
	var total uint64
	for _, n := range b {
		total += n
	}
	if total == 0 {
		return 0
	}
	target := q * float64(total)
	if target < 1 {
		target = 1 // rank of the first observation
	}
	var cum float64
	for i, n := range b {
		if n == 0 {
			continue
		}
		next := cum + float64(n)
		if next >= target {
			lo, hi := bucketBounds(i)
			frac := (target - cum) / float64(n)
			return lo + int64(frac*float64(hi-lo)+0.5)
		}
		cum = next
	}
	_, hi := bucketBounds(HistBuckets - 1)
	return hi
}

// metric is one registry entry.
type metric struct {
	name string
	kind Kind
	c    *Counter
	fn   func() int64
	h    *Histogram
}

func (m *metric) value() int64 {
	switch {
	case m.c != nil:
		return int64(m.c.Load())
	case m.fn != nil:
		return m.fn()
	case m.h != nil:
		return int64(m.h.Count())
	}
	return 0
}

// Registry holds named metrics. One Registry serves one engine (DB)
// instance; registration is idempotent per name (re-registering a name
// returns the existing metric so restarts and tests are painless).
type Registry struct {
	mu      sync.RWMutex
	metrics map[string]*metric
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{metrics: make(map[string]*metric)}
}

// Counter registers (or fetches) the counter with the given dotted name.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.metrics[name]; ok {
		if m.c == nil {
			panic(fmt.Sprintf("telemetry: %q already registered as %s", name, m.kind))
		}
		return m.c
	}
	c := &Counter{}
	r.metrics[name] = &metric{name: name, kind: KindCounter, c: c}
	return c
}

// GaugeFunc registers a read-only gauge backed by f. Components that
// already keep their own atomics (buffer pool, plan cache) publish through
// a func so the registry never double-counts. Re-registering replaces the
// function (last writer wins), which lets a reopened component rebind.
func (r *Registry) GaugeFunc(name string, f func() int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.metrics[name]; ok && m.fn == nil {
		panic(fmt.Sprintf("telemetry: %q already registered as %s", name, m.kind))
	}
	r.metrics[name] = &metric{name: name, kind: KindGauge, fn: f}
}

// Histogram registers (or fetches) the histogram with the given name.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.metrics[name]; ok {
		if m.h == nil {
			panic(fmt.Sprintf("telemetry: %q already registered as %s", name, m.kind))
		}
		return m.h
	}
	h := &Histogram{}
	r.metrics[name] = &metric{name: name, kind: KindHistogram, h: h}
	return h
}

// RegisterHistogram publishes an externally-owned histogram under name.
// Components that embed their histograms (the flight recorder's wait
// events) publish through this so the registry never double-counts.
// Re-registering replaces the histogram (last writer wins), mirroring
// GaugeFunc's rebind semantics.
func (r *Registry) RegisterHistogram(name string, h *Histogram) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.metrics[name]; ok && m.h == nil {
		panic(fmt.Sprintf("telemetry: %q already registered as %s", name, m.kind))
	}
	r.metrics[name] = &metric{name: name, kind: KindHistogram, h: h}
}

// Value returns the current value of the named metric (a histogram reports
// its observation count). The bool is false if the name is unknown.
//
// Histogram statistics are addressable by suffix: for a registered
// histogram "exec.statement_us", the names "exec.statement_us.p50",
// ".p95", ".p99", ".mean", ".count" and ".sum" resolve to the estimated
// quantiles and moments — this is what PROPERTY('<hist>.p99') reads.
func (r *Registry) Value(name string) (int64, bool) {
	r.mu.RLock()
	m, ok := r.metrics[name]
	r.mu.RUnlock()
	if ok {
		return m.value(), true
	}
	i := strings.LastIndexByte(name, '.')
	if i <= 0 {
		return 0, false
	}
	base, suffix := name[:i], name[i+1:]
	r.mu.RLock()
	bm, ok := r.metrics[base]
	r.mu.RUnlock()
	if !ok || bm.h == nil {
		return 0, false
	}
	switch suffix {
	case "p50":
		return bm.h.Quantile(0.50), true
	case "p95":
		return bm.h.Quantile(0.95), true
	case "p99":
		return bm.h.Quantile(0.99), true
	case "mean":
		if c := bm.h.Count(); c > 0 {
			return int64(bm.h.Sum() / c), true
		}
		return 0, true
	case "count":
		return int64(bm.h.Count()), true
	case "sum":
		return int64(bm.h.Sum()), true
	}
	return 0, false
}

// Sample is one (name, kind, value) triple from a snapshot. Histogram
// samples additionally carry estimated latency quantiles (the value stays
// the observation count, so deltas remain meaningful).
type Sample struct {
	Name  string
	Kind  Kind
	Value int64
	// P50, P95, P99 are quantile estimates for histogram samples (zero
	// for counters and gauges).
	P50, P95, P99 int64
}

// Snapshot returns all metrics sorted by name. Values are read atomically
// per metric (the set as a whole is not a single atomic cut, which is fine
// for monitoring).
func (r *Registry) Snapshot() []Sample {
	r.mu.RLock()
	out := make([]Sample, 0, len(r.metrics))
	for _, m := range r.metrics {
		s := Sample{Name: m.name, Kind: m.kind, Value: m.value()}
		if m.h != nil {
			s.P50 = m.h.Quantile(0.50)
			s.P95 = m.h.Quantile(0.95)
			s.P99 = m.h.Quantile(0.99)
		}
		out = append(out, s)
	}
	r.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Delta returns after-before per name, keeping only names whose value
// changed. Both snapshots should come from the same registry.
func Delta(before, after []Sample) []Sample {
	prev := make(map[string]int64, len(before))
	for _, s := range before {
		prev[s.Name] = s.Value
	}
	var out []Sample
	for _, s := range after {
		if d := s.Value - prev[s.Name]; d != 0 {
			// Quantiles are not subtractable; carry the after-side estimates
			// so digest printers can show p50/p95/p99 beside the count delta.
			out = append(out, Sample{Name: s.Name, Kind: s.Kind, Value: d,
				P50: s.P50, P95: s.P95, P99: s.P99})
		}
	}
	return out
}
