package stats

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"anywheredb/internal/val"
)

// linearBuilder is the reference for Builder's candidate heap: the
// space-saving counters in a map, where an untracked value scans every
// candidate for the minimum it evicts. The minimum is the lower hash on a
// tie, which keeps the reference deterministic. It shares the reservoir and
// Build with a Builder, whose candidates it replaces before building.
type linearBuilder struct {
	b      *Builder
	counts map[float64]int64
}

func newLinearBuilder(kind val.Kind) *linearBuilder {
	return &linearBuilder{b: NewBuilder(kind), counts: map[float64]int64{}}
}

func (r *linearBuilder) Add(v val.Value) {
	r.b.Add(v)
	if v.IsNull() {
		return
	}
	x := val.OrderHash(v)
	if c, ok := r.counts[x]; ok {
		r.counts[x] = c + 1
		return
	}
	if len(r.counts) < r.b.maxCounts {
		r.counts[x] = 1
		return
	}
	minK, minC := 0.0, int64(math.MaxInt64)
	for k, c := range r.counts {
		if c < minC || c == minC && k < minK {
			minK, minC = k, c
		}
	}
	delete(r.counts, minK)
	r.counts[x] = minC + 1
}

func (r *linearBuilder) Build(targetBuckets int) *Histogram {
	r.b.heap = r.b.heap[:0]
	for k, c := range r.counts {
		r.b.heap = append(r.b.heap, candidate{hash: k, count: c})
	}
	return r.b.Build(targetBuckets)
}

// builderStreams are the seeded value streams the builder is checked on.
func builderStreams() map[string][]val.Value {
	const n = 20000
	rng := rand.New(rand.NewSource(42))
	perm := rng.Perm(n)
	ints := func(f func(i int) int64) []val.Value {
		out := make([]val.Value, n)
		for j, i := range perm {
			out[j] = val.NewInt(f(i))
		}
		return out
	}
	withNulls := ints(func(i int) int64 { return int64(i % 50) })
	for j := range withNulls {
		if perm[j]%7 == 0 {
			withNulls[j] = val.Null
		}
	}
	return map[string][]val.Value{
		"unique":  ints(func(i int) int64 { return int64(i) }),
		"mod1000": ints(func(i int) int64 { return int64(i % 1000) }),
		"mod16":   ints(func(i int) int64 { return int64(i % 16) }),
		"zipf":    zipfValues(7, n, 10000, 1.1),
		"nulls":   withNulls,
	}
}

// TestBuilderMatchesLinearReference: the heap changes how the candidate to
// evict is found, not the histogram. On every stream the heap builder and
// the linear reference give the same singletons (their rows within n/k),
// the same equi-depth boundaries, and every value whose true count exceeds
// n/k is tracked with at least its true count — the space-saving
// guarantee. Two builds of one stream encode identically.
func TestBuilderMatchesLinearReference(t *testing.T) {
	for name, vals := range builderStreams() {
		t.Run(name, func(t *testing.T) {
			b, ref := NewBuilder(val.KInt), newLinearBuilder(val.KInt)
			truth := map[float64]int64{}
			for _, v := range vals {
				b.Add(v)
				ref.Add(v)
				if !v.IsNull() {
					truth[val.OrderHash(v)]++
				}
			}
			nonNull := b.n - b.nulls
			slack := float64(nonNull) / float64(b.maxCounts)
			for x, c := range truth {
				if float64(c) <= slack {
					continue
				}
				i, ok := b.pos[x]
				if !ok {
					t.Fatalf("value %g (true count %d > n/k = %g) is not tracked", x, c, slack)
				}
				if got := b.heap[i].count; got < c {
					t.Fatalf("value %g: counted %d, true count %d", x, got, c)
				}
			}

			h, want := b.Build(32), ref.Build(32)
			if len(h.singletons) != len(want.singletons) {
				t.Fatalf("%d singletons, reference %d", len(h.singletons), len(want.singletons))
			}
			for i, s := range h.singletons {
				w := want.singletons[i]
				if s.Hash != w.Hash || math.Abs(s.Rows-w.Rows) > slack {
					t.Fatalf("singleton %d: %+v, reference %+v (n/k = %g)", i, s, w, slack)
				}
			}
			if len(h.buckets) != len(want.buckets) {
				t.Fatalf("%d buckets, reference %d", len(h.buckets), len(want.buckets))
			}
			for i, bk := range h.buckets {
				if w := want.buckets[i]; bk.Lo != w.Lo || bk.Hi != w.Hi {
					t.Fatalf("bucket %d: [%g,%g), reference [%g,%g)", i, bk.Lo, bk.Hi, w.Lo, w.Hi)
				}
			}

			again := NewBuilder(val.KInt)
			for _, v := range vals {
				again.Add(v)
			}
			if !bytes.Equal(again.Build(32).Encode(), h.Encode()) {
				t.Fatal("two builds of one stream encode differently")
			}
		})
	}
}

// BenchmarkBuilderAdd feeds a unique column to a builder, the CREATE UNIQUE
// INDEX case: every value past the first 4·MaxSingletons evicts a
// candidate.
func BenchmarkBuilderAdd(b *testing.B) {
	vals := make([]val.Value, 50000)
	for i := range vals {
		vals[i] = val.NewInt(int64(i))
	}
	b.ReportAllocs()
	for b.Loop() {
		bl := NewBuilder(val.KInt)
		for _, v := range vals {
			bl.Add(v)
		}
	}
}
