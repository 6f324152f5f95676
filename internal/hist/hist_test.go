package hist

import (
	"math/rand"
	"sort"
	"testing"
)

func TestHistogramBuckets(t *testing.T) {
	h := &Histogram{}
	for _, v := range []int64{0, 1, 1, 3, 100, -5} {
		h.Observe(v)
	}
	if h.Count() != 6 {
		t.Fatalf("count = %d, want 6", h.Count())
	}
	if h.Sum() != 105 {
		t.Fatalf("sum = %d, want 105", h.Sum())
	}
	b := h.Buckets()
	// 0 and -5 land in bucket 0; 1,1 in bucket 1; 3 in bucket 2; 100 in bucket 6.
	if b[0] != 2 || b[1] != 2 || b[2] != 1 || b[6] != 1 {
		t.Fatalf("bucket layout wrong: %v", b[:8])
	}
}

// exactQuantile computes the true q-quantile of vs (nearest-rank).
func exactQuantile(vs []int64, q float64) int64 {
	s := append([]int64(nil), vs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	rank := int(q*float64(len(s))+0.5) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(s) {
		rank = len(s) - 1
	}
	return s[rank]
}

// TestQuantileKnownDistributions checks the bucket-interpolated estimate
// against exact percentiles. The histogram's buckets are power-of-two
// wide, so the estimate may be off by up to one bucket width: assert
// under 2x relative error (plus a small absolute floor for tiny values).
func TestQuantileKnownDistributions(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	dists := map[string][]int64{
		"uniform":  nil,
		"exp":      nil,
		"constant": nil,
	}
	for i := 0; i < 10000; i++ {
		dists["uniform"] = append(dists["uniform"], rng.Int63n(100000))
		dists["exp"] = append(dists["exp"], int64(rng.ExpFloat64()*1000))
		dists["constant"] = append(dists["constant"], 777)
	}
	for name, vs := range dists {
		var h Histogram
		for _, v := range vs {
			h.Observe(v)
		}
		for _, q := range []float64{0.5, 0.95, 0.99} {
			got := h.Quantile(q)
			want := exactQuantile(vs, q)
			lo, hi := want/2-2, want*2+2
			if got < lo || got > hi {
				t.Errorf("%s p%.0f: got %d, exact %d (allowed [%d,%d])",
					name, q*100, got, want, lo, hi)
			}
		}
	}
}

func TestQuantileEdgeCases(t *testing.T) {
	var h Histogram
	if got := h.Quantile(0.99); got != 0 {
		t.Fatalf("empty histogram p99 = %d, want 0", got)
	}
	h.Observe(0)
	if got := h.Quantile(0.5); got != 0 {
		t.Fatalf("all-zero p50 = %d, want 0", got)
	}
	var h2 Histogram
	h2.Observe(5)
	for _, q := range []float64{-1, 0, 0.5, 1, 2} {
		got := h2.Quantile(q)
		// A single observation of 5 lives in bucket [3,6]; any in-bucket
		// estimate is acceptable, out-of-range q must clamp not panic.
		if got < 3 || got > 6 {
			t.Fatalf("single-value Quantile(%v) = %d, want within [3,6]", q, got)
		}
	}
}
