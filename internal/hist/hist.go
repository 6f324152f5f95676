// Package hist is the engine's fixed-bucket histogram, a leaf that the
// layers observing into one and the registry publishing it both import.
package hist

import "sync/atomic"

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
