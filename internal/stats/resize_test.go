package stats

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"anywheredb/internal/val"
)

// resizeReference is maybeResizeLocked as it was when it rebuilt the bucket
// slice on every call: the reference the allocation-free body is held to.
func resizeReference(h *Histogram) {
	n := len(h.buckets)
	if n == 0 {
		return
	}
	var total float64
	for _, b := range h.buckets {
		total += b.Rows
	}
	avg := total / float64(n)
	if avg <= 0 {
		return
	}
	targetDepth := 2 * total / math.Max(float64(h.maxBuckets)/4, 4)
	if n < h.maxBuckets {
		out := h.buckets[:0:0]
		for _, b := range h.buckets {
			if b.Rows > math.Max(targetDepth, 8) && b.Hi-b.Lo > 2*h.width && n+len(out)-1 < h.maxBuckets {
				mid := b.Lo + (b.Hi-b.Lo)/2
				out = append(out,
					Bucket{Lo: b.Lo, Hi: mid, Rows: b.Rows / 2},
					Bucket{Lo: mid, Hi: b.Hi, Rows: b.Rows / 2})
			} else {
				out = append(out, b)
			}
		}
		h.buckets = out
	}
	if len(h.buckets) > 4 {
		out := h.buckets[:1]
		for _, b := range h.buckets[1:] {
			last := &out[len(out)-1]
			if last.Rows+b.Rows < avg/2 && last.Hi == b.Lo {
				last.Hi = b.Hi
				last.Rows += b.Rows
			} else {
				out = append(out, b)
			}
		}
		h.buckets = out
	}
}

// TestResizeMatchesReference drives two histograms through one random
// sequence of inserts, deletes and feedback, one resizing with the current
// body and one with the reference: bucket boundaries and depths must be
// bit-identical (Encode carries them as float bits) after every step.
func TestResizeMatchesReference(t *testing.T) {
	splits, merges := 0, 0
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		got, want := NewHistogram(val.KInt), NewHistogram(val.KInt)
		got.maxBuckets = 8 << rng.Intn(4)
		want.maxBuckets = got.maxBuckets
		spread := int64(1) << (4 + rng.Intn(16))
		draw := func() val.Value {
			if rng.Intn(4) == 0 {
				return val.NewInt(rng.Int63n(spread) / 64 * 64) // a hot spot: deep buckets
			}
			return val.NewInt(rng.Int63n(spread))
		}
		for step := 0; step < 600; step++ {
			before := len(got.buckets)
			switch op := rng.Intn(10); {
			case op < 6:
				v := draw()
				got.NoteInsert(v)
				want.noteInsert(v, resizeReference)
			case op < 7:
				v := draw()
				got.NoteDelete(v)
				want.NoteDelete(v)
			case op < 8:
				v, m, n := draw(), float64(rng.Intn(50)), float64(1+rng.Intn(500))
				got.ObserveEq(v, m, n)
				want.ObserveEq(v, m, n)
			default:
				lo, hi := draw(), draw()
				if val.Compare(lo, hi) > 0 {
					lo, hi = hi, lo
				}
				m, n, hiInc := float64(rng.Intn(400)), float64(1+rng.Intn(500)), rng.Intn(2) == 0
				got.ObserveRange(&lo, &hi, true, hiInc, m, n)
				want.observeRange(&lo, &hi, true, hiInc, m, n, resizeReference)
			}
			if after := len(got.buckets); after > before {
				splits++
			} else if after < before {
				merges++
			}
			if !bytes.Equal(got.Encode(), want.Encode()) {
				t.Logf("seed %d, step %d: %v\n reference %v", seed, step, got.buckets, want.buckets)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
	if splits == 0 || merges == 0 {
		t.Fatalf("the sequences split %d times and merged %d times: both paths must run", splits, merges)
	}
}

// TestInsertDoesNotRebuildBuckets: the common insert — nothing splits,
// nothing merges — allocates nothing.
func TestInsertDoesNotRebuildBuckets(t *testing.T) {
	h := NewHistogram(val.KInt)
	for i := 0; i < 5000; i++ {
		h.NoteInsert(val.NewInt(int64(i % 1000)))
	}
	i := 0
	if n := testing.AllocsPerRun(1000, func() {
		h.NoteInsert(val.NewInt(int64(i % 1000)))
		i++
	}); n > 0.01 {
		t.Errorf("NoteInsert allocates %v objects per call", n)
	}
}
