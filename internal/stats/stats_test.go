package stats

import (
	"math"
	"math/rand"
	"testing"

	"anywheredb/internal/val"
)

// zipfValues generates n ints with a Zipf-skewed distribution over domain
// [0, domain).
func zipfValues(seed int64, n, domain int, s float64) []val.Value {
	rng := rand.New(rand.NewSource(seed))
	z := rand.NewZipf(rng, s, 1, uint64(domain-1))
	out := make([]val.Value, n)
	for i := range out {
		out[i] = val.NewInt(int64(z.Uint64()))
	}
	return out
}

func uniformValues(seed int64, n, domain int) []val.Value {
	rng := rand.New(rand.NewSource(seed))
	out := make([]val.Value, n)
	for i := range out {
		out[i] = val.NewInt(int64(rng.Intn(domain)))
	}
	return out
}

func trueEqCount(vals []val.Value, x int64) float64 {
	c := 0.0
	for _, v := range vals {
		if v.Kind == val.KInt && v.I == x {
			c++
		}
	}
	return c
}

func trueRangeCount(vals []val.Value, lo, hi int64) float64 {
	c := 0.0
	for _, v := range vals {
		if v.Kind == val.KInt && v.I >= lo && v.I < hi {
			c++
		}
	}
	return c
}

func TestBuilderSkewedSingletons(t *testing.T) {
	vals := zipfValues(1, 20000, 10000, 1.5)
	h := BuildFromValues(val.KInt, vals, 32)
	if h.SingletonCount() == 0 {
		t.Fatal("Zipf data should produce singleton buckets")
	}
	if h.SingletonCount() > MaxSingletons {
		t.Fatalf("singletons %d exceed cap", h.SingletonCount())
	}
	// The most frequent value (0) must be estimated well.
	truth := trueEqCount(vals, 0)
	est := h.SelEq(val.NewInt(0)) * h.Total()
	if q := QError(est, truth); q > 1.3 {
		t.Fatalf("frequent value q-error %g (est %g, true %g)", q, est, truth)
	}
}

func TestBuilderUniformRangeEstimates(t *testing.T) {
	vals := uniformValues(2, 20000, 10000)
	h := BuildFromValues(val.KInt, vals, 32)
	for _, r := range [][2]int64{{0, 1000}, {2500, 7500}, {9000, 10000}} {
		lo, hi := val.NewInt(r[0]), val.NewInt(r[1])
		est := h.SelRange(&lo, &hi, true, false) * h.Total()
		truth := trueRangeCount(vals, r[0], r[1])
		if q := QError(est, truth); q > 1.5 {
			t.Fatalf("range [%d,%d) q-error %g (est %g, true %g)", r[0], r[1], q, est, truth)
		}
	}
}

func TestCompressedLowCardinality(t *testing.T) {
	var vals []val.Value
	for i := 0; i < 3000; i++ {
		vals = append(vals, val.NewInt(int64(i%5))) // 5 distinct values
	}
	h := BuildFromValues(val.KInt, vals, 32)
	if !(len(h.buckets) == 0 && len(h.singletons) > 0) {
		t.Fatalf("5-value column should compress to singletons only (buckets=%d, singles=%d)",
			h.BucketCount(), h.SingletonCount())
	}
	est := h.SelEq(val.NewInt(3))
	if math.Abs(est-0.2) > 0.02 {
		t.Fatalf("compressed selectivity %g, want ~0.2", est)
	}
}

func TestNullTracking(t *testing.T) {
	var vals []val.Value
	for i := 0; i < 900; i++ {
		vals = append(vals, val.NewInt(int64(i)))
	}
	for i := 0; i < 100; i++ {
		vals = append(vals, val.Null)
	}
	h := BuildFromValues(val.KInt, vals, 16)
	if got := h.SelIsNull(); math.Abs(got-0.1) > 0.01 {
		t.Fatalf("IS NULL selectivity %g, want 0.1", got)
	}
	if h.SelEq(val.Null) != 0 {
		t.Fatal("= NULL must have selectivity 0")
	}
}

func TestFeedbackImprovesEquality(t *testing.T) {
	// Build a histogram from stale/unrepresentative data, then feed it
	// execution feedback about a value whose true frequency changed.
	vals := uniformValues(3, 10000, 1000)
	h := BuildFromValues(val.KInt, vals, 32)

	// Suppose value 42 actually matches 30% of rows now.
	trueSel := 0.30
	before := math.Abs(h.SelEq(val.NewInt(42)) - trueSel)
	for i := 0; i < 8; i++ {
		h.ObserveEq(val.NewInt(42), trueSel*10000, 10000)
	}
	after := math.Abs(h.SelEq(val.NewInt(42)) - trueSel)
	if after >= before {
		t.Fatalf("feedback did not improve estimate: before=%g after=%g", before, after)
	}
	if after > 0.05 {
		t.Fatalf("estimate still off by %g after feedback", after)
	}
	// The newly-frequent value became a singleton.
	if h.SingletonCount() == 0 {
		t.Fatal("frequent value should have been promoted to a singleton bucket")
	}
}

func TestFeedbackRangeCorrection(t *testing.T) {
	vals := uniformValues(4, 10000, 1000)
	h := BuildFromValues(val.KInt, vals, 32)
	lo, hi := val.NewInt(100), val.NewInt(200)

	// Claim the true count in [100,200) is 5x what uniform predicts.
	truth := 5 * h.SelRange(&lo, &hi, true, false) * h.Total()
	for i := 0; i < 10; i++ {
		h.ObserveRange(&lo, &hi, true, false, truth, h.Total())
	}
	est := h.SelRange(&lo, &hi, true, false) * h.Total()
	if q := QError(est, truth); q > 1.4 {
		t.Fatalf("range feedback q-error %g (est %g, truth %g)", q, est, truth)
	}
}

func TestDMLMaintenance(t *testing.T) {
	h := NewHistogram(val.KInt)
	for i := 0; i < 1000; i++ {
		h.NoteInsert(val.NewInt(int64(i % 100)))
	}
	if got := h.Total(); got != 1000 {
		t.Fatalf("total after inserts %g", got)
	}
	for i := 0; i < 500; i++ {
		h.NoteDelete(val.NewInt(int64(i % 100)))
	}
	if got := h.Total(); got != 500 {
		t.Fatalf("total after deletes %g", got)
	}
	h.NoteInsert(val.Null)
	if h.SelIsNull() == 0 {
		t.Fatal("null insert not tracked")
	}
	h.NoteDelete(val.Null)
	if h.SelIsNull() != 0 {
		t.Fatal("null delete not tracked")
	}
}

func TestBucketCountAdapts(t *testing.T) {
	h := NewHistogram(val.KInt)
	for i := 0; i < 200; i++ {
		h.NoteInsert(val.NewInt(int64(i)))
	}
	if h.BucketCount() < 2 {
		t.Fatalf("buckets did not expand from the seed bucket: %d", h.BucketCount())
	}
	hotBefore := bucketsOverlapping(h, 50, 60)
	// Pour a mass of inserts into a narrow region: resolution must migrate
	// there — buckets covering the hot range split while the now-sparse
	// remainder merges away.
	for i := 0; i < 20000; i++ {
		h.NoteInsert(val.NewInt(int64(50 + i%10)))
	}
	hotAfter := bucketsOverlapping(h, 50, 60)
	if hotAfter <= hotBefore {
		t.Fatalf("hot-range buckets %d -> %d, want expansion", hotBefore, hotAfter)
	}
	coldShare := float64(bucketsOverlapping(h, 100, 200)) / float64(h.BucketCount())
	hotShare := float64(hotAfter) / float64(h.BucketCount())
	if hotShare <= coldShare {
		t.Fatalf("resolution did not concentrate: hot %g vs cold %g", hotShare, coldShare)
	}
}

func bucketsOverlapping(h *Histogram, lo, hi float64) int {
	h.mu.RLock()
	defer h.mu.RUnlock()
	n := 0
	for _, b := range h.buckets {
		if b.Lo < hi && b.Hi > lo {
			n++
		}
	}
	return n
}

func TestSelRangeBoundsSemantics(t *testing.T) {
	var vals []val.Value
	for i := 0; i < 1000; i++ {
		vals = append(vals, val.NewInt(int64(i%10)))
	}
	h := BuildFromValues(val.KInt, vals, 8)
	// With 10 uniform values, [3,3] inclusive ≈ 10%.
	three := val.NewInt(3)
	selIncl := h.SelRange(&three, &three, true, true)
	if selIncl <= 0 {
		t.Fatal("inclusive point range should be positive")
	}
	selExcl := h.SelRange(&three, &three, true, false)
	if selExcl != 0 {
		t.Fatalf("empty half-open range selectivity %g", selExcl)
	}
	if h.SelRange(nil, nil, false, false) < 0.99 {
		t.Fatal("unbounded range should select everything")
	}
}

func TestEncodeDecodeHistogram(t *testing.T) {
	vals := zipfValues(5, 5000, 1000, 1.3)
	h := BuildFromValues(val.KInt, vals, 16)
	data := h.Encode()
	got, err := DecodeHistogram(data)
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range []int64{0, 1, 5, 50, 500} {
		if math.Abs(got.SelEq(val.NewInt(x))-h.SelEq(val.NewInt(x))) > 1e-12 {
			t.Fatalf("selectivity mismatch after round trip at %d", x)
		}
	}
	if _, err := DecodeHistogram(data[:3]); err == nil {
		t.Fatal("truncated decode should fail")
	}
	if _, err := DecodeHistogram(nil); err == nil {
		t.Fatal("empty decode should fail")
	}
}

func TestJoinCardUniform(t *testing.T) {
	// R: 10000 rows over [0,1000); S: 5000 rows over [0,1000).
	// True equijoin cardinality ≈ 10000*5000/1000 = 50000.
	r := BuildFromValues(val.KInt, uniformValues(6, 10000, 1000), 32)
	s := BuildFromValues(val.KInt, uniformValues(7, 5000, 1000), 32)
	card := JoinCard(r, s)
	if q := QError(card, 50000); q > 2.0 {
		t.Fatalf("uniform join card %g, want ~50000 (q=%g)", card, q)
	}
}

func TestJoinCardSkewMatters(t *testing.T) {
	// Skewed join: frequent values dominate the result; the singleton ×
	// singleton term must capture that.
	r := BuildFromValues(val.KInt, zipfValues(8, 20000, 10000, 1.4), 32)
	s := BuildFromValues(val.KInt, zipfValues(9, 20000, 10000, 1.4), 32)
	skewCard := JoinCard(r, s)

	u := BuildFromValues(val.KInt, uniformValues(10, 20000, 10000), 32)
	v := BuildFromValues(val.KInt, uniformValues(11, 20000, 10000), 32)
	uniCard := JoinCard(u, v)

	if skewCard < 5*uniCard {
		t.Fatalf("skewed join估 (%g) should far exceed uniform (%g)", skewCard, uniCard)
	}
}

func TestJoinSelectivityBounded(t *testing.T) {
	r := BuildFromValues(val.KInt, uniformValues(12, 1000, 10), 8)
	s := BuildFromValues(val.KInt, uniformValues(13, 1000, 10), 8)
	sel := JoinSelectivity(r, s)
	if sel <= 0 || sel > 1 {
		t.Fatalf("join selectivity %g out of range", sel)
	}
}

func TestStringStatsObserveEstimate(t *testing.T) {
	s := NewStringStats()
	s.Observe(OpEq, "widget", 0.02)
	s.Observe(OpEq, "widget", 0.04)
	got, ok := s.Estimate(OpEq, "widget")
	if !ok || math.Abs(got-0.03) > 1e-9 {
		t.Fatalf("moving average = %g, ok=%v", got, ok)
	}
	if _, ok := s.Estimate(OpEq, "unseen"); ok {
		t.Fatal("unseen operand should miss")
	}
}

func TestStringStatsWordLike(t *testing.T) {
	s := NewStringStats()
	// 100 rows; 10 contain the word "red".
	for i := 0; i < 10; i++ {
		s.Observe(OpEq, "big red barn", 0.01)
		for _, w := range val.Words("big red barn") {
			s.ObserveWord(w, 0.01)
		}
	}
	sel, ok := s.EstimateLike("%red%")
	if !ok {
		t.Fatal("word bucket should estimate %red%")
	}
	if math.Abs(sel-0.10) > 0.02 {
		t.Fatalf("LIKE %%red%% selectivity %g, want ~0.10", sel)
	}
	// Entire-value bucket also present.
	if _, ok := s.Estimate(OpEq, "big red barn"); !ok {
		t.Fatal("whole-value bucket missing")
	}
	// Patterns with inner wildcards cannot use word buckets.
	if _, ok := s.EstimateLike("%r_d%"); ok {
		t.Fatal("wildcarded inner pattern should miss")
	}
}

func TestStringStatsEviction(t *testing.T) {
	s := NewStringStats()
	s.maxEntry = 8
	for i := 0; i < 100; i++ {
		s.Observe(OpEq, string(rune('a'+i%26))+string(rune('0'+i%10)), 0.5)
	}
	if len(s.buckets) > 8 {
		t.Fatalf("buckets %d exceed cap 8", len(s.buckets))
	}
}

func TestQError(t *testing.T) {
	if QError(10, 10) != 1 {
		t.Fatal("exact estimate has q-error 1")
	}
	if QError(1, 100) != 100 || QError(100, 1) != 100 {
		t.Fatal("q-error symmetric")
	}
	if QError(0, 0) != 1 {
		t.Fatal("both floored at 1")
	}
}

func TestDensitySkewVsUniform(t *testing.T) {
	skew := BuildFromValues(val.KInt, zipfValues(14, 20000, 1000, 1.5), 32)
	uni := BuildFromValues(val.KInt, uniformValues(15, 20000, 1000), 32)
	// Density describes the tail: for Zipf the tail values are rare, so
	// density should be far below the uniform 1/1000.
	if skew.Density() >= uni.Density() {
		t.Fatalf("zipf density %g should be below uniform %g", skew.Density(), uni.Density())
	}
}
