// Package stats implements the self-managing statistics of §3: equi-depth
// histograms whose bucket counts expand and contract as the data changes,
// frequent-value "singleton" buckets, per-column density, join histograms
// computed on the fly, long-string predicate statistics with per-word LIKE
// buckets, and stored-procedure call statistics.
//
// Statistics are gathered as a side effect of query execution — predicate
// evaluation and DML feed observations back into the histograms — rather
// than by explicit scans, a design the engine has used since 1992 (§3).
package stats

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"
	"sync"

	"anywheredb/internal/val"
)

// MaxSingletons bounds the number of frequent-value buckets retained in any
// histogram ([0,100] per §3.1).
const MaxSingletons = 100

// singletonFraction is the frequency at which a value earns a singleton
// bucket (at least 1% of the rows, §3.1).
const singletonFraction = 0.01

// Bucket is one equi-depth range bucket over the order-preserving hash
// domain: it covers [Lo, Hi) and holds Rows rows. Within a bucket the
// uniform-distribution assumption applies.
type Bucket struct {
	Lo, Hi float64
	Rows   float64
}

// Singleton is a frequent-value bucket: an exact domain value (by its
// order-preserving hash) with its row count.
type Singleton struct {
	Hash float64
	Rows float64
}

// Histogram is a self-managing column histogram: traditional equi-depth
// buckets combined with singleton buckets, plus a density measure used for
// values not covered by a singleton.
type Histogram struct {
	mu sync.RWMutex

	Kind       val.Kind
	width      float64 // domain value width (difference of consecutive values)
	buckets    []Bucket
	singletons []Singleton // sorted by Hash
	nulls      float64
	distinct   float64 // estimated distinct non-singleton values
	maxBuckets int
	// seen is a bounded sample of observed tail values, used to maintain
	// the distinct estimate incrementally under DML feedback.
	seen map[float64]struct{}
}

// maxSeenSample bounds the incremental distinct-tracking sample.
const maxSeenSample = 512

// NewHistogram returns an empty histogram for a column of the given kind.
func NewHistogram(kind val.Kind) *Histogram {
	return &Histogram{Kind: kind, width: val.Width(kind), maxBuckets: 64}
}

// Replace makes h describe what the freshly built src does. A rebuild
// publishes this way: planners hold a table's histograms by pointer and take
// no table lock, so the pointer itself never changes.
func (h *Histogram) Replace(src *Histogram) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.width, h.buckets, h.singletons, h.nulls = src.width, src.buckets, src.singletons, src.nulls
	h.distinct, h.maxBuckets, h.seen = src.distinct, src.maxBuckets, src.seen
}

// Total reports the estimated number of rows (including NULLs).
func (h *Histogram) Total() float64 {
	h.mu.RLock()
	defer h.mu.RUnlock()
	return h.totalLocked()
}

func (h *Histogram) totalLocked() float64 {
	t := h.nulls
	for _, b := range h.buckets {
		t += b.Rows
	}
	for _, s := range h.singletons {
		t += s.Rows
	}
	return t
}

// BucketCount reports the number of range buckets (expands and contracts
// dynamically).
func (h *Histogram) BucketCount() int {
	h.mu.RLock()
	defer h.mu.RUnlock()
	return len(h.buckets)
}

// SingletonCount reports the number of frequent-value buckets.
func (h *Histogram) SingletonCount() int {
	h.mu.RLock()
	defer h.mu.RUnlock()
	return len(h.singletons)
}

// Density is the average selectivity of a single value that is not saved
// as a singleton bucket (§3.1): the optimizer's guide for equality
// selectivity on the distribution's tail and for join estimation.
func (h *Histogram) Density() float64 {
	h.mu.RLock()
	defer h.mu.RUnlock()
	return h.densityLocked()
}

func (h *Histogram) densityLocked() float64 {
	var tailRows float64
	for _, b := range h.buckets {
		tailRows += b.Rows
	}
	total := h.totalLocked() - h.nulls
	if total <= 0 {
		return 0
	}
	d := h.distinct
	if d < 1 {
		d = 1
	}
	// Average fraction of rows selected by one non-singleton value.
	return tailRows / d / total
}

// --- Estimation ---------------------------------------------------------

// SelEq estimates the selectivity (fraction of all rows) of column = v.
func (h *Histogram) SelEq(v val.Value) float64 {
	if v.IsNull() {
		return 0 // = NULL never matches
	}
	h.mu.RLock()
	defer h.mu.RUnlock()
	total := h.totalLocked()
	if total <= 0 {
		return 0.01 // default guess on empty statistics
	}
	x := val.OrderHash(v)
	if s, ok := h.findSingleton(x); ok {
		return s.Rows / total
	}
	d := h.densityLocked()
	if d == 0 {
		return 1 / math.Max(total, 1)
	}
	// Density is relative to non-null rows.
	return d * (total - h.nulls) / total
}

// SelIsNull estimates the selectivity of column IS NULL.
func (h *Histogram) SelIsNull() float64 {
	h.mu.RLock()
	defer h.mu.RUnlock()
	total := h.totalLocked()
	if total <= 0 {
		return 0.01
	}
	return h.nulls / total
}

// SelRange estimates the selectivity of lo ≤/< column ≤/< hi. Nil bounds
// are open. Interpolation within a bucket assumes uniformity; the value
// width maintains domain discreteness for boundary inclusion.
func (h *Histogram) SelRange(lo, hi *val.Value, loInc, hiInc bool) float64 {
	h.mu.RLock()
	defer h.mu.RUnlock()
	total := h.totalLocked()
	if total <= 0 {
		return 0.1
	}
	loHash := math.Inf(-1)
	hiHash := math.Inf(1)
	if lo != nil {
		loHash = val.OrderHash(*lo)
		if !loInc {
			loHash += h.width
		}
	}
	if hi != nil {
		hiHash = val.OrderHash(*hi)
		if hiInc {
			hiHash += h.width
		}
	}
	if hiHash <= loHash {
		return 0
	}
	var rows float64
	for _, b := range h.buckets {
		rows += overlapRows(b, loHash, hiHash)
	}
	for _, s := range h.singletons {
		if s.Hash >= loHash && s.Hash < hiHash {
			rows += s.Rows
		}
	}
	sel := rows / total
	if sel > 1 {
		sel = 1
	}
	return sel
}

// overlapRows returns the rows of b falling inside [lo, hi).
func overlapRows(b Bucket, lo, hi float64) float64 {
	l := math.Max(b.Lo, lo)
	r := math.Min(b.Hi, hi)
	if r <= l {
		return 0
	}
	span := b.Hi - b.Lo
	if span <= 0 {
		if b.Lo >= lo && b.Lo < hi {
			return b.Rows
		}
		return 0
	}
	return b.Rows * (r - l) / span
}

func (h *Histogram) findSingleton(x float64) (Singleton, bool) {
	i := sort.Search(len(h.singletons), func(i int) bool { return h.singletons[i].Hash >= x })
	if i < len(h.singletons) && h.singletons[i].Hash == x {
		return h.singletons[i], true
	}
	return Singleton{}, false
}

// --- Feedback maintenance (§3.2) ----------------------------------------

// feedbackRate is the exponential learning rate applied to query-feedback
// corrections: observed truth pulls the affected masses toward it without
// letting one aberrant observation destroy the histogram.
const feedbackRate = 0.5

// ObserveEq folds in the true selectivity of an equality predicate
// observed during query execution: the column had observedRows matches out
// of scannedRows scanned.
func (h *Histogram) ObserveEq(v val.Value, observedRows, scannedRows float64) {
	if v.IsNull() || scannedRows <= 0 {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	total := h.totalLocked()
	if total <= 0 {
		total = scannedRows
	}
	trueRows := observedRows / scannedRows * total
	x := val.OrderHash(v)
	i := sort.Search(len(h.singletons), func(i int) bool { return h.singletons[i].Hash >= x })
	if i < len(h.singletons) && h.singletons[i].Hash == x {
		s := &h.singletons[i]
		s.Rows += feedbackRate * (trueRows - s.Rows)
		if s.Rows < singletonFraction*total/2 {
			// No longer frequent: fold back into the covering bucket.
			h.dropSingletonLocked(i)
		}
		return
	}
	// Frequent enough to deserve a singleton bucket?
	if trueRows >= singletonFraction*total && len(h.singletons) < MaxSingletons {
		h.removeMassLocked(x, trueRows)
		h.singletons = append(h.singletons, Singleton{})
		copy(h.singletons[i+1:], h.singletons[i:])
		h.singletons[i] = Singleton{Hash: x, Rows: trueRows}
		if h.distinct > 1 {
			h.distinct--
		}
		return
	}
	// Tail value: nudge the covering bucket's mass toward consistency with
	// the observed density.
	bi := h.bucketFor(x)
	if bi < 0 {
		return
	}
	b := &h.buckets[bi]
	d := h.densityLocked()
	if d > 0 {
		impliedRows := trueRows / math.Max(d*(total-h.nulls), 1e-9) * b.Rows
		b.Rows += feedbackRate * (impliedRows - b.Rows)
		if b.Rows < 0 {
			b.Rows = 0
		}
	}
}

// ObserveRange folds in the true selectivity of a range predicate.
func (h *Histogram) ObserveRange(lo, hi *val.Value, loInc, hiInc bool, observedRows, scannedRows float64) {
	h.observeRange(lo, hi, loInc, hiInc, observedRows, scannedRows, (*Histogram).maybeResizeLocked)
}

// observeRange and noteInsert take the resize step they end in as an
// argument so that a test can run a reference one over the same sequence.
func (h *Histogram) observeRange(lo, hi *val.Value, loInc, hiInc bool, observedRows, scannedRows float64, resize func(*Histogram)) {
	if scannedRows <= 0 {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	total := h.totalLocked()
	if total <= 0 {
		return
	}
	loHash := math.Inf(-1)
	hiHash := math.Inf(1)
	if lo != nil {
		loHash = val.OrderHash(*lo)
		if !loInc {
			loHash += h.width
		}
	}
	if hi != nil {
		hiHash = val.OrderHash(*hi)
		if hiInc {
			hiHash += h.width
		}
	}
	var cur float64
	for _, b := range h.buckets {
		cur += overlapRows(b, loHash, hiHash)
	}
	for _, s := range h.singletons {
		if s.Hash >= loHash && s.Hash < hiHash {
			cur += s.Rows
		}
	}
	trueRows := observedRows / scannedRows * total
	if cur <= 0 {
		// The histogram thought the range was empty; grow the overlapped
		// buckets uniformly.
		for i := range h.buckets {
			if overlaps(h.buckets[i], loHash, hiHash) {
				h.buckets[i].Rows += feedbackRate * trueRows
			}
		}
		return
	}
	ratio := 1 + feedbackRate*(trueRows/cur-1)
	for i := range h.buckets {
		b := &h.buckets[i]
		part := overlapRows(*b, loHash, hiHash)
		if part > 0 {
			b.Rows += part*ratio - part
			if b.Rows < 0 {
				b.Rows = 0
			}
		}
	}
	for i := range h.singletons {
		s := &h.singletons[i]
		if s.Hash >= loHash && s.Hash < hiHash {
			s.Rows *= ratio
		}
	}
	resize(h)
}

func overlaps(b Bucket, lo, hi float64) bool {
	return math.Max(b.Lo, lo) < math.Min(b.Hi, hi)
}

// NoteInsert maintains the histogram for an INSERT of v.
func (h *Histogram) NoteInsert(v val.Value) { h.noteInsert(v, (*Histogram).maybeResizeLocked) }

func (h *Histogram) noteInsert(v val.Value, resize func(*Histogram)) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if v.IsNull() {
		h.nulls++
		return
	}
	x := val.OrderHash(v)
	i := sort.Search(len(h.singletons), func(i int) bool { return h.singletons[i].Hash >= x })
	if i < len(h.singletons) && h.singletons[i].Hash == x {
		h.singletons[i].Rows++
		return
	}
	bi := h.bucketFor(x)
	if bi < 0 {
		h.addCoveringBucketLocked(x)
		bi = h.bucketFor(x)
	}
	h.buckets[bi].Rows++
	// Maintain the distinct estimate from a bounded sample of tail values.
	if h.seen == nil {
		h.seen = make(map[float64]struct{})
	}
	if _, ok := h.seen[x]; !ok && len(h.seen) < maxSeenSample {
		h.seen[x] = struct{}{}
		h.distinct++
	}
	resize(h)
}

// NoteDelete maintains the histogram for a DELETE of v.
func (h *Histogram) NoteDelete(v val.Value) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if v.IsNull() {
		if h.nulls > 0 {
			h.nulls--
		}
		return
	}
	x := val.OrderHash(v)
	i := sort.Search(len(h.singletons), func(i int) bool { return h.singletons[i].Hash >= x })
	if i < len(h.singletons) && h.singletons[i].Hash == x {
		h.singletons[i].Rows--
		if h.singletons[i].Rows <= 0 {
			h.singletons = append(h.singletons[:i], h.singletons[i+1:]...)
		}
		return
	}
	if bi := h.bucketFor(x); bi >= 0 && h.buckets[bi].Rows > 0 {
		h.buckets[bi].Rows--
	}
}

// --- Internal maintenance ------------------------------------------------

func (h *Histogram) bucketFor(x float64) int {
	for i := range h.buckets {
		if x >= h.buckets[i].Lo && x < h.buckets[i].Hi {
			return i
		}
	}
	return -1
}

// addCoveringBucketLocked extends the histogram's range to cover x.
func (h *Histogram) addCoveringBucketLocked(x float64) {
	w := math.Max(h.width, math.Abs(x)*1e-6)
	nb := Bucket{Lo: x, Hi: x + w, Rows: 0}
	switch {
	case len(h.buckets) == 0:
		h.buckets = []Bucket{nb}
	case x < h.buckets[0].Lo:
		h.buckets[0].Lo = x
	case x >= h.buckets[len(h.buckets)-1].Hi:
		h.buckets[len(h.buckets)-1].Hi = math.Nextafter(x+w, math.Inf(1))
	default:
		// Inside a gap between buckets (shouldn't happen; buckets abut).
		h.buckets = append(h.buckets, nb)
		sort.Slice(h.buckets, func(i, j int) bool { return h.buckets[i].Lo < h.buckets[j].Lo })
	}
}

// removeMassLocked subtracts rows around hash x from the covering bucket
// (used when promoting a value to a singleton).
func (h *Histogram) removeMassLocked(x, rows float64) {
	if bi := h.bucketFor(x); bi >= 0 {
		h.buckets[bi].Rows -= rows
		if h.buckets[bi].Rows < 0 {
			h.buckets[bi].Rows = 0
		}
	}
}

func (h *Histogram) dropSingletonLocked(i int) {
	s := h.singletons[i]
	h.singletons = append(h.singletons[:i], h.singletons[i+1:]...)
	if bi := h.bucketFor(s.Hash); bi >= 0 {
		h.buckets[bi].Rows += s.Rows
	}
	h.distinct++
}

// maybeResizeLocked keeps the histogram equi-depth-ish: buckets that grow
// beyond twice the average depth split; adjacent buckets that together fall
// under half the average merge. The bucket count therefore expands and
// contracts dynamically as the distribution changes (§3.1).
func (h *Histogram) maybeResizeLocked() {
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
	// Split oversized buckets: any bucket deeper than twice the target
	// equi-depth (total divided by a quarter of the bucket budget) splits,
	// so even a single seed bucket expands as data pours in.
	targetDepth := 2 * total / math.Max(float64(h.maxBuckets)/4, 4)
	splits := func(b Bucket, emitted int) bool {
		return b.Rows > math.Max(targetDepth, 8) && b.Hi-b.Lo > 2*h.width && n+emitted-1 < h.maxBuckets
	}
	// Most calls split nothing — this runs on every row insert — so find the
	// first bucket that splits before building anything.
	first := -1
	if n < h.maxBuckets {
		for i, b := range h.buckets {
			if splits(b, i) {
				first = i
				break
			}
		}
	}
	if first >= 0 {
		out := make([]Bucket, first, n+1)
		copy(out, h.buckets[:first])
		for _, b := range h.buckets[first:] {
			if splits(b, len(out)) {
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
	// Merge undersized neighbours.
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

// --- Serialization -------------------------------------------------------

// Encode serializes the histogram for persistent storage in the catalog.
func (h *Histogram) Encode() []byte {
	h.mu.RLock()
	defer h.mu.RUnlock()
	var b []byte
	b = append(b, byte(h.Kind))
	b = binary.AppendUvarint(b, math.Float64bits(h.nulls))
	b = binary.AppendUvarint(b, math.Float64bits(h.distinct))
	b = binary.AppendUvarint(b, uint64(len(h.buckets)))
	for _, bk := range h.buckets {
		b = binary.AppendUvarint(b, math.Float64bits(bk.Lo))
		b = binary.AppendUvarint(b, math.Float64bits(bk.Hi))
		b = binary.AppendUvarint(b, math.Float64bits(bk.Rows))
	}
	b = binary.AppendUvarint(b, uint64(len(h.singletons)))
	for _, s := range h.singletons {
		b = binary.AppendUvarint(b, math.Float64bits(s.Hash))
		b = binary.AppendUvarint(b, math.Float64bits(s.Rows))
	}
	return b
}

// DecodeHistogram reverses Encode.
func DecodeHistogram(data []byte) (*Histogram, error) {
	bad := fmt.Errorf("stats: corrupt histogram")
	if len(data) < 1 {
		return nil, bad
	}
	h := NewHistogram(val.Kind(data[0]))
	data = data[1:]
	u := func() (float64, bool) {
		v, n := binary.Uvarint(data)
		if n <= 0 {
			return 0, false
		}
		data = data[n:]
		return math.Float64frombits(v), true
	}
	var ok bool
	if h.nulls, ok = u(); !ok {
		return nil, bad
	}
	if h.distinct, ok = u(); !ok {
		return nil, bad
	}
	nb, n := binary.Uvarint(data)
	if n <= 0 {
		return nil, bad
	}
	data = data[n:]
	for i := uint64(0); i < nb; i++ {
		var bk Bucket
		if bk.Lo, ok = u(); !ok {
			return nil, bad
		}
		if bk.Hi, ok = u(); !ok {
			return nil, bad
		}
		if bk.Rows, ok = u(); !ok {
			return nil, bad
		}
		h.buckets = append(h.buckets, bk)
	}
	ns, n := binary.Uvarint(data)
	if n <= 0 {
		return nil, bad
	}
	data = data[n:]
	for i := uint64(0); i < ns; i++ {
		var s Singleton
		if s.Hash, ok = u(); !ok {
			return nil, bad
		}
		if s.Rows, ok = u(); !ok {
			return nil, bad
		}
		h.singletons = append(h.singletons, s)
	}
	return h, nil
}

// QError is the standard estimation-quality metric: max(est/true,
// true/est), with both floored at 1 row. Used by the E9 experiment.
func QError(est, truth float64) float64 {
	est = math.Max(est, 1)
	truth = math.Max(truth, 1)
	return math.Max(est/truth, truth/est)
}
