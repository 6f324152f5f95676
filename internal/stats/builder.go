package stats

import (
	"cmp"
	"math"
	"slices"
	"sort"

	"anywheredb/internal/val"
)

// Builder constructs a histogram from a stream of values, as when LOAD
// TABLE, CREATE INDEX, or CREATE STATISTICS runs (§3.2). It is a modified
// form of Greenwald's self-scaling approach: instead of retaining the full
// cumulative distribution it keeps a bounded reservoir of samples plus
// exact counts for candidate frequent values (space-saving), significantly
// reducing the overhead of statistics collection with a marginal reduction
// in quality.
//
// The candidates are space-saving counters (Metwally, Agrawal and El
// Abbadi, ICDT 2005) kept in an indexed min-heap ordered by (count, hash):
// the root is the counter an untracked value takes over, so a value costs
// O(log k) for k = 4·MaxSingletons candidates, not a scan of all of them.
type Builder struct {
	kind val.Kind

	n        int64
	nulls    int64
	samples  []float64 // reservoir of order-preserving hashes
	maxSamp  int
	seen     int64
	rngState uint64

	// Space-saving frequent-value candidates: heap is the min-heap and pos
	// maps a tracked value's hash to its position in it.
	heap      []candidate
	pos       map[float64]int
	maxCounts int
}

// candidate is one space-saving counter: a value's hash and its count.
type candidate struct {
	hash  float64
	count int64
}

// before orders the heap: the lower count first, the lower hash on a tie,
// so which counter an eviction takes is the same on every build.
func (c candidate) before(d candidate) bool {
	return c.count < d.count || c.count == d.count && c.hash < d.hash
}

// NewBuilder returns a histogram builder for values of the given kind.
func NewBuilder(kind val.Kind) *Builder {
	return &Builder{
		kind:      kind,
		maxSamp:   2048,
		pos:       make(map[float64]int),
		maxCounts: 4 * MaxSingletons,
		rngState:  0x9E3779B97F4A7C15,
	}
}

func (b *Builder) rand() uint64 {
	// xorshift64*: deterministic, cheap, good enough for reservoir sampling.
	b.rngState ^= b.rngState >> 12
	b.rngState ^= b.rngState << 25
	b.rngState ^= b.rngState >> 27
	return b.rngState * 2685821657736338717
}

// Add feeds one value.
func (b *Builder) Add(v val.Value) {
	b.n++
	if v.IsNull() {
		b.nulls++
		return
	}
	x := val.OrderHash(v)

	// Reservoir sample for quantiles.
	b.seen++
	if len(b.samples) < b.maxSamp {
		b.samples = append(b.samples, x)
	} else if j := b.rand() % uint64(b.seen); j < uint64(b.maxSamp) {
		b.samples[j] = x
	}

	// Space-saving counter for frequent values.
	if i, ok := b.pos[x]; ok {
		b.heap[i].count++
		b.down(i)
		return
	}
	if len(b.heap) < b.maxCounts {
		b.heap = append(b.heap, candidate{hash: x, count: 1})
		b.up(len(b.heap) - 1)
		return
	}
	// Evict the minimum and take over its count (space-saving).
	root := &b.heap[0]
	delete(b.pos, root.hash)
	root.hash, root.count = x, root.count+1
	b.down(0)
}

// up moves the candidate at heap position i toward the root until its
// parent comes before it, recording every position it changes.
func (b *Builder) up(i int) {
	h, c := b.heap, b.heap[i]
	for i > 0 {
		parent := (i - 1) / 2
		if !c.before(h[parent]) {
			break
		}
		h[i] = h[parent]
		b.pos[h[i].hash] = i
		i = parent
	}
	h[i] = c
	b.pos[c.hash] = i
}

// down moves the candidate at heap position i, whose count grew, toward the
// leaves until no child comes before it, recording every position it
// changes.
func (b *Builder) down(i int) {
	h, c := b.heap, b.heap[i]
	for {
		child := 2*i + 1
		if child >= len(h) {
			break
		}
		if r := child + 1; r < len(h) && h[r].before(h[child]) {
			child = r
		}
		if !h[child].before(c) {
			break
		}
		h[i] = h[child]
		b.pos[h[i].hash] = i
		i = child
	}
	h[i] = c
	b.pos[c.hash] = i
}

// Build produces the histogram, with targetBuckets equi-depth buckets and
// up to MaxSingletons frequent-value buckets. If the column is
// low-cardinality the result is the compressed all-singleton form.
func (b *Builder) Build(targetBuckets int) *Histogram {
	h := NewHistogram(b.kind)
	h.nulls = float64(b.nulls)
	nonNull := float64(b.n - b.nulls)
	if nonNull == 0 {
		return h
	}
	if targetBuckets < 4 {
		targetBuckets = 4
	}
	h.maxBuckets = 4 * targetBuckets

	// Promote frequent values (≥1% or top-N) to singletons. A value whose
	// exact count was tracked and which covers every row (low-cardinality
	// column) yields the compressed representation.
	// The candidates are read most rows first, the lower hash on a tie.
	freqs := slices.Clone(b.heap)
	slices.SortFunc(freqs, func(c, d candidate) int {
		return cmp.Or(cmp.Compare(d.count, c.count), cmp.Compare(c.hash, d.hash))
	})
	var trackedRows int64
	for _, f := range freqs {
		trackedRows += f.count
	}
	exact := trackedRows == b.n-b.nulls && len(freqs) < b.maxCounts

	singled := map[float64]bool{}
	for i, f := range freqs {
		isTop := i < MaxSingletons && (exact && len(freqs) <= MaxSingletons)
		if rows := float64(f.count); rows >= singletonFraction*nonNull || isTop {
			if len(h.singletons) >= MaxSingletons {
				break
			}
			h.singletons = append(h.singletons, Singleton{Hash: f.hash, Rows: rows})
			singled[f.hash] = true
		}
	}
	sort.Slice(h.singletons, func(i, j int) bool { return h.singletons[i].Hash < h.singletons[j].Hash })

	var singletonRows float64
	for _, s := range h.singletons {
		singletonRows += s.Rows
	}
	tailRows := nonNull - singletonRows
	if tailRows <= 0 || (exact && len(freqs) <= MaxSingletons) {
		// Compressed representation: singletons only.
		h.distinct = 0
		return h
	}

	// Equi-depth boundaries from the sampled CDF, excluding singleton
	// sample points so buckets describe the tail.
	tail := b.samples[:0:0]
	for _, x := range b.samples {
		if !singled[x] {
			tail = append(tail, x)
		}
	}
	if len(tail) == 0 {
		tail = append(tail, b.samples...)
	}
	sort.Float64s(tail)

	nb := targetBuckets
	if nb > len(tail) {
		nb = len(tail)
	}
	per := tailRows / float64(nb)
	distinctTail := map[float64]bool{}
	for _, x := range tail {
		distinctTail[x] = true
	}
	h.distinct = float64(len(distinctTail))
	if exact {
		h.distinct = float64(len(freqs) - len(h.singletons))
	} else if b.seen > int64(len(b.samples)) {
		// Scale the sampled distinct count toward the population, but no
		// further than the domain permits: a discrete domain of width w
		// spanning [min,max] holds at most (max-min)/w + 1 values.
		h.distinct *= float64(b.seen) / float64(len(b.samples))
		if h.width > 0 && len(tail) > 0 {
			span := tail[len(tail)-1] - tail[0]
			if maxDistinct := span/h.width + 1; h.distinct > maxDistinct {
				h.distinct = maxDistinct
			}
		}
	}

	for i := 0; i < nb; i++ {
		loIdx := i * len(tail) / nb
		hiIdx := (i + 1) * len(tail) / nb
		lo := tail[loIdx]
		var hi float64
		if hiIdx >= len(tail) {
			hi = math.Nextafter(tail[len(tail)-1]+h.width, math.Inf(1))
		} else {
			hi = tail[hiIdx]
		}
		if hi <= lo {
			hi = math.Nextafter(lo+h.width, math.Inf(1))
		}
		h.buckets = append(h.buckets, Bucket{Lo: lo, Hi: hi, Rows: per})
	}
	// Coalesce zero-width artifacts.
	out := h.buckets[:1]
	for _, bk := range h.buckets[1:] {
		last := &out[len(out)-1]
		if bk.Lo < last.Hi {
			last.Hi = math.Max(last.Hi, bk.Hi)
			last.Rows += bk.Rows
		} else {
			out = append(out, bk)
		}
	}
	h.buckets = out
	return h
}

// BuildFromValues is a convenience constructing a histogram from a slice.
func BuildFromValues(kind val.Kind, vals []val.Value, targetBuckets int) *Histogram {
	b := NewBuilder(kind)
	for _, v := range vals {
		b.Add(v)
	}
	return b.Build(targetBuckets)
}
