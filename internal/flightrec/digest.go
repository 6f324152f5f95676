package flightrec

import (
	"sort"
	"sync"

	"anywheredb/internal/hist"
	"anywheredb/internal/val"
)

// DefaultDigestCap bounds the digest table's distinct fingerprints.
const DefaultDigestCap = 512

// OverflowFingerprint absorbs statements arriving after the table is full,
// so the table stays bounded without an eviction policy: a full table
// keeps exact stats for the fingerprints it saw first (the steady-state
// workload) and lumps the long tail into one visible bucket.
const OverflowFingerprint = "(overflow)"

// DigestStat is one fingerprint's aggregate, as surfaced by
// sys.statements. SampleSQL and SampleParams are the first statement seen
// for the fingerprint, as submitted: its text and the parameters the caller
// bound. They are what Application Profiling re-optimizes for the
// fingerprint (the overflow bucket keeps none). SampleParams is the table's
// own copy, shared by every snapshot; readers must not modify it.
type DigestStat struct {
	Fingerprint  string
	SampleSQL    string
	SampleParams []val.Value
	Calls        int64
	Errors       int64
	Rows         int64
	TotalUS      int64
	MinUS        int64
	MaxUS        int64
	P50US        int64
	P95US        int64
	P99US        int64
	WaitCount    [NumWaitKinds]int64
	WaitUS       [NumWaitKinds]int64
}

// digest is one fingerprint's live aggregate. Mutated under DigestTable.mu
// except the latency histogram, which is internally lock-free and also
// read (for quantiles) at snapshot time.
type digest struct {
	stat DigestStat
	hist hist.Histogram
}

// DigestTable aggregates finished spans per fingerprint, bounded to cap
// distinct entries plus one overflow bucket.
type DigestTable struct {
	mu  sync.Mutex
	m   map[string]*digest
	cap int
}

// NewDigestTable builds an empty table bounded to cap fingerprints
// (cap <= 0 selects DefaultDigestCap).
func NewDigestTable(cap int) *DigestTable {
	if cap <= 0 {
		cap = DefaultDigestCap
	}
	return &DigestTable{m: make(map[string]*digest), cap: cap}
}

// Observe folds one finished span into its fingerprint's aggregate. params
// are the values the statement's caller bound; they are copied only when
// the fingerprint is first seen, to become its sample.
func (t *DigestTable) Observe(sp *Span, params []val.Value) {
	t.mu.Lock()
	d, ok := t.m[sp.Fingerprint]
	if !ok {
		if len(t.m) >= t.cap {
			if d, ok = t.m[OverflowFingerprint]; !ok {
				d = &digest{stat: DigestStat{Fingerprint: OverflowFingerprint}}
				t.m[OverflowFingerprint] = d
			}
		} else {
			d = &digest{stat: DigestStat{
				Fingerprint:  sp.Fingerprint,
				SampleSQL:    sp.SQL,
				SampleParams: append([]val.Value(nil), params...),
			}}
			t.m[sp.Fingerprint] = d
		}
	}
	s := &d.stat
	s.Calls++
	if sp.Err != "" {
		s.Errors++
	}
	s.Rows += sp.Rows
	s.TotalUS += sp.TotalUS
	if s.Calls == 1 || sp.TotalUS < s.MinUS {
		s.MinUS = sp.TotalUS
	}
	if sp.TotalUS > s.MaxUS {
		s.MaxUS = sp.TotalUS
	}
	for k := WaitKind(0); k < NumWaitKinds; k++ {
		s.WaitCount[k] += sp.WaitCount(k)
		s.WaitUS[k] += sp.WaitUS(k)
	}
	t.mu.Unlock()
	// Outside the mutex: the histogram is lock-free.
	d.hist.Observe(sp.TotalUS)
}

// Len reports the number of distinct fingerprints (overflow included).
func (t *DigestTable) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.m)
}

// Reset drops every aggregate (tests and experiments).
func (t *DigestTable) Reset() {
	t.mu.Lock()
	t.m = make(map[string]*digest)
	t.mu.Unlock()
}

// Snapshot returns every fingerprint's aggregate, heaviest total latency
// first (the order a top-N statements view wants).
func (t *DigestTable) Snapshot() []DigestStat {
	t.mu.Lock()
	out := make([]DigestStat, 0, len(t.m))
	hists := make([]*digest, 0, len(t.m))
	for _, d := range t.m {
		out = append(out, d.stat)
		hists = append(hists, d)
	}
	t.mu.Unlock()
	for i, d := range hists {
		out[i].P50US = d.hist.Quantile(0.50)
		out[i].P95US = d.hist.Quantile(0.95)
		out[i].P99US = d.hist.Quantile(0.99)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].TotalUS != out[j].TotalUS {
			return out[i].TotalUS > out[j].TotalUS
		}
		return out[i].Fingerprint < out[j].Fingerprint
	})
	return out
}
