package experiments

import (
	"fmt"
	"math/rand"
	"strings"

	"anywheredb/internal/buffer"
	"anywheredb/internal/core"
	"anywheredb/internal/page"
	"anywheredb/internal/profile"
	"anywheredb/internal/stats"
	"anywheredb/internal/store"
	"anywheredb/internal/telemetry"
	"anywheredb/internal/val"
)

// E9HistogramFeedback builds statistics from unrepresentative data, then
// measures q-error across a query sequence with and without execution
// feedback, on Zipf-skewed data.
func E9HistogramFeedback() (*Report, error) {
	const n = 30000
	rng := rand.New(rand.NewSource(9))
	z := rand.NewZipf(rng, 1.3, 1, 999)
	data := make([]val.Value, n)
	counts := map[int64]float64{}
	for i := range data {
		v := int64(z.Uint64())
		data[i] = val.NewInt(v)
		counts[v]++
	}

	run := func(feedback bool) (float64, float64, *stats.Histogram) {
		// A stale histogram built from a uniform sample (the distribution
		// later became skewed).
		var staleVals []val.Value
		r2 := rand.New(rand.NewSource(99))
		for i := 0; i < n; i++ {
			staleVals = append(staleVals, val.NewInt(int64(r2.Intn(1000))))
		}
		h := stats.BuildFromValues(val.KInt, staleVals, 32)

		qrng := rand.New(rand.NewSource(12))
		qz := rand.NewZipf(qrng, 1.3, 1, 999)
		var firstQ, lastQ float64
		const queries = 200
		for i := 0; i < queries; i++ {
			v := int64(qz.Uint64())
			est := h.SelEq(val.NewInt(v)) * float64(n)
			truth := counts[v]
			q := stats.QError(est, truth)
			if i < 20 {
				firstQ += q / 20
			}
			if i >= queries-20 {
				lastQ += q / 20
			}
			if feedback {
				h.ObserveEq(val.NewInt(v), truth, float64(n))
			}
		}
		return firstQ, lastQ, h
	}

	fbFirst, fbLast, hFB := run(true)
	nfFirst, nfLast, _ := run(false)

	table := fmt.Sprintf(
		"phase            no-feedback q-err  feedback q-err\n"+
			"first 20 queries  %16.2f  %14.2f\n"+
			"last 20 queries   %16.2f  %14.2f\n"+
			"singleton buckets after feedback: %d (cap %d)\n",
		nfFirst, fbFirst, nfLast, fbLast, hFB.SingletonCount(), stats.MaxSingletons)
	return &Report{
		ID:    "E9",
		Title: "Self-managing statistics: q-error under execution feedback (§3)",
		Table: table,
		Metrics: map[string]float64{
			"qerr_feedback_last":   fbLast,
			"qerr_nofeedback_last": nfLast,
			"improvement":          nfLast / fbLast,
		},
	}, nil
}

// lruPool is the E13 baseline: strict LRU replacement.
type lruPool struct {
	cap          int
	order        []store.PageID
	set          map[store.PageID]bool
	hits, misses int
}

func newLRU(capacity int) *lruPool {
	return &lruPool{cap: capacity, set: map[store.PageID]bool{}}
}

func (l *lruPool) access(id store.PageID) {
	if l.set[id] {
		l.hits++
		for i, x := range l.order {
			if x == id {
				l.order = append(l.order[:i], l.order[i+1:]...)
				break
			}
		}
		l.order = append(l.order, id)
		return
	}
	l.misses++
	if len(l.order) >= l.cap {
		victim := l.order[0]
		l.order = l.order[1:]
		delete(l.set, victim)
	}
	l.order = append(l.order, id)
	l.set[id] = true
}

// E13Replacement compares the clock-with-scores pool against an LRU
// baseline on a mixed workload: a hot set re-referenced continuously while
// sequential scans stream past (§2.2).
func E13Replacement() (*Report, error) {
	const frames = 128
	st, err := store.Open(store.Options{})
	if err != nil {
		return nil, err
	}
	defer st.Close()
	pool := buffer.New(st, 8, frames, frames)
	reg := telemetry.NewRegistry()
	core.PublishKernels(reg, pool, nil, nil, nil, nil)

	// Materialize pages: 32 hot, 176 cold (the scan is ~1.4x the pool: big
	// enough to flush an LRU completely, small enough that a
	// frequency-aware policy can hold the hot set).
	var hot, cold []store.PageID
	for i := 0; i < 32; i++ {
		f, err := pool.NewPage(store.MainFile, page.TypeTable)
		if err != nil {
			return nil, err
		}
		hot = append(hot, f.ID)
		pool.Unpin(f, true)
	}
	for i := 0; i < 176; i++ {
		f, err := pool.NewPage(store.MainFile, page.TypeTable)
		if err != nil {
			return nil, err
		}
		cold = append(cold, f.ID)
		pool.Unpin(f, true)
	}
	pool.FlushAll()

	lru := newLRU(frames)
	statsBefore := pool.Stats()
	rng := rand.New(rand.NewSource(13))

	// Workload: interleave hot-set references with scan bursts.
	access := func(id store.PageID) error {
		f, err := pool.Get(id)
		if err != nil {
			return err
		}
		pool.Unpin(f, false)
		lru.access(id)
		return nil
	}
	for round := 0; round < 30; round++ {
		for i := 0; i < 256; i++ { // hot references
			if err := access(hot[rng.Intn(len(hot))]); err != nil {
				return nil, err
			}
		}
		for _, id := range cold { // one full scan
			if err := access(id); err != nil {
				return nil, err
			}
		}
	}
	// Temp-table churn exercises the lock-free lookaside queue: freed temp
	// pages are reusable immediately, without a clock sweep.
	for i := 0; i < 200; i++ {
		f, err := pool.NewPage(store.TempFile, page.TypeTemp)
		if err != nil {
			return nil, err
		}
		id := f.ID
		pool.Unpin(f, true)
		pool.Discard(id)
	}

	after := pool.Stats()
	clockHits := float64(after.Hits - statsBefore.Hits)
	clockMisses := float64(after.Misses - statsBefore.Misses)
	clockRate := clockHits / (clockHits + clockMisses)
	lruRate := float64(lru.hits) / float64(lru.hits+lru.misses)

	table := fmt.Sprintf(
		"policy                 hitRate\nclock+scores+lookaside  %6.3f\nstrict LRU              %6.3f\n"+
			"lookaside hits: %d\n",
		clockRate, lruRate, after.LookasideHits)
	return &Report{
		ID:    "E13",
		Title: "Page replacement: modified clock vs LRU on scan-polluted workload (§2.2)",
		Table: table,
		Metrics: map[string]float64{
			"clock_hit_rate": clockRate,
			"lru_hit_rate":   lruRate,
			"lookaside_hits": float64(after.LookasideHits),
		},
		Telemetry: sinceOpen(reg),
	}, nil
}

// E15IndexConsultant runs the Application Profiling pipeline end to end: a
// workload containing a client-side join, read back from the flight
// recorder's digest table, the flaw detector, and the Index Consultant's
// virtual-index evaluation (§5).
func E15IndexConsultant() (*Report, error) {
	r, err := openRig(core.Options{PoolInitPages: 1024, PoolMaxPages: 2048}, false)
	if err != nil {
		return nil, err
	}
	defer r.close()
	db, c := r.db, r.conn

	if err := r.exec("CREATE TABLE orders (oid INT, cust INT, amount DOUBLE)"); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(15))
	if err := r.load("orders", 8000, 400, func(i int) string {
		return fmt.Sprintf("(%d, %d, %d.0)", i, rng.Intn(400), i)
	}); err != nil {
		return nil, err
	}
	if _, err := c.Exec("CREATE STATISTICS orders"); err != nil {
		return nil, err
	}

	// The application's hot loop: one query per customer (client-side
	// join) probing an unindexed column.
	for i := 0; i < 25; i++ {
		if _, err := c.Query(fmt.Sprintf("SELECT amount FROM orders WHERE cust = %d", i)); err != nil {
			return nil, err
		}
	}

	digests := db.FlightRecorder().Digests().Snapshot()
	findings := profile.Analyze(digests)
	recs, err := profile.IndexConsultant(db, digests)
	if err != nil {
		return nil, err
	}

	var sb strings.Builder
	sb.WriteString("findings:\n")
	var sawCSJ float64
	for _, f := range findings {
		fmt.Fprintf(&sb, "  [%s] %s\n", f.Kind, f.Detail)
		if f.Kind == "client-side-join" {
			sawCSJ = 1
		}
	}
	sb.WriteString("index recommendations:\n")
	var bestBenefit float64
	for _, rec := range recs {
		fmt.Fprintf(&sb, "  CREATE INDEX ON %s (%s): est cost %.0f -> %.0f (%.0f%% better)\n",
			rec.Table, strings.Join(rec.Columns, ", "), rec.CostBefore, rec.CostAfter, rec.BenefitFrac*100)
		if rec.BenefitFrac > bestBenefit {
			bestBenefit = rec.BenefitFrac
		}
	}
	return &Report{
		ID:    "E15",
		Title: "Application Profiling: client-side join detection and Index Consultant (§5)",
		Table: sb.String(),
		Metrics: map[string]float64{
			"client_side_join": sawCSJ,
			"recommendations":  float64(len(recs)),
			"best_benefit":     bestBenefit,
		},
		Telemetry: sinceOpen(db.Telemetry()),
	}, nil
}
