package experiments

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"time"

	"anywheredb/internal/buffer"
	"anywheredb/internal/page"
	"anywheredb/internal/store"
)

// poolThroughput runs g goroutines, each performing opsPerG Get/Unpin
// cycles over ids with a per-goroutine stride, against a pool with the
// given shard count and frame budget, and reports aggregate operations per
// second (wall clock) plus the pool's contention counter movement.
func poolThroughput(shards, frames, npages, g, opsPerG int) (opsPerSec float64, contention uint64, err error) {
	st, err := store.Open(store.Options{})
	if err != nil {
		return 0, 0, err
	}
	defer st.Close()
	p := buffer.NewWithShards(st, frames, frames, frames, shards)
	ids := make([]store.PageID, npages)
	for i := range ids {
		f, err := p.NewPage(store.MainFile, page.TypeTable)
		if err != nil {
			return 0, 0, err
		}
		ids[i] = f.ID
		p.Unpin(f, true)
	}
	// Warm: one pass so the hit-heavy configuration starts fully resident.
	for _, id := range ids {
		f, err := p.Get(id)
		if err != nil {
			return 0, 0, err
		}
		p.Unpin(f, false)
	}
	before := p.Stats().Contention

	var wg sync.WaitGroup
	errs := make([]error, g)
	start := time.Now()
	for w := 0; w < g; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			i := w * 7919 // co-prime stride start: goroutines spread over ids
			for n := 0; n < opsPerG; n++ {
				f, err := p.Get(ids[i%len(ids)])
				if err != nil {
					errs[w] = err
					return
				}
				p.Unpin(f, false)
				i++
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)
	for _, e := range errs {
		if e != nil {
			return 0, 0, e
		}
	}
	ops := float64(g * opsPerG)
	return ops / elapsed.Seconds(), p.Stats().Contention - before, nil
}

// E17PoolScalability measures buffer-pool Get/Unpin throughput as the
// goroutine count scales, comparing the striped pool (16 shards) against a
// single-shard configuration equivalent to a global-mutex pool. Hit-heavy
// keeps the working set resident (pure latch-path cost); miss-heavy forces
// eviction and store I/O on most accesses (the store's own lock then bounds
// scaling). Wall-clock speedup is bounded by physical cores; host_cores is
// recorded so results are interpretable.
func E17PoolScalability() (*Report, error) {
	const (
		hitFrames  = 512
		hitPages   = 256
		missFrames = 64
		missPages  = 512
		opsPerG    = 8000
		sharded    = 16
	)
	type cfg struct {
		name           string
		frames, npages int
	}
	modes := []cfg{
		{"hit-heavy", hitFrames, hitPages},
		{"miss-heavy", missFrames, missPages},
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "host cores: %d (speedup is bounded by physical parallelism)\n", runtime.NumCPU())
	sb.WriteString("workload    goroutines  1-shard ops/s  16-shard ops/s  sharded/global  contention(16sh)\n")

	metricsOut := map[string]float64{
		"host_cores": float64(runtime.NumCPU()),
		"shards":     sharded,
	}
	for _, m := range modes {
		for _, g := range []int{1, 4, 16} {
			single, _, err := poolThroughput(1, m.frames, m.npages, g, opsPerG)
			if err != nil {
				return nil, err
			}
			striped, cont, err := poolThroughput(sharded, m.frames, m.npages, g, opsPerG)
			if err != nil {
				return nil, err
			}
			fmt.Fprintf(&sb, "%-10s  %10d  %13.0f  %14.0f  %14.2f  %16d\n",
				m.name, g, single, striped, striped/single, cont)
			key := strings.ReplaceAll(m.name, "-", "_")
			metricsOut[fmt.Sprintf("%s_speedup_%dg", key, g)] = striped / single
			if g == 1 {
				// Sequential overhead of striping: >1 means the sharded pool
				// is slower single-threaded (acceptance: ≤ 1.10).
				metricsOut[fmt.Sprintf("%s_seq_overhead_x", key)] = single / striped
			}
			if g == 16 {
				metricsOut[fmt.Sprintf("%s_tput_sharded_16g", key)] = striped
				metricsOut[fmt.Sprintf("%s_tput_global_16g", key)] = single
			}
		}
	}
	return &Report{
		ID:      "E17",
		Title:   "Sharded buffer pool scalability: striped vs global-lock Get throughput",
		Table:   sb.String(),
		Metrics: metricsOut,
	}, nil
}
