package experiments

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"anywheredb/internal/buffer"
	"anywheredb/internal/page"
	"anywheredb/internal/store"
)

// poolThroughput runs g goroutines, each performing opsPerG Get/Unpin
// cycles over ids with a per-goroutine stride, against a default-striped
// pool of the given frame budget, and reports aggregate operations per
// second (wall clock) plus the pool's contention counter movement.
func poolThroughput(frames, npages, g, opsPerG int) (opsPerSec float64, contention uint64, err error) {
	st, err := store.Open(store.Options{})
	if err != nil {
		return 0, 0, err
	}
	defer st.Close()
	p := buffer.New(st, frames, frames, frames)
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

	start := time.Now()
	err = drive(g, nil, func(w int, _ func() bool) error {
		i := w * 7919 // co-prime stride start: goroutines spread over ids
		for n := 0; n < opsPerG; n++ {
			f, err := p.Get(ids[i%len(ids)])
			if err != nil {
				return err
			}
			p.Unpin(f, false)
			i++
		}
		return nil
	})
	elapsed := time.Since(start)
	if err != nil {
		return 0, 0, err
	}
	ops := float64(g * opsPerG)
	return ops / elapsed.Seconds(), p.Stats().Contention - before, nil
}

// E17PoolScalability measures buffer-pool Get/Unpin throughput as the
// goroutine count scales on the striped pool (nextPow2(GOMAXPROCS)
// shards). Hit-heavy keeps the working set resident (pure latch-path
// cost); miss-heavy forces eviction and store I/O on most accesses (the
// store's own lock then bounds scaling). Wall-clock speedup is bounded by
// physical cores; host_cores is recorded so results are interpretable. The
// single-shard global-mutex arm is a recorded result (EXPERIMENTS.md).
func E17PoolScalability() (*Report, error) {
	const (
		hitFrames  = 512
		hitPages   = 256
		missFrames = 64
		missPages  = 512
		opsPerG    = 8000
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
	sb.WriteString("workload    goroutines         ops/s  vs 1 goroutine  contention\n")

	metricsOut := map[string]float64{
		"host_cores": float64(runtime.NumCPU()),
	}
	for _, m := range modes {
		key := strings.ReplaceAll(m.name, "-", "_")
		var first float64
		for _, g := range []int{1, 4, 16} {
			tput, cont, err := poolThroughput(m.frames, m.npages, g, opsPerG)
			if err != nil {
				return nil, err
			}
			if g == 1 {
				first = tput
			}
			fmt.Fprintf(&sb, "%-10s  %10d  %12.0f  %14.2f  %10d\n",
				m.name, g, tput, tput/first, cont)
			metricsOut[fmt.Sprintf("%s_tput_%dg", key, g)] = tput
			metricsOut[fmt.Sprintf("%s_scaling_%dg", key, g)] = tput / first
		}
	}
	return &Report{
		ID:      "E17",
		Title:   "Sharded buffer pool scalability: striped-pool Get throughput by goroutine count",
		Table:   sb.String(),
		Metrics: metricsOut,
	}, nil
}
