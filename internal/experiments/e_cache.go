package experiments

import (
	"fmt"
	"math"
	"strings"

	"anywheredb/internal/buffer"
	"anywheredb/internal/cachegov"
	"anywheredb/internal/core"
	"anywheredb/internal/osenv"
	"anywheredb/internal/page"
	"anywheredb/internal/store"
	"anywheredb/internal/telemetry"
	"anywheredb/internal/vclock"
	"anywheredb/internal/workload"
)

// cacheRig wires a real buffer pool, a simulated machine, and the feedback
// controller for the Figure 1 experiments.
type cacheRig struct {
	clk     *vclock.Clock
	st      *store.Store
	pool    *buffer.Pool
	machine *osenv.Machine
	gov     *cachegov.Governor
	reg     *telemetry.Registry
	dbSize  int64
	pages   []store.PageID
	cursor  int
}

func newCacheRig(totalRAM int64, minP, initP, maxP int, ce, noDamping bool) (*cacheRig, error) {
	clk := vclock.New()
	st, err := store.Open(store.Options{})
	if err != nil {
		return nil, err
	}
	r := &cacheRig{clk: clk, st: st, dbSize: 1 << 30}
	r.pool = buffer.New(st, minP, initP, maxP)
	r.machine = osenv.New(clk, totalRAM, func() int64 {
		return int64(r.pool.SizePages()) * page.Size
	})
	r.machine.SetDBExtra(8 << 20)
	r.gov = cachegov.New(cachegov.Config{
		Clock:     clk,
		MinBytes:  int64(minP) * page.Size,
		MaxBytes:  int64(maxP) * page.Size,
		CEMode:    ce,
		NoDamping: noDamping,
	}, cachegov.Inputs{
		WorkingSet: r.machine.WorkingSet,
		FreeMemory: r.machine.FreeMemory,
		DBSize:     func() int64 { return r.dbSize },
		HeapBytes:  func() int64 { return 1 << 20 },
		PoolBytes:  func() int64 { return int64(r.pool.SizePages()) * page.Size },
		Misses:     func() uint64 { return r.pool.Stats().Misses },
		Resize: func(target int64) int64 {
			return int64(r.pool.Resize(int(target/page.Size))) * page.Size
		},
	})
	r.reg = telemetry.NewRegistry()
	core.PublishKernels(r.reg, r.pool, nil, nil, nil, r.gov)
	return r, nil
}

// churn generates buffer misses (database activity between polls): it
// grows a set of table pages and cycles reads over them, so a pool smaller
// than the working set keeps missing — which is what licenses growth.
func (r *cacheRig) churn(n int) {
	for i := 0; i < n; i++ {
		f, err := r.pool.NewPage(store.MainFile, page.TypeTable)
		if err != nil {
			return
		}
		r.pages = append(r.pages, f.ID)
		r.pool.Unpin(f, true)
	}
	for i := 0; i < 4*n && len(r.pages) > 0; i++ {
		r.cursor = (r.cursor + 1) % len(r.pages)
		f, err := r.pool.Get(r.pages[r.cursor])
		if err != nil {
			return
		}
		r.pool.Unpin(f, false)
	}
}

// E1CacheGovernor reproduces Figure 1's behaviour: the pool tracks
// (working set + free memory − reserve) through a memory-pressure trace,
// shrinking under pressure and re-growing afterwards.
func E1CacheGovernor() (*Report, error) {
	r, err := newCacheRig(512<<20, 64, 256, 32768, false, false)
	if err != nil {
		return nil, err
	}
	defer r.st.Close()

	r.machine.LoadTrace(workload.PressureTrace("app", 10*vclock.Minute, 20*vclock.Minute, 400<<20, 2))

	var sb strings.Builder
	sb.WriteString("minute  workingSetMB  freeMB  poolMB  reason\n")
	var poolAtPeakPressure, poolFree float64
	for minute := 0; minute <= 50; minute++ {
		r.machine.Tick()
		r.churn(64)
		d := r.gov.Poll()
		poolMB := float64(d.Applied) / (1 << 20)
		fmt.Fprintf(&sb, "%6d  %12.1f  %6.1f  %6.1f  %s\n",
			minute, float64(d.WorkingSet)/(1<<20), float64(d.Free)/(1<<20), poolMB, d.Reason)
		if minute == 16 { // mid-pressure (trace peaks at minute 15)
			poolAtPeakPressure = poolMB
		}
		if minute == 9 { // before any pressure
			poolFree = poolMB
		}
		r.clk.Advance(vclock.Minute)
	}
	finalMB := float64(r.pool.SizePages()) * page.Size / (1 << 20)
	return &Report{
		ID:    "E1",
		Title: "Cache sizing feedback control under memory pressure (Fig. 1)",
		Table: sb.String(),
		Metrics: map[string]float64{
			"pool_mb_unpressured": poolFree,
			"pool_mb_pressured":   poolAtPeakPressure,
			"pool_mb_final":       finalMB,
		},
		Telemetry: sinceOpen(r.reg),
	}, nil
}

// E7DampingAblation ablates the Eq. 2 damping at the control-law level:
// a synthetic pool actuator follows the controller exactly while the
// external load alternates, and the mean per-poll pool movement is
// measured for several damping weights. (The law itself is under test; the
// real pool merely quantizes its output.)
func E7DampingAblation() (*Report, error) {
	run := func(damping float64, noDamping bool) float64 {
		clk := vclock.New()
		var pool int64 = 32 << 20
		const overhead = 8 << 20
		const ram = 512 << 20
		var external int64
		misses := uint64(0)
		gov := cachegov.New(cachegov.Config{
			Clock:     clk,
			MinBytes:  1 << 20,
			MaxBytes:  1 << 30,
			Damping:   damping,
			NoDamping: noDamping,
		}, cachegov.Inputs{
			WorkingSet: func() int64 {
				ws := pool + overhead
				if lim := ram - external; ws > lim {
					ws = lim
				}
				return ws
			},
			FreeMemory: func() int64 {
				free := ram - pool - overhead - external
				if free < 0 {
					free = 0
				}
				return free
			},
			DBSize:    func() int64 { return 1 << 30 },
			HeapBytes: func() int64 { return 1 << 20 },
			PoolBytes: func() int64 { return pool },
			Misses:    func() uint64 { return misses },
			Resize:    func(t int64) int64 { pool = t; return pool },
		})
		var sizes []float64
		for minute := 0; minute < 40; minute++ {
			if minute%2 == 0 {
				external = 300 << 20
			} else {
				external = 0
			}
			misses += 10
			d := gov.Poll()
			sizes = append(sizes, float64(d.Applied)/(1<<20))
			clk.Advance(vclock.Minute)
		}
		var osc float64
		for i := 1; i < len(sizes); i++ {
			osc += math.Abs(sizes[i] - sizes[i-1])
		}
		return osc / float64(len(sizes)-1)
	}
	type row struct {
		label string
		osc   float64
	}
	undamped, paper, heavy := run(0, true), run(0.9, false), run(0.5, false)
	rows := []row{
		{"no damping (ideal only)", undamped},
		{"damping 0.9 (Eq. 2)", paper},
		{"damping 0.5", heavy},
	}

	var sb strings.Builder
	sb.WriteString("configuration             mean |\u0394pool| MB/poll\n")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-25s  %8.2f\n", r.label, r.osc)
	}
	return &Report{
		ID:    "E7",
		Title: "Damping ablation (Eq. 2) under a square-wave external load",
		Table: sb.String(),
		Metrics: map[string]float64{
			"osc_undamped_mb": undamped,
			"osc_damped09_mb": paper,
			"osc_damped05_mb": heavy,
			"reduction":       undamped / math.Max(paper, 1e-9),
		},
	}, nil
}

// E16CEMode exercises the Windows CE variant: no working-set input; the
// pool grows only when free memory increases and shrinks when other
// applications allocate.
func E16CEMode() (*Report, error) {
	r, err := newCacheRig(64<<20, 32, 256, 8192, true, false)
	if err != nil {
		return nil, err
	}
	defer r.st.Close()

	var sb strings.Builder
	sb.WriteString("step  externalMB  freeMB  poolMB  reason\n")
	record := func(step int, d cachegov.Decision) {
		fmt.Fprintf(&sb, "%4d  %10.1f  %6.1f  %6.1f  %s\n",
			step, float64(r.machine.ExternalBytes())/(1<<20),
			float64(d.Free)/(1<<20), float64(d.Applied)/(1<<20), d.Reason)
	}
	// Phase 1: plenty of free memory → growth (the churn working set
	// quickly exceeds the pool, so misses license growth).
	var d cachegov.Decision
	for i := 0; i < 5; i++ {
		r.churn(400)
		d = r.gov.Poll()
		record(i, d)
		r.clk.Advance(vclock.Minute)
	}
	grown := float64(d.Applied) / (1 << 20)
	// Phase 2: another application allocates heavily → shrink.
	r.machine.SetExternal("other", 48<<20)
	for i := 5; i < 10; i++ {
		r.churn(400)
		d = r.gov.Poll()
		record(i, d)
		r.clk.Advance(vclock.Minute)
	}
	shrunk := float64(d.Applied) / (1 << 20)
	return &Report{
		ID:    "E16",
		Title: "CE-mode governor: grow on free memory, shrink on external allocation",
		Table: sb.String(),
		Metrics: map[string]float64{
			"pool_mb_grown":  grown,
			"pool_mb_shrunk": shrunk,
		},
		Telemetry: sinceOpen(r.reg),
	}, nil
}
