package experiments

import (
	"fmt"
	"strings"

	"anywheredb/internal/buffer"
	"anywheredb/internal/exec"
	"anywheredb/internal/mem"
	"anywheredb/internal/store"
	"anywheredb/internal/table"
	"anywheredb/internal/val"
	"anywheredb/internal/vclock"
	"anywheredb/internal/workload"
)

// rawRig is a bare pool+store+clock for operator-level experiments.
type rawRig struct {
	clk  *vclock.Clock
	st   *store.Store
	pool *buffer.Pool
	ctx  *exec.Ctx
}

func newRawRig(frames int) (*rawRig, error) {
	clk := vclock.New()
	st, err := store.Open(store.Options{})
	if err != nil {
		return nil, err
	}
	pool := buffer.New(st, 8, frames, frames*2)
	return &rawRig{
		clk: clk, st: st, pool: pool,
		ctx: &exec.Ctx{Pool: pool, St: st, Clk: clk, CPURowCost: 1},
	}, nil
}

func (r *rawRig) close() { r.st.Close() }

func (r *rawRig) table(name string, id uint64, n int, specs []workload.ColSpec, seed int64) (*table.Table, error) {
	cols := make([]table.Column, len(specs))
	for i, s := range specs {
		cols[i] = table.Column{Name: s.Name, Kind: s.Kind}
	}
	tbl, err := table.Create(r.pool, r.st, store.MainFile, id, name, cols)
	if err != nil {
		return nil, err
	}
	if err := workload.Fill(tbl, specs, n, seed); err != nil {
		return nil, err
	}
	if err := tbl.RebuildStatistics(); err != nil {
		return nil, err
	}
	return tbl, nil
}

// E10AdaptiveHashJoin sweeps the true build cardinality while the
// optimizer's estimate stays wrong, comparing the adaptive operator
// (hash→INL switch, §4.3) against static hash join and static INL.
func E10AdaptiveHashJoin() (*Report, error) {
	r, err := newRawRig(2048)
	if err != nil {
		return nil, err
	}
	defer r.close()

	inner, err := r.table("inner", 1, 20000, []workload.ColSpec{
		{Name: "k", Kind: val.KInt, Gen: workload.IntSeq()},
		{Name: "v", Kind: val.KInt, Gen: workload.IntUniform(1000)},
	}, 10)
	if err != nil {
		return nil, err
	}
	ix, err := inner.AddIndex(2, "inner_k", []int{0}, true)
	if err != nil {
		return nil, err
	}

	mkBuild := func(n int) []exec.Row {
		rows := make([]exec.Row, n)
		for i := range rows {
			rows[i] = exec.Row{val.NewInt(int64(i * 7 % 20000))}
		}
		return rows
	}
	measure := func(op exec.Operator) (int64, int, error) {
		start := r.clk.Now()
		rows, err := exec.Drain(r.ctx, op)
		if err != nil {
			return 0, 0, err
		}
		return r.clk.Now() - start, len(rows), nil
	}

	var sb strings.Builder
	sb.WriteString("buildRows  adaptiveµs  mode  staticHashµs  staticINLµs\n")
	var crossoverSeen, stayedHashLarge bool
	for _, n := range []int{2, 10, 100, 1000, 10000} {
		threshold := int64(500)
		adaptive := &exec.HashJoin{
			Left:     &exec.Materialized{RowsData: mkBuild(n)},
			Right:    &exec.TableScan{Table: inner},
			LeftKeys: []exec.Expr{exec.Col{Idx: 0}}, RightKeys: []exec.Expr{exec.Col{Idx: 0}},
			Alt:             &exec.IndexAlt{Table: inner, Index: ix},
			INLMaxBuildRows: threshold,
		}
		tAdapt, _, err := measure(adaptive)
		if err != nil {
			return nil, err
		}
		static := &exec.HashJoin{
			Left:     &exec.Materialized{RowsData: mkBuild(n)},
			Right:    &exec.TableScan{Table: inner},
			LeftKeys: []exec.Expr{exec.Col{Idx: 0}}, RightKeys: []exec.Expr{exec.Col{Idx: 0}},
		}
		tHash, _, err := measure(static)
		if err != nil {
			return nil, err
		}
		inl := &exec.IndexNLJoin{
			Left:     &exec.Materialized{RowsData: mkBuild(n)},
			LeftKeys: []exec.Expr{exec.Col{Idx: 0}},
			Table:    inner, Index: ix,
		}
		tINL, _, err := measure(inl)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(&sb, "%9d  %10d  %4s  %12d  %11d\n", n, tAdapt, adaptive.Mode(), tHash, tINL)
		if adaptive.Mode() == "inl" {
			crossoverSeen = true
		}
		if n == 10000 && adaptive.Mode() == "hash" {
			stayedHashLarge = true
		}
	}
	return &Report{
		ID:    "E10",
		Title: "Adaptive hash join: post-build switch to index nested loops (§4.3)",
		Table: sb.String(),
		Metrics: map[string]float64{
			"switched_small":    b2f(crossoverSeen),
			"stayed_hash_large": b2f(stayedHashLarge),
		},
	}, nil
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// E11LowMemory drives a hash join, a hash group-by and a sort under a
// shrinking soft limit. Nothing but the governor tells the operators how
// much they may hold: the join evicts its largest partitions, the group-by
// falls back to its temp-table structure, the sort writes runs, each
// statement's peak stays near its soft limit, and results stay correct.
func E11LowMemory() (*Report, error) {
	r, err := newRawRig(2048)
	if err != nil {
		return nil, err
	}
	defer r.close()

	mkRows := func(n, dom int) []exec.Row {
		rows := make([]exec.Row, n)
		for i := range rows {
			rows[i] = exec.Row{val.NewInt(int64(i * 7919 % dom)), val.NewInt(int64(i))}
		}
		return rows
	}
	const joinL, joinR, joinDom = 4000, 2000, 1000
	const gbRows, gbGroups = 24000, 6000
	const sortRows = 20000

	var sb strings.Builder
	sb.WriteString("softLimitPages  joinSpills  joinRows  joinPeak  gbFallback  groups  gbPeak  sortRuns  sortRows  sortPeak\n")
	var spillsAtTightest float64
	correct := 1.0
	for _, soft := range []int{256, 16, 4} {
		gov := mem.NewGovernor(func() int { return 100000 }, func() int { return soft * 4 }, 4)
		// Each operator runs as a statement of its own: Task.PeakPages is
		// then that operator's high-water mark against the soft limit.
		run := func(op exec.Operator) (rows []exec.Row, peak int, err error) {
			task := gov.Begin(new(mem.Task))
			defer task.Finish()
			ctx := *r.ctx
			ctx.Task = task
			rows, err = exec.Drain(&ctx, op)
			if err == nil && task.UsedPages() != 0 {
				err = fmt.Errorf("E11: %d pages still charged after %T", task.UsedPages(), op)
			}
			return rows, task.PeakPages(), err
		}

		join := &exec.HashJoin{
			Left:     &exec.Materialized{RowsData: mkRows(joinL, joinDom)},
			Right:    &exec.Materialized{RowsData: mkRows(joinR, joinDom)},
			LeftKeys: []exec.Expr{exec.Col{Idx: 0}}, RightKeys: []exec.Expr{exec.Col{Idx: 0}},
		}
		jr, joinPeak, err := run(join)
		if err != nil {
			return nil, err
		}
		gb := &exec.HashGroupBy{
			Input: &exec.Materialized{RowsData: mkRows(gbRows, gbGroups)},
			Keys:  []exec.Expr{exec.Col{Idx: 0}},
			Aggs:  []exec.AggSpec{{Fn: exec.AggCountStar}},
		}
		gr, gbPeak, err := run(gb)
		if err != nil {
			return nil, err
		}
		srt := &exec.Sort{
			Input: &exec.Materialized{RowsData: mkRows(sortRows, sortRows)},
			Keys:  []exec.SortKey{{Expr: exec.Col{Idx: 0}}},
		}
		sr, sortPeak, err := run(srt)
		if err != nil {
			return nil, err
		}

		fmt.Fprintf(&sb, "%14d  %10d  %8d  %8d  %10v  %6d  %6d  %8d  %8d  %8d\n",
			soft, join.SpilledPartitions(), len(jr), joinPeak, gb.FellBack(), len(gr), gbPeak,
			srt.RunsWritten(), len(sr), sortPeak)
		if soft == 4 {
			spillsAtTightest = float64(join.SpilledPartitions())
		}
		ordered := len(sr) == sortRows
		for i := range sr {
			ordered = ordered && sr[i][0].I == int64(i)
		}
		if len(jr) != joinL*joinR/joinDom || len(gr) != gbGroups || !ordered {
			correct = 0
		}
	}
	return &Report{
		ID:    "E11",
		Title: "Memory governor: largest-partition eviction, low-memory fallback and external sort (§4.3)",
		Table: sb.String(),
		Metrics: map[string]float64{
			"spills_at_4_pages": spillsAtTightest,
			"results_correct":   correct,
		},
	}, nil
}
