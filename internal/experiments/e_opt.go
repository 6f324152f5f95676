package experiments

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"

	"anywheredb/internal/core"
	"anywheredb/internal/device"
	"anywheredb/internal/exec"
	"anywheredb/internal/flightrec"
	"anywheredb/internal/mem"
	"anywheredb/internal/opt"
	"anywheredb/internal/sqlparse"
	"anywheredb/internal/vclock"
)

// openHDDRig opens an in-memory engine over a simulated HDD so virtual I/O
// time is measurable.
func openHDDRig(poolPages int) (*rig, error) {
	clk := vclock.New()
	return openRig(core.Options{
		Clock:         clk,
		Device:        device.NewHDD(device.Barracuda7200(), clk),
		PoolMinPages:  16,
		PoolInitPages: poolPages,
		PoolMaxPages:  poolPages,
		CPURowCost:    1,
	}, false)
}

// seedChain creates tables prefix0, prefix1, … (k INT, v INT), fills the
// i-th with sizes[i] rows rendered by row, gathers its statistics when
// stats is set, and returns the COUNT(*) query joining the tables in a
// chain on k.
func seedChain(r *rig, prefix string, sizes []int, stats bool, row func(j int) string) (string, error) {
	var from, where []string
	for i, n := range sizes {
		t := fmt.Sprintf("%s%d", prefix, i)
		if err := r.exec(fmt.Sprintf("CREATE TABLE %s (k INT, v INT)", t)); err != nil {
			return "", err
		}
		if err := r.load(t, n, 400, row); err != nil {
			return "", err
		}
		if stats {
			if err := r.exec("CREATE STATISTICS " + t); err != nil {
				return "", err
			}
		}
		if i > 0 {
			where = append(where, fmt.Sprintf("%s.k = %s.k", from[i-1], t))
		}
		from = append(from, t)
	}
	return "SELECT COUNT(*) FROM " + strings.Join(from, ", ") + " WHERE " + strings.Join(where, " AND "), nil
}

// E5RankPreservation measures the Eq. 3 property: over random plan pairs
// for the same query, does the estimated-cost ordering match the actual
// (virtual-time) ordering? The paper's cost model aims at rank
// preservation, not absolute accuracy.
func E5RankPreservation() (*Report, error) {
	r, err := openHDDRig(512)
	if err != nil {
		return nil, err
	}
	defer r.close()
	db := r.db

	// Schema: three joined tables with varied sizes and an index.
	if err := r.exec(
		"CREATE TABLE r (k INT, a INT)",
		"CREATE TABLE s (k INT, b INT)",
		"CREATE TABLE u (k INT, c INT)",
	); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(5))
	for _, t := range []struct {
		name string
		n    int
	}{{"r", 4000}, {"s", 800}, {"u", 150}} {
		if err := r.load(t.name, t.n, 400, func(i int) string {
			return fmt.Sprintf("(%d, %d)", rng.Intn(500), i)
		}); err != nil {
			return nil, err
		}
	}
	if err := r.exec(
		"CREATE STATISTICS r", "CREATE STATISTICS s", "CREATE STATISTICS u",
		"CREATE INDEX r_k ON r (k)", "CREATE INDEX s_k ON s (k)",
	); err != nil {
		return nil, err
	}

	// Enumerate several alternative plans for one query by forcing
	// different join orders, and measure estimated vs actual cost.
	sqlText := "SELECT COUNT(*) FROM r, s, u WHERE r.k = s.k AND s.k = u.k"
	stmt := db.Prepare(sqlText)
	if stmt.Err != nil {
		return nil, stmt.Err
	}
	sel := stmt.AST.(*sqlparse.Select)

	env := &opt.Env{DTT: db.DTTModel(), PoolPages: db.Pool().SizePages, CPURowCostUS: 1}
	// Bad plans build enormous intermediate results; the memory governor's
	// task lets their hash tables spill instead of exhausting the pool.
	task := db.MemGovernor().Begin(new(mem.Task))
	defer task.Finish()
	ctx := &exec.Ctx{Pool: db.Pool(), St: db.Store(), Clk: db.Clock(), CPURowCost: 1, Task: task}
	benv := &opt.BuildEnv{Env: env, Res: db, Ctx: ctx}

	q, err := opt.Bind(sel, db, nil, nil)
	if err != nil {
		return nil, err
	}

	// Candidate orders: permutations of the three quantifiers with scan
	// first and hash joins after (plus INL variants via fresh enumeration).
	perms := [][]int{{0, 1, 2}, {0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0}}
	// Connectivity (r-s, s-u): a placement not joined to the prefix must
	// use nested loops (a deferred-too-late Cartesian product — exactly
	// the grossly inefficient strategy the cost model must rank last).
	connected := func(placed []int, qi int) bool {
		for _, p := range placed {
			if (p == 1 && qi != 1) || (qi == 1 && p != 1) {
				return true
			}
		}
		return false
	}
	type measured struct {
		name     string
		est, act float64
	}
	var plans []measured
	for _, p := range perms {
		order := []opt.Step{{Quant: p[0], Method: opt.MethodScan}}
		placed := []int{p[0]}
		for _, qi := range p[1:] {
			m := opt.MethodHash
			if !connected(placed, qi) {
				m = opt.MethodNLJ
			}
			order = append(order, opt.Step{Quant: qi, Method: m})
			placed = append(placed, qi)
		}
		// Estimated cost via the cost model.
		est := opt.CostOfOrder(q, order, env)
		plan, err := opt.BuildWithOrder(sel, benv, order)
		if err != nil {
			return nil, err
		}
		start := db.Clock().Now()
		if _, err := exec.Drain(ctx, plan.Root); err != nil {
			return nil, err
		}
		act := float64(db.Clock().Now() - start)
		plans = append(plans, measured{fmt.Sprintf("%v", p), est, act})
	}

	// Concordance: fraction of pairs ordered identically by est and act.
	// Decisive pairs (estimated costs ≥4x apart) are the ones that matter:
	// the stated objective is pruning grossly inefficient strategies, not
	// absolute accuracy (§4.2).
	agree, total := 0, 0
	decAgree, decTotal := 0, 0
	for i := 0; i < len(plans); i++ {
		for j := i + 1; j < len(plans); j++ {
			total++
			same := (plans[i].est < plans[j].est) == (plans[i].act < plans[j].act)
			if same {
				agree++
			}
			hi, lo := plans[i].est, plans[j].est
			if hi < lo {
				hi, lo = lo, hi
			}
			if lo > 0 && hi/lo >= 4 {
				decTotal++
				if same {
					decAgree++
				}
			}
		}
	}
	var sb strings.Builder
	sb.WriteString("order      estCostµs    actualµs\n")
	for _, p := range plans {
		fmt.Fprintf(&sb, "%-9s  %10.0f  %10.0f\n", p.name, p.est, p.act)
	}
	conc := float64(agree) / float64(total)
	decConc := 1.0
	if decTotal > 0 {
		decConc = float64(decAgree) / float64(decTotal)
	}
	fmt.Fprintf(&sb, "pairwise concordance: %d/%d = %.2f\n", agree, total, conc)
	fmt.Fprintf(&sb, "decisive pairs (est ≥4x apart): %d/%d = %.2f\n", decAgree, decTotal, decConc)
	return &Report{
		ID:        "E5",
		Title:     "Cost model rank preservation (Eq. 3)",
		Table:     sb.String(),
		Metrics:   map[string]float64{"concordance": conc, "decisive_concordance": decConc},
		Telemetry: sinceOpen(db.Telemetry()),
	}, nil
}

// E6HundredWayJoin reproduces the claim that a 100-way join can be
// optimized and executed in a ~3 MB buffer pool with ~1 MB of optimizer
// memory: the enumerator is depth-first so its state is the current path.
func E6HundredWayJoin() (*Report, error) {
	// 3 MB pool = 768 pages of 4 KB.
	r, err := openHDDRig(768)
	if err != nil {
		return nil, err
	}
	defer r.close()
	db, c := r.db, r.conn

	const n = 100
	query, err := seedChain(r, "t", slices.Repeat([]int{3}, n), false, func(j int) string {
		return fmt.Sprintf("(%d, %d)", j, j)
	})
	if err != nil {
		return nil, err
	}
	rows, err := c.Query(query)
	if err != nil {
		return nil, err
	}
	plan := rows.Plan()
	var visits, approxBytes float64
	if plan != nil && plan.Enum != nil {
		visits = float64(plan.Enum.Visits)
		approxBytes = float64(plan.Enum.BytesApprox)
	}
	table := fmt.Sprintf(
		"quantifiers: %d\nresult count: %d (want 3)\noptimizer visits: %.0f\n"+
			"enumerator state (approx bytes): %.0f (paper: ~1 MB on a PDA)\npool pages: %d (3 MB)\n",
		n, rows.All()[0][0].I, visits, approxBytes, db.Pool().SizePages())
	return &Report{
		ID:    "E6",
		Title: "100-way join in a 3 MB buffer pool (§4.1 claim)",
		Table: table,
		Metrics: map[string]float64{
			"count":        float64(rows.All()[0][0].I),
			"visits":       visits,
			"approx_bytes": approxBytes,
		},
		Telemetry: sinceOpen(db.Telemetry()),
	}, nil
}

// E8GovernorQuota sweeps the optimizer governor's quota and compares plan
// quality and search effort, including the no-redistribution and
// no-pruning ablations.
func E8GovernorQuota() (*Report, error) {
	r, err := openHDDRig(1024)
	if err != nil {
		return nil, err
	}
	defer r.close()
	db := r.db

	// A 7-table chain with skewed sizes so order matters.
	rng := rand.New(rand.NewSource(8))
	sizes := []int{2000, 100, 1500, 50, 800, 400, 1200}
	query, err := seedChain(r, "c", sizes, true, func(j int) string {
		return fmt.Sprintf("(%d, %d)", rng.Intn(100), j)
	})
	if err != nil {
		return nil, err
	}
	sel := db.Prepare(query).AST.(*sqlparse.Select)
	ctx := &exec.Ctx{Pool: db.Pool(), St: db.Store(), Clk: db.Clock()}

	type row struct {
		label  string
		visits int
		cost   float64
	}
	var rowsOut []row
	run := func(label string, quota int, disableGov, disablePrune, noRedist bool) error {
		env := &opt.Env{
			DTT: db.DTTModel(), PoolPages: db.Pool().SizePages, CPURowCostUS: 1,
			Quota: quota, DisableGovernor: disableGov, DisablePruning: disablePrune,
			NoRedistribution: noRedist,
		}
		benv := &opt.BuildEnv{Env: env, Res: db, Ctx: ctx}
		plan, err := opt.Build(sel, benv)
		if err != nil {
			return err
		}
		rowsOut = append(rowsOut, row{label, plan.Enum.Visits, plan.Enum.Cost})
		return nil
	}
	for _, quota := range []int{50, 200, 1000, 4000} {
		if err := run(fmt.Sprintf("quota=%d", quota), quota, false, false, false); err != nil {
			return nil, err
		}
	}
	if err := run("quota=1000,no-redistribution", 1000, false, false, true); err != nil {
		return nil, err
	}
	if err := run("exhaustive(B&B)", 0, true, false, false); err != nil {
		return nil, err
	}
	if err := run("exhaustive,no-pruning", 0, true, true, false); err != nil {
		return nil, err
	}

	var sb strings.Builder
	sb.WriteString("configuration                visits   bestPlanCostµs\n")
	for _, ro := range rowsOut {
		fmt.Fprintf(&sb, "%-27s  %7d  %14.0f\n", ro.label, ro.visits, ro.cost)
	}
	exhaustCost := rowsOut[len(rowsOut)-2].cost
	quota1000Cost := rowsOut[2].cost
	return &Report{
		ID:    "E8",
		Title: "Optimizer governor: plan quality vs search quota (§4.1)",
		Table: sb.String(),
		Metrics: map[string]float64{
			"exhaustive_visits": float64(rowsOut[len(rowsOut)-2].visits),
			"nopruning_visits":  float64(rowsOut[len(rowsOut)-1].visits),
			"quota1000_ratio":   quota1000Cost / exhaustCost,
		},
		Telemetry: sinceOpen(db.Telemetry()),
	}, nil
}

// E14PlanCache measures repeated-statement throughput with the training-
// period plan cache against always-reoptimizing, and demonstrates staleness
// detection after the data shifts.
func E14PlanCache() (*Report, error) {
	r, err := openHDDRig(1024)
	if err != nil {
		return nil, err
	}
	defer r.close()
	db, c := r.db, r.conn
	if err := r.exec("CREATE TABLE p (k INT, v INT)", "CREATE TABLE qq (k INT, w INT)"); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(14))
	row := func(i int) string { return fmt.Sprintf("(%d, %d)", rng.Intn(200), i) }
	if err := r.load("p", 2000, 400, row); err != nil {
		return nil, err
	}
	if err := r.load("qq", 500, 400, row); err != nil {
		return nil, err
	}
	c.Exec("CREATE STATISTICS p")
	c.Exec("CREATE STATISTICS qq")

	query := "SELECT COUNT(*) FROM p, qq WHERE p.k = qq.k AND p.v > 100"
	const reps = 60

	// Cached run (the statement's plan slot engages after training).
	var visitsCached int
	for i := 0; i < reps; i++ {
		rows, err := c.Query(query)
		if err != nil {
			return nil, err
		}
		if rows.Plan() != nil && rows.Plan().Enum != nil {
			visitsCached += rows.Plan().Enum.Visits
		}
	}
	reg := db.Telemetry()
	hits, _ := reg.Value("opt.plancache.hits")
	misses, _ := reg.Value("opt.plancache.misses")
	verifs, _ := reg.Value("opt.plancache.verifications")
	// What the statements spent reading their text and getting a plan, from
	// their flight-recorder spans: a hit instantiates a template, anything
	// else parses (a new text) and compiles.
	compileUS := func() (us int64) {
		spans := db.FlightRecorder().Recent()
		for _, sp := range spans[len(spans)-reps:] {
			us += sp.PhaseUS(flightrec.PhaseParse) + sp.PhaseUS(flightrec.PhaseOptimize)
		}
		return us
	}
	cachedUS := compileUS()

	// Always re-optimize: the plan cache is shared by every connection, so a
	// fresh one would hit; trailing blanks make each repetition a new text.
	var visitsAlways int
	for i := 0; i < reps; i++ {
		rows, err := c.Query(query + strings.Repeat(" ", i+1))
		if err != nil {
			return nil, err
		}
		if rows.Plan() != nil && rows.Plan().Enum != nil {
			visitsAlways += rows.Plan().Enum.Visits
		}
	}

	alwaysUS := compileUS()

	table := fmt.Sprintf(
		"repetitions: %d\nwith plan cache: total optimizer visits=%d (hits=%d misses=%d verifications=%d), parse+plan %d us\n"+
			"always re-optimize: total optimizer visits=%d, parse+plan %d us\nvisit reduction: %.1fx, parse+plan time reduction: %.1fx\n",
		reps, visitsCached, hits, misses, verifs, cachedUS, visitsAlways, alwaysUS,
		float64(visitsAlways)/float64(max(visitsCached, 1)), float64(alwaysUS)/float64(max(cachedUS, 1)))
	return &Report{
		ID:    "E14",
		Title: "Plan caching with training period and logarithmic verification (§4.1)",
		Table: table,
		Metrics: map[string]float64{
			"visits_cached":  float64(visitsCached),
			"visits_always":  float64(visitsAlways),
			"hits":           float64(hits),
			"verifications":  float64(verifs),
			"plan_us_cached": float64(cachedUS),
			"plan_us_always": float64(alwaysUS),
		},
		Telemetry: sinceOpen(db.Telemetry()),
	}, nil
}
