package opt

import (
	"fmt"
	"math"
	"slices"
	"strings"

	"anywheredb/internal/exec"
	"anywheredb/internal/sqlparse"
	"anywheredb/internal/stats"
	"anywheredb/internal/table"
	"anywheredb/internal/val"
)

// Plan is an executable physical plan.
type Plan struct {
	Root    exec.Operator
	Columns []string
	Cost    float64
	Enum    *EnumResult
	// HashJoins lists the plan's hash joins (for adaptive-behaviour
	// inspection in tests and experiments).
	HashJoins []*exec.HashJoin
	// EstRows maps join-pipeline operators to the enumerator's cumulative
	// cardinality estimate at that point in the plan (EXPLAIN prints these
	// next to the actuals). Keys are the operators as built; look up with
	// exec.Unwrap when the tree has been instrumented.
	EstRows map[exec.Operator]float64
}

// BuildEnv carries everything plan construction needs.
type BuildEnv struct {
	Env *Env
	Res Resolver
	// Ctx is used at build time to materialize CTEs and uncorrelated
	// subqueries.
	Ctx    *exec.Ctx
	Params []val.Value
}

// BuildSelect optimizes and builds a SELECT statement. order is an optional
// cached join order for the statement's first block: enumeration is skipped
// when it still fits the freshly bound query (Plan.Enum is then nil), and
// runs as usual when it does not.
func BuildSelect(sel *sqlparse.Select, benv *BuildEnv, order []Step) (*Plan, error) {
	benv.Env.fill()
	ctes := map[string]*MaterializedCTE{}
	for _, cte := range sel.With {
		m, err := buildCTE(&cte, benv, ctes)
		if err != nil {
			return nil, err
		}
		ctes[strings.ToLower(cte.Name)] = m
	}
	return buildQueryBlock(sel, benv, ctes, order)
}

// buildCTE evaluates one CTE (recursive or not) into rows.
func buildCTE(cte *sqlparse.CTE, benv *BuildEnv, outer map[string]*MaterializedCTE) (*MaterializedCTE, error) {
	if !cte.Recursive {
		p, err := buildQueryBlock(cte.Query, benv, outer, nil)
		if err != nil {
			return nil, err
		}
		rows, err := exec.Drain(benv.Ctx, p.Root)
		if err != nil {
			return nil, err
		}
		return &MaterializedCTE{Cols: cteCols(cte, p.Columns, rows), Rows: rows}, nil
	}
	// Recursive: base UNION ALL recursive-part.
	if cte.Query.Union == nil || !cte.Query.UnionAll {
		return nil, fmt.Errorf("opt: recursive CTE %q must be base UNION ALL recursive", cte.Name)
	}
	base := *cte.Query
	base.Union = nil
	recursive := cte.Query.Union

	basePlan, err := buildQueryBlock(&base, benv, outer, nil)
	if err != nil {
		return nil, err
	}
	baseRows, err := exec.Drain(benv.Ctx, basePlan.Root)
	if err != nil {
		return nil, err
	}
	cols := cteCols(cte, basePlan.Columns, baseRows)

	ru := &exec.RecursiveUnion{
		Base: &exec.Materialized{RowsData: baseRows},
		Recursive: func(prev *exec.Materialized) exec.Operator {
			inner := map[string]*MaterializedCTE{}
			for k, v := range outer {
				inner[k] = v
			}
			inner[strings.ToLower(cte.Name)] = &MaterializedCTE{Cols: cols, Rows: prev.RowsData}
			p, err := buildQueryBlock(recursive, benv, inner, nil)
			if err != nil {
				return &errOp{err}
			}
			return p.Root
		},
	}
	rows, err := exec.Drain(benv.Ctx, ru)
	if err != nil {
		return nil, err
	}
	return &MaterializedCTE{Cols: cols, Rows: rows}, nil
}

func cteCols(cte *sqlparse.CTE, names []string, rows [][]val.Value) []table.Column {
	width := len(names)
	if len(rows) > 0 {
		width = len(rows[0])
	}
	cols := make([]table.Column, width)
	for i := range cols {
		name := fmt.Sprintf("c%d", i)
		if i < len(cte.Cols) {
			name = cte.Cols[i]
		} else if i < len(names) && names[i] != "" {
			name = names[i]
		}
		kind := val.KInt
		if len(rows) > 0 && i < len(rows[0]) {
			kind = rows[0][i].Kind
		}
		cols[i] = table.Column{Name: name, Kind: kind}
	}
	return cols
}

// errOp propagates a build error through the operator interface.
type errOp struct{ err error }

func (e *errOp) Open(*exec.Ctx) error                   { return e.err }
func (e *errOp) NextBatch(*exec.Ctx, *exec.Batch) error { return e.err }
func (e *errOp) Close(*exec.Ctx) error                  { return nil }

// buildQueryBlock handles one SELECT block plus its UNION chain. ORDER BY
// and LIMIT (the parser hangs them on the first block) are attached here
// and nowhere else: a single block sorts its rows before they are projected,
// so a key may name an alias, an output position or any input column; a
// UNION chain sorts its output columns.
func buildQueryBlock(sel *sqlparse.Select, benv *BuildEnv, ctes map[string]*MaterializedCTE, order []Step) (*Plan, error) {
	b, root, err := buildSingle(sel, benv, ctes, order)
	if err != nil {
		return nil, err
	}
	plan := b.plan
	sortKey := b.sortKeyExpr
	if sel.Union != nil {
		rest := *sel.Union
		restPlan, err := buildQueryBlock(&rest, benv, ctes, nil)
		if err != nil {
			return nil, err
		}
		root = &exec.UnionAll{Inputs: []exec.Operator{b.project(root), restPlan.Root}}
		if !sel.UnionAll {
			root = &exec.HashDistinct{Input: root}
		}
		plan.HashJoins = append(plan.HashJoins, restPlan.HashJoins...)
		sortKey = b.outputColExpr
	}
	if len(sel.OrderBy) > 0 {
		keys := make([]exec.SortKey, 0, len(sel.OrderBy))
		for _, oi := range sel.OrderBy {
			e, err := sortKey(oi.Expr)
			if err != nil {
				return nil, err
			}
			keys = append(keys, exec.SortKey{Expr: e, Desc: oi.Desc})
		}
		root = &exec.Sort{Input: root, Keys: keys, Depth: depthSort}
	}
	if sel.Union == nil {
		root = b.project(root)
	}
	if sel.Limit >= 0 {
		root = &exec.Limit{Input: root, N: sel.Limit}
	}
	plan.Root = root
	return plan, nil
}

// Plan depths of a block's memory-intensive operators, top down: the
// governor asks the highest consumer in the tree to give memory back first
// (§4.3), so an input is never starved by its consumer. The last join step
// is the topmost join.
const (
	depthSort = iota
	depthGroupBy
	depthJoins
)

// blockBuilder builds one SELECT block.
type blockBuilder struct {
	benv *BuildEnv
	sel  *sqlparse.Select
	q    *Query
	plan *Plan
	// layout is the quantifier order of the current pipeline; offsets maps
	// quantifier index -> starting row ordinal.
	layout  []int
	offsets map[int]int
	widths  map[int]int
	// Once the block is aggregated, expressions compile against the
	// HashGroupBy's output: groupCols maps canonical group-by expression
	// strings to its ordinals, aggCols canonical aggregate calls.
	groupCols  map[string]int
	aggCols    map[string]int
	aggregated bool
	// exprs are the block's projection, compiled against its unprojected
	// rows; plan.Columns names them.
	exprs []exec.Expr
}

// buildSingle builds one block up to, not including, its projection: the
// join pipeline, aggregation and HAVING. It returns the unprojected root.
func buildSingle(sel *sqlparse.Select, benv *BuildEnv, ctes map[string]*MaterializedCTE, order []Step) (*blockBuilder, exec.Operator, error) {
	b := &blockBuilder{benv: benv, sel: sel, plan: &Plan{}}

	var root exec.Operator
	if sel.From == nil {
		// SELECT without FROM: one empty row under the projection.
		root = &exec.Values{Rows: [][]exec.Expr{{}}}
		if sel.Where != nil {
			p, err := b.compilePred(sel.Where, nil)
			if err != nil {
				return nil, nil, err
			}
			root = &exec.Filter{Input: root, Pred: p}
		}
	} else {
		q, err := Bind(sel, benv.Res, ctes, benv.Params)
		if err != nil {
			return nil, nil, err
		}
		b.q = q
		if !q.validOrder(order) {
			res, err := Enumerate(q, benv.Env)
			if err != nil {
				return nil, nil, err
			}
			b.plan.Enum, b.plan.Cost, order = res, res.Cost, res.Order
		}
		if root, err = b.buildPipeline(order); err != nil {
			return nil, nil, err
		}
		if root, err = b.buildAggregation(root); err != nil {
			return nil, nil, err
		}
		if sel.Having != nil {
			p, err := b.compilePred(sel.Having, b.offsets)
			if err != nil {
				return nil, nil, err
			}
			root = &exec.Filter{Input: root, Pred: p}
		}
	}

	for i, item := range sel.Items {
		if item.Star {
			if sel.From == nil {
				return nil, nil, fmt.Errorf("opt: SELECT * requires FROM")
			}
			for _, qi := range b.layout {
				for ci, col := range b.q.Quants[qi].Columns() {
					b.exprs = append(b.exprs, exec.Col{Idx: b.offsets[qi] + ci})
					b.plan.Columns = append(b.plan.Columns, col.Name)
				}
			}
			continue
		}
		e, err := b.compileScalar(item.Expr, b.offsets)
		if err != nil {
			return nil, nil, err
		}
		b.exprs = append(b.exprs, e)
		b.plan.Columns = append(b.plan.Columns, itemName(item, i))
	}
	return b, root, nil
}

// project puts the block's projection (and DISTINCT) over its rows.
func (b *blockBuilder) project(root exec.Operator) exec.Operator {
	root = &exec.Project{Input: root, Exprs: b.exprs}
	if b.sel.Distinct {
		root = &exec.HashDistinct{Input: root}
	}
	return root
}

// validOrder reports whether a cached join order still fits the freshly
// bound query: one step per quantifier, and every index it names is — by
// pointer — an index of that quantifier's current table (a dropped and
// re-created table or index is a different one under the same name).
func (q *Query) validOrder(order []Step) bool {
	if len(order) != len(q.Quants) {
		return false
	}
	seen := make([]bool, len(q.Quants))
	for _, st := range order {
		if st.Quant < 0 || st.Quant >= len(seen) || seen[st.Quant] {
			return false
		}
		seen[st.Quant] = true
		if st.Index == nil {
			continue
		}
		if t := q.Quants[st.Quant].Table; t == nil || !slices.Contains(t.IndexList(), st.Index) {
			return false
		}
	}
	return true
}

// sortKeyExpr compiles a single block's ORDER BY key against its
// unprojected rows: an integer literal is an output position and a bare
// name matching a select item is that item; anything else is an expression
// over the pipeline (or aggregated) row.
func (b *blockBuilder) sortKeyExpr(e sqlparse.Expr) (exec.Expr, error) {
	if lit, ok := e.(*sqlparse.Lit); ok && lit.Val.Kind == val.KInt {
		if lit.Val.I < 1 || lit.Val.I > int64(len(b.exprs)) {
			return nil, fmt.Errorf("opt: ORDER BY position %d out of range", lit.Val.I)
		}
		return b.exprs[lit.Val.I-1], nil
	}
	if c, ok := e.(*sqlparse.ColRef); ok && c.Table == "" {
		pos := 0
		for i, item := range b.sel.Items {
			if item.Star {
				pos += b.width()
				continue
			}
			if strings.EqualFold(itemName(item, i), c.Col) {
				return b.exprs[pos], nil
			}
			pos++
		}
	}
	return b.compileScalar(e, b.offsets)
}

func itemName(item sqlparse.SelectItem, i int) string {
	if item.Alias != "" {
		return item.Alias
	}
	if c, ok := item.Expr.(*sqlparse.ColRef); ok {
		return c.Col
	}
	return fmt.Sprintf("expr%d", i+1)
}

// buildPipeline assembles the left-deep join tree for the chosen order.
func (b *blockBuilder) buildPipeline(order []Step) (exec.Operator, error) {
	q, plan := b.q, b.plan
	b.offsets = map[int]int{}
	b.widths = map[int]int{}
	var root exec.Operator
	applied := map[*Conjunct]bool{}

	// Replay the enumerator's cardinality recurrence alongside construction
	// so every pipeline step carries its estimated output rows (EXPLAIN
	// prints these against the actuals).
	plan.EstRows = map[exec.Operator]float64{}
	env := b.benv.Env
	placedSet := map[int]bool{}
	card := 1.0

	for stepIdx, st := range order {
		qt := q.Quants[st.Quant]
		width := len(qt.Columns())

		if stepIdx == 0 {
			acc, err := b.accessOp(st)
			if err != nil {
				return nil, err
			}
			root = acc
			b.layout = []int{st.Quant}
			b.offsets[st.Quant] = 0
			b.widths[st.Quant] = width
		} else {
			joined, err := b.joinStep(root, st, depthJoins+len(order)-1-stepIdx, applied)
			if err != nil {
				return nil, err
			}
			root = joined
			b.offsets[st.Quant] = b.width()
			b.widths[st.Quant] = width
			b.layout = append(b.layout, st.Quant)
		}

		// Apply multi-quantifier conjuncts as soon as every referenced
		// quantifier is placed (outer-join ON residuals are handled at the
		// join itself).
		for _, cj := range q.Conj {
			if applied[cj] || cj.Class == LocalPred || cj.FromOn {
				continue
			}
			ready := true
			for qi := range cj.Quants {
				if !b.placed(qi) {
					ready = false
					break
				}
			}
			if !ready {
				continue
			}
			p, err := b.compilePred(cj.Expr, b.offsets)
			if err != nil {
				return nil, err
			}
			root = &exec.Filter{Input: root, Pred: p}
			applied[cj] = true
		}

		// WHERE predicates on null-supplied quantifiers apply after their
		// join.
		if qt.NullSupplied {
			for _, cj := range q.Conj {
				if applied[cj] || cj.Class != LocalPred || cj.FromOn || !cj.Quants[st.Quant] {
					continue
				}
				p, err := b.compilePred(cj.Expr, b.offsets)
				if err != nil {
					return nil, err
				}
				root = &exec.Filter{Input: root, Pred: p}
				applied[cj] = true
			}
		}

		if stepIdx == 0 {
			card = math.Max(q.LocalCardinality(st.Quant), 1)
		} else {
			_, card = env.stepCost(q, placedSet, card, st)
		}
		placedSet[st.Quant] = true
		plan.EstRows[root] = card
	}

	// A WHERE conjunct that references no quantifier (1 = 0, ? = 1, an
	// uncorrelated EXISTS) belongs to no access path and no join: together
	// they gate the whole pipeline, as one Filter at its root.
	var gate sqlparse.Expr
	for _, cj := range q.Conj {
		if len(cj.Quants) > 0 || cj.FromOn {
			continue
		}
		if gate == nil {
			gate = cj.Expr
		} else {
			gate = &sqlparse.BinOp{Op: "AND", L: gate, R: cj.Expr}
		}
	}
	if gate != nil {
		p, err := b.compilePred(gate, b.offsets)
		if err != nil {
			return nil, err
		}
		root = &exec.Filter{Input: root, Pred: p}
		plan.EstRows[root] = card
	}
	return root, nil
}

func (b *blockBuilder) placed(qi int) bool {
	for _, x := range b.layout {
		if x == qi {
			return true
		}
	}
	return false
}

func (b *blockBuilder) width() int {
	w := 0
	for _, qi := range b.layout {
		w += b.widths[qi]
	}
	return w
}

// accessOp builds the access operator for one quantifier including its
// local predicates (with feedback observers wired to the self-managing
// histograms).
func (b *blockBuilder) accessOp(st Step) (exec.Operator, error) {
	q := b.q
	qt := q.Quants[st.Quant]
	localOffsets := map[int]int{st.Quant: 0}

	var op exec.Operator
	var probed *Conjunct
	if qt.Table == nil {
		op = &exec.Materialized{RowsData: qt.Rows}
	} else if st.Index != nil {
		// Sargable equality on the index prefix.
		if ix, lit, cj := q.equalityProbe(st.Quant); ix == st.Index {
			key := val.EncodeKey([]val.Value{lit})
			op = &exec.IndexScan{Table: qt.Table, Index: ix, Lo: key, Hi: key, HiInc: true}
			b.plan.EstRows[op] = q.probeRows(st.Quant, cj)
			probed = cj
		}
	}
	if op == nil {
		op = b.tableScanOp(st)
	}

	// Residual local predicates.
	for _, cj := range q.LocalConjunctsOf(st.Quant, true) {
		if cj == probed {
			continue
		}
		p, err := b.compilePred(cj.Expr, localOffsets)
		if err != nil {
			return nil, err
		}
		op = &exec.Filter{Input: op, Pred: p, Obs: b.observerFor(cj)}
	}
	return op, nil
}

// tableScanOp builds a heap/columnar table scan, pushing one sargable
// local conjunct (col <op> const) down as a zone-map hint: when the table
// carries sealed column segments, segments whose min/max range cannot
// satisfy the conjunct are skipped before decode. The conjunct is NOT
// consumed — the exact Filter above the scan still evaluates it — so the
// hint can only remove guaranteed non-matches. Equality is preferred (the
// tightest zone test); otherwise the first range comparison wins.
func (b *blockBuilder) tableScanOp(st Step) exec.Operator {
	q := b.q
	qt := q.Quants[st.Quant]
	scan := &exec.TableScan{Table: qt.Table, ZoneCol: -1}
	for _, cj := range q.LocalConjunctsOf(st.Quant, true) {
		col, lit, opName, ok := colOpLitConj(q, cj)
		if !ok {
			continue
		}
		switch opName {
		case "=", "<>", "<", "<=", ">", ">=":
		default:
			continue
		}
		if scan.ZoneOp == "" || (opName == "=" && scan.ZoneOp != "=") {
			scan.ZoneCol, scan.ZoneOp, scan.ZoneConst = col.C, opName, lit
		}
		if scan.ZoneOp == "=" {
			break
		}
	}
	return scan
}

// observerFor wires execution feedback into the histogram of the predicate
// column (§3.2: evaluation of almost any predicate over a base column can
// update its histogram).
func (b *blockBuilder) observerFor(cj *Conjunct) exec.Observer {
	q := b.q
	switch x := cj.Expr.(type) {
	case *sqlparse.BinOp:
		col, lit, op, ok := colOpLit(q, x)
		if !ok {
			return nil
		}
		h := q.histOf(col)
		if h == nil {
			return nil
		}
		litv := lit
		switch op {
		case "=":
			return func(m, n float64) { h.ObserveEq(litv, m, n) }
		case "<":
			return func(m, n float64) { h.ObserveRange(nil, &litv, false, false, m, n) }
		case "<=":
			return func(m, n float64) { h.ObserveRange(nil, &litv, false, true, m, n) }
		case ">":
			return func(m, n float64) { h.ObserveRange(&litv, nil, false, false, m, n) }
		case ">=":
			return func(m, n float64) { h.ObserveRange(&litv, nil, true, false, m, n) }
		}
	case *sqlparse.Between:
		col, ok := singleCol(q, x.E)
		if !ok || x.Neg {
			return nil
		}
		lo, lok := q.constOf(x.Lo)
		hi, hok := q.constOf(x.Hi)
		if !lok || !hok {
			return nil
		}
		h := q.histOf(col)
		if h == nil {
			return nil
		}
		return func(m, n float64) { h.ObserveRange(&lo, &hi, true, true, m, n) }
	case *sqlparse.Like:
		col, ok := singleCol(q, x.E)
		if !ok || x.Neg {
			return nil
		}
		pat, pok := q.constOf(x.Pattern)
		if !pok {
			return nil
		}
		ss := q.strStatsOf(col)
		if ss == nil {
			return nil
		}
		return func(m, n float64) {
			if n > 0 {
				ss.Observe(stats.OpLike, pat.S, m/n)
			}
		}
	}
	return nil
}

// joinStep builds the join placing st.Quant onto the accumulated tree.
// Conjuncts it consumes (join keys, NLJ predicates) are recorded in
// applied so the caller does not re-filter them.
func (b *blockBuilder) joinStep(acc exec.Operator, st Step, depth int, applied map[*Conjunct]bool) (exec.Operator, error) {
	q := b.q
	qt := q.Quants[st.Quant]
	width := len(qt.Columns())

	// Gather join keys between the placed prefix and this quantifier.
	var accKeys, qKeys []exec.Expr
	var eqConjs []*Conjunct
	for _, cj := range q.Conj {
		if cj.Class != EquiJoinPred {
			continue
		}
		var accSide, qSide colRefID
		if cj.LQ == st.Quant && b.placed(cj.RQ) {
			qSide, accSide = colRefID{cj.LQ, cj.LC}, colRefID{cj.RQ, cj.RC}
		} else if cj.RQ == st.Quant && b.placed(cj.LQ) {
			qSide, accSide = colRefID{cj.RQ, cj.RC}, colRefID{cj.LQ, cj.LC}
		} else {
			continue
		}
		accKeys = append(accKeys, exec.Col{Idx: b.offsets[accSide.Q] + accSide.C})
		qKeys = append(qKeys, exec.Col{Idx: qSide.C})
		eqConjs = append(eqConjs, cj)
	}

	leftOuter := qt.NullSupplied

	switch st.Method {
	case MethodHash:
		if len(accKeys) == 0 {
			return nil, fmt.Errorf("opt: hash join without keys")
		}
		right, err := b.accessOp(Step{Quant: st.Quant, Method: MethodScan})
		if err != nil {
			return nil, err
		}
		hj := &exec.HashJoin{
			Left:       acc,
			Right:      right,
			LeftKeys:   accKeys,
			RightKeys:  qKeys,
			LeftOuter:  leftOuter,
			RightWidth: width,
			Depth:      depth,
		}
		for _, cj := range eqConjs {
			applied[cj] = true
		}
		// Alternate index strategy annotation: an index on this table
		// covering the first join key lets the operator switch to INL when
		// the build turns out small (§4.3).
		if qt.Table != nil {
			if ix := b.indexOnCols(qt.Table, qKeys); ix != nil {
				hj.Alt = &exec.IndexAlt{Table: qt.Table, Index: ix, Pred: b.altResidual(st.Quant)}
				hj.INLMaxBuildRows = b.inlThreshold(qt.Table, ix)
			}
		}
		b.plan.HashJoins = append(b.plan.HashJoins, hj)
		return hj, nil

	case MethodINL:
		if st.Index == nil {
			return nil, fmt.Errorf("opt: INL join without index")
		}
		// Keys must align with the index's leading columns; conjuncts the
		// index cannot consume stay as residual filters at the join.
		ordered, used := b.orderKeysForIndex(st.Index, eqConjs)
		if ordered == nil {
			return nil, fmt.Errorf("opt: INL keys do not match index")
		}
		pred := b.altResidual(st.Quant)
		for i, cj := range eqConjs {
			if used[i] {
				applied[cj] = true
				continue
			}
			p, err := b.compilePred(cj.Expr, b.offsetsWith(st.Quant))
			if err != nil {
				return nil, err
			}
			if pred == nil {
				pred = p
			} else {
				pred = exec.And{L: pred, R: p}
			}
			applied[cj] = true
		}
		return &exec.IndexNLJoin{
			Left:       acc,
			LeftKeys:   ordered,
			Table:      qt.Table,
			Index:      st.Index,
			Pred:       pred,
			LeftOuter:  leftOuter,
			RightWidth: width,
		}, nil

	default: // MethodNLJ
		right, err := b.accessOp(Step{Quant: st.Quant, Method: MethodScan})
		if err != nil {
			return nil, err
		}
		// The predicate combines every conjunct joining this quantifier to
		// the prefix (equijoin and complex), bound over acc ⊕ q. For an
		// outer join only ON-clause conjuncts belong here; WHERE conjuncts
		// filter after null padding.
		var pred exec.Pred
		for _, cj := range q.Conj {
			if cj.Class == LocalPred || !cj.Quants[st.Quant] {
				continue
			}
			if leftOuter && !cj.FromOn {
				continue
			}
			ready := true
			for qi := range cj.Quants {
				if qi != st.Quant && !b.placed(qi) {
					ready = false
					break
				}
			}
			if !ready {
				continue
			}
			applied[cj] = true
			p, err := b.compilePred(cj.Expr, b.offsetsWith(st.Quant))
			if err != nil {
				return nil, err
			}
			if pred == nil {
				pred = p
			} else {
				pred = exec.And{L: pred, R: p}
			}
		}
		return &exec.NestedLoopJoin{
			Left: acc, Right: right,
			Pred:      pred,
			LeftOuter: leftOuter, RightWidth: width,
		}, nil
	}
}

// offsetsWith is the row layout of the accumulated pipeline joined with
// quantifier qi (acc ⊕ q).
func (b *blockBuilder) offsetsWith(qi int) map[int]int {
	offsets := map[int]int{qi: b.width()}
	for k, v := range b.offsets {
		offsets[k] = v
	}
	return offsets
}

// altResidual compiles the ON residual predicate for INL-style probes: the
// local ON predicates of the null-supplied quantifier bound at the probe
// row offset (acc ⊕ q).
func (b *blockBuilder) altResidual(qi int) exec.Pred {
	q := b.q
	var pred exec.Pred
	offsets := b.offsetsWith(qi)
	for _, cj := range q.LocalConjunctsOf(qi, true) {
		p, err := b.compilePred(cj.Expr, offsets)
		if err != nil {
			continue
		}
		if pred == nil {
			pred = p
		} else {
			pred = exec.And{L: pred, R: p}
		}
	}
	return pred
}

// indexOnCols finds an index whose first column matches the first probe
// key (which must be a bare column of the table).
func (b *blockBuilder) indexOnCols(t *table.Table, qKeys []exec.Expr) *table.Index {
	if len(qKeys) != 1 {
		return nil
	}
	c, ok := qKeys[0].(exec.Col)
	if !ok {
		return nil
	}
	for _, ix := range t.IndexList() {
		if len(ix.Cols) == 1 && ix.Cols[0] == c.Idx {
			return ix
		}
	}
	return nil
}

// orderKeysForIndex orders probe-key expressions (over the accumulated
// layout) to match the index's column order. used marks which conjuncts
// were consumed as key columns.
func (b *blockBuilder) orderKeysForIndex(ix *table.Index, eqConjs []*Conjunct) ([]exec.Expr, []bool) {
	var out []exec.Expr
	used := make([]bool, len(eqConjs))
	for _, ixCol := range ix.Cols {
		found := false
		for i, cj := range eqConjs {
			if used[i] {
				continue
			}
			var qc, accQ, accC int
			if b.placed(cj.LQ) {
				accQ, accC, qc = cj.LQ, cj.LC, cj.RC
			} else {
				accQ, accC, qc = cj.RQ, cj.RC, cj.LC
			}
			if qc == ixCol {
				out = append(out, exec.Col{Idx: b.offsets[accQ] + accC})
				used[i] = true
				found = true
				break
			}
		}
		if !found {
			break
		}
	}
	if len(out) == 0 {
		return nil, nil
	}
	return out, used
}

// inlThreshold computes the build-row count below which index nested loops
// beats completing the hash join: hashRemainder = scan of the probe table;
// INL = rows × one probe.
func (b *blockBuilder) inlThreshold(t *table.Table, ix *table.Index) int64 {
	env := b.benv.Env
	hashRemainder := env.seqScanCost(t, false)
	probeOne := env.indexProbeCost(t, ix, 1)
	if probeOne <= 0 {
		return 0
	}
	th := int64(hashRemainder / probeOne)
	if th < 0 {
		th = 0
	}
	return th
}

// --- Aggregation ----------------------------------------------------------

// buildAggregation inserts a HashGroupBy when the block aggregates. From
// here on the block's expressions compile against the aggregated row.
func (b *blockBuilder) buildAggregation(root exec.Operator) (exec.Operator, error) {
	sel := b.sel
	// Everything evaluated above the GROUP BY: select items, HAVING, and
	// (not themselves making the block aggregated) ORDER BY keys.
	var above []sqlparse.Expr
	for _, item := range sel.Items {
		if !item.Star {
			above = append(above, item.Expr)
		}
	}
	if sel.Having != nil {
		above = append(above, sel.Having)
	}
	hasAgg := false
	for _, e := range above {
		hasAgg = hasAgg || containsAggregate(e)
	}
	if len(sel.GroupBy) == 0 && !hasAgg {
		return root, nil
	}
	for _, oi := range sel.OrderBy {
		above = append(above, oi.Expr)
	}
	groupCols, aggCols := map[string]int{}, map[string]int{}

	var keys []exec.Expr
	for i, ge := range sel.GroupBy {
		e, err := b.compileScalar(ge, b.offsets)
		if err != nil {
			return nil, err
		}
		keys = append(keys, e)
		groupCols[exprKey(ge)] = i
	}

	var aggs []exec.AggSpec
	addAgg := func(fc *sqlparse.FuncCall) error {
		k := exprKey(fc)
		if _, ok := aggCols[k]; ok {
			return nil
		}
		spec, err := b.aggSpec(fc)
		if err != nil {
			return err
		}
		aggCols[k] = len(keys) + len(aggs)
		aggs = append(aggs, spec)
		return nil
	}
	for _, e := range above {
		if err := walkAggregates(e, addAgg); err != nil {
			return nil, err
		}
	}

	b.aggregated, b.groupCols, b.aggCols = true, groupCols, aggCols
	return &exec.HashGroupBy{Input: root, Keys: keys, Aggs: aggs, Depth: depthGroupBy}, nil
}

func (b *blockBuilder) aggSpec(fc *sqlparse.FuncCall) (exec.AggSpec, error) {
	var fn exec.AggFn
	switch fc.Name {
	case "COUNT":
		if fc.Star {
			return exec.AggSpec{Fn: exec.AggCountStar}, nil
		}
		fn = exec.AggCount
	case "SUM":
		fn = exec.AggSum
	case "MIN":
		fn = exec.AggMin
	case "MAX":
		fn = exec.AggMax
	case "AVG":
		fn = exec.AggAvg
	default:
		return exec.AggSpec{}, fmt.Errorf("opt: unknown aggregate %q", fc.Name)
	}
	if len(fc.Args) != 1 {
		return exec.AggSpec{}, fmt.Errorf("opt: %s takes one argument", fc.Name)
	}
	arg, err := b.compileScalar(fc.Args[0], b.offsets)
	if err != nil {
		return exec.AggSpec{}, err
	}
	return exec.AggSpec{Fn: fn, Arg: arg, Distinct: fc.Distinct}, nil
}

func containsAggregate(e sqlparse.Expr) bool {
	found := false
	walkAggregates(e, func(*sqlparse.FuncCall) error { found = true; return nil })
	return found
}

var aggNames = map[string]bool{"COUNT": true, "SUM": true, "MIN": true, "MAX": true, "AVG": true}

// walkAggregates calls fn for each aggregate call in e, outermost first
// and without looking inside one, stopping at fn's first error.
func walkAggregates(e sqlparse.Expr, fn func(*sqlparse.FuncCall) error) (err error) {
	sqlparse.WalkExpr(e, func(n sqlparse.Expr) bool {
		if fc, ok := n.(*sqlparse.FuncCall); ok && aggNames[fc.Name] && err == nil {
			err = fn(fc)
			return false
		}
		return err == nil
	})
	return err
}

// exprKey renders an expression canonically for matching group-by items
// and aggregates.
func exprKey(e sqlparse.Expr) string {
	switch x := e.(type) {
	case *sqlparse.ColRef:
		return strings.ToLower(x.Table) + "." + strings.ToLower(x.Col)
	case *sqlparse.Lit:
		return "lit:" + x.Val.String()
	case *sqlparse.Param:
		return fmt.Sprintf("param:%d", x.Idx)
	case *sqlparse.BinOp:
		return "(" + exprKey(x.L) + x.Op + exprKey(x.R) + ")"
	case *sqlparse.UnOp:
		return x.Op + exprKey(x.E)
	case *sqlparse.FuncCall:
		parts := make([]string, 0, len(x.Args))
		for _, a := range x.Args {
			parts = append(parts, exprKey(a))
		}
		star := ""
		if x.Star {
			star = "*"
		}
		d := ""
		if x.Distinct {
			d = "distinct "
		}
		return x.Name + "(" + d + star + strings.Join(parts, ",") + ")"
	case *sqlparse.IsNull:
		return fmt.Sprintf("%s isnull/%t", exprKey(x.E), x.Neg)
	case *sqlparse.Between:
		return fmt.Sprintf("%s between/%t %s and %s", exprKey(x.E), x.Neg, exprKey(x.Lo), exprKey(x.Hi))
	case *sqlparse.Like:
		return fmt.Sprintf("%s like/%t %s", exprKey(x.E), x.Neg, exprKey(x.Pattern))
	}
	// Anything else (IN lists, subqueries) matches only itself.
	return fmt.Sprintf("%T@%p", e, e)
}

// --- Expression compilation ----------------------------------------------

// outputColExpr compiles a UNION chain's ORDER BY key: an output position
// or an output column name.
func (b *blockBuilder) outputColExpr(e sqlparse.Expr) (exec.Expr, error) {
	cols := b.plan.Columns
	if lit, ok := e.(*sqlparse.Lit); ok && lit.Val.Kind == val.KInt {
		if lit.Val.I < 1 || lit.Val.I > int64(len(cols)) {
			return nil, fmt.Errorf("opt: ORDER BY position %d out of range", lit.Val.I)
		}
		return exec.Col{Idx: int(lit.Val.I) - 1}, nil
	}
	if c, ok := e.(*sqlparse.ColRef); ok && c.Table == "" {
		for i, name := range cols {
			if strings.EqualFold(name, c.Col) {
				return exec.Col{Idx: i}, nil
			}
		}
	}
	return nil, fmt.Errorf("opt: ORDER BY must reference an output column or position")
}

func isCmp(op string) bool {
	switch op {
	case "=", "<>", "<", "<=", ">", ">=":
		return true
	}
	return false
}

func (b *blockBuilder) paramExpr(p *sqlparse.Param) (exec.Expr, error) {
	idx := p.Idx - 1
	if idx < 0 || idx >= len(b.benv.Params) {
		return nil, fmt.Errorf("opt: parameter %d not supplied", p.Idx)
	}
	return exec.Const{V: b.benv.Params[idx]}, nil
}

// compilePred compiles a predicate over the row layout offsets describes
// (quantifier index -> first ordinal) or, once the block is aggregated,
// over the aggregated row.
func (b *blockBuilder) compilePred(e sqlparse.Expr, offsets map[int]int) (exec.Pred, error) {
	switch x := e.(type) {
	case *sqlparse.BinOp:
		switch x.Op {
		case "AND", "OR":
			l, err := b.compilePred(x.L, offsets)
			if err != nil {
				return nil, err
			}
			r, err := b.compilePred(x.R, offsets)
			if err != nil {
				return nil, err
			}
			if x.Op == "AND" {
				return exec.And{L: l, R: r}, nil
			}
			return exec.Or{L: l, R: r}, nil
		}
		if isCmp(x.Op) {
			l, err := b.compileScalar(x.L, offsets)
			if err != nil {
				return nil, err
			}
			r, err := b.compileScalar(x.R, offsets)
			if err != nil {
				return nil, err
			}
			return exec.Cmp{Op: x.Op, L: l, R: r}, nil
		}
		return nil, fmt.Errorf("opt: %q is not a predicate", x.Op)
	case *sqlparse.UnOp:
		if x.Op == "NOT" {
			p, err := b.compilePred(x.E, offsets)
			if err != nil {
				return nil, err
			}
			return exec.Not{P: p}, nil
		}
		return nil, fmt.Errorf("opt: %q is not a predicate", x.Op)
	case *sqlparse.IsNull:
		inner, err := b.compileScalar(x.E, offsets)
		if err != nil {
			return nil, err
		}
		return exec.IsNullPred{E: inner, Neg: x.Neg}, nil
	case *sqlparse.Between:
		inner, err := b.compileScalar(x.E, offsets)
		if err != nil {
			return nil, err
		}
		lo, err := b.compileScalar(x.Lo, offsets)
		if err != nil {
			return nil, err
		}
		hi, err := b.compileScalar(x.Hi, offsets)
		if err != nil {
			return nil, err
		}
		return exec.BetweenPred{E: inner, Lo: lo, Hi: hi, Neg: x.Neg}, nil
	case *sqlparse.Like:
		inner, err := b.compileScalar(x.E, offsets)
		if err != nil {
			return nil, err
		}
		pat, err := b.compileScalar(x.Pattern, offsets)
		if err != nil {
			return nil, err
		}
		return exec.LikePred{E: inner, Pattern: pat, Neg: x.Neg}, nil
	case *sqlparse.InList:
		inner, err := b.compileScalar(x.E, offsets)
		if err != nil {
			return nil, err
		}
		var list []exec.Expr
		for _, le := range x.List {
			ce, err := b.compileScalar(le, offsets)
			if err != nil {
				return nil, err
			}
			list = append(list, ce)
		}
		return exec.InListPred{E: inner, List: list, Neg: x.Neg}, nil
	case *sqlparse.InSelect:
		return b.compileInSelect(x, offsets)
	case *sqlparse.Exists:
		return b.compileExists(x)
	}
	return nil, fmt.Errorf("opt: unsupported predicate %T", e)
}

// compileInSelect materializes an uncorrelated IN-subquery into a hash set
// — effectively converting the subquery into a (semi) hash join, the
// cost-based rewriting of §4.1 in its simplest form.
func (b *blockBuilder) compileInSelect(x *sqlparse.InSelect, offsets map[int]int) (exec.Pred, error) {
	inner, err := b.compileScalar(x.E, offsets)
	if err != nil {
		return nil, err
	}
	sub, err := BuildSelect(x.Sub, b.benv, nil)
	if err != nil {
		return nil, fmt.Errorf("opt: IN subquery: %w (correlated subqueries are not supported)", err)
	}
	rows, err := exec.Drain(b.benv.Ctx, sub.Root)
	if err != nil {
		return nil, err
	}
	set := make(map[uint64][]val.Value, len(rows))
	sawNull := false
	for _, r := range rows {
		if len(r) != 1 {
			return nil, fmt.Errorf("opt: IN subquery must return one column")
		}
		if r[0].IsNull() {
			sawNull = true
			continue
		}
		set[val.Hash64(r[0])] = append(set[val.Hash64(r[0])], r[0])
	}
	return &setMembershipPred{expr: inner, set: set, sawNull: sawNull, neg: x.Neg}, nil
}

// setMembershipPred is the materialized semi-join predicate.
type setMembershipPred struct {
	expr    exec.Expr
	set     map[uint64][]val.Value
	sawNull bool
	neg     bool
}

func (p *setMembershipPred) Test(r exec.Row) (exec.Bool3, error) {
	v, err := p.expr.Eval(r)
	if err != nil {
		return exec.Unknown, err
	}
	if v.IsNull() {
		return exec.Unknown, nil
	}
	found := false
	for _, cand := range p.set[val.Hash64(v)] {
		if val.Compare(cand, v) == 0 {
			found = true
			break
		}
	}
	if found {
		if p.neg {
			return exec.False, nil
		}
		return exec.True, nil
	}
	if p.sawNull {
		return exec.Unknown, nil
	}
	if p.neg {
		return exec.True, nil
	}
	return exec.False, nil
}

// compileExists materializes an uncorrelated EXISTS.
func (b *blockBuilder) compileExists(x *sqlparse.Exists) (exec.Pred, error) {
	limited := *x.Sub
	limited.Limit = 1
	sub, err := BuildSelect(&limited, b.benv, nil)
	if err != nil {
		return nil, fmt.Errorf("opt: EXISTS subquery: %w (correlated subqueries are not supported)", err)
	}
	rows, err := exec.Drain(b.benv.Ctx, sub.Root)
	if err != nil {
		return nil, err
	}
	exists := len(rows) > 0
	return constPred{truth: exists != x.Neg}, nil
}

type constPred struct{ truth bool }

func (p constPred) Test(exec.Row) (exec.Bool3, error) {
	if p.truth {
		return exec.True, nil
	}
	return exec.False, nil
}

// compileScalar is compilePred's counterpart for value expressions. The one
// place a column is resolved: above a GROUP BY an expression that is a
// grouping key or an aggregate call is that column of the aggregated row,
// and any other bare column is an error.
func (b *blockBuilder) compileScalar(e sqlparse.Expr, offsets map[int]int) (exec.Expr, error) {
	if b.aggregated {
		k := exprKey(e)
		if idx, ok := b.groupCols[k]; ok {
			return exec.Col{Idx: idx}, nil
		}
		if idx, ok := b.aggCols[k]; ok {
			return exec.Col{Idx: idx}, nil
		}
	}
	switch x := e.(type) {
	case *sqlparse.Lit:
		return exec.Const{V: x.Val}, nil
	case *sqlparse.Param:
		return b.paramExpr(x)
	case *sqlparse.ColRef:
		if b.q == nil {
			return nil, fmt.Errorf("opt: column %q without FROM", x.Col)
		}
		if b.aggregated {
			return nil, fmt.Errorf("opt: column %q must appear in GROUP BY or an aggregate", x.Col)
		}
		qi, ci, err := b.q.binder.resolve(x)
		if err != nil {
			return nil, err
		}
		off, ok := offsets[qi]
		if !ok {
			return nil, fmt.Errorf("opt: column %s.%s not available at this point in the plan", x.Table, x.Col)
		}
		return exec.Col{Idx: off + ci}, nil
	case *sqlparse.BinOp:
		if isCmp(x.Op) || x.Op == "AND" || x.Op == "OR" {
			p, err := b.compilePred(x, offsets)
			if err != nil {
				return nil, err
			}
			return exec.PredExpr{P: p}, nil
		}
		l, err := b.compileScalar(x.L, offsets)
		if err != nil {
			return nil, err
		}
		r, err := b.compileScalar(x.R, offsets)
		if err != nil {
			return nil, err
		}
		return exec.Arith{Op: x.Op[0], L: l, R: r}, nil
	case *sqlparse.UnOp:
		if x.Op == "-" {
			inner, err := b.compileScalar(x.E, offsets)
			if err != nil {
				return nil, err
			}
			return exec.Neg{E: inner}, nil
		}
		p, err := b.compilePred(x, offsets)
		if err != nil {
			return nil, err
		}
		return exec.PredExpr{P: p}, nil
	case *sqlparse.FuncCall:
		if aggNames[x.Name] {
			return nil, fmt.Errorf("opt: aggregate %s in a non-aggregated context", x.Name)
		}
		if x.Name == "PROPERTY" {
			if len(x.Args) != 1 || x.Star || x.Distinct {
				return nil, fmt.Errorf("opt: PROPERTY takes exactly one argument")
			}
			if b.benv.Env.Property == nil {
				return nil, fmt.Errorf("opt: PROPERTY is not available in this context")
			}
			arg, err := b.compileScalar(x.Args[0], offsets)
			if err != nil {
				return nil, err
			}
			return propertyExpr{arg: arg, fn: b.benv.Env.Property}, nil
		}
		if x.Name == "ABS" && len(x.Args) == 1 && !x.Star && !x.Distinct {
			arg, err := b.compileScalar(x.Args[0], offsets)
			if err != nil {
				return nil, err
			}
			return exec.Abs{E: arg}, nil
		}
		return nil, fmt.Errorf("opt: unknown function %q", x.Name)
	}
	// Predicates used as scalars.
	p, err := b.compilePred(e, offsets)
	if err != nil {
		return nil, err
	}
	return exec.PredExpr{P: p}, nil
}

// CostOfOrder prices a complete join order with the cost model (used by
// the Eq. 3 rank-preservation experiment to cost forced plans).
func CostOfOrder(q *Query, order []Step, env *Env) float64 {
	env.fill()
	placed := map[int]bool{}
	cost, card := 0.0, 1.0
	for _, st := range order {
		c, oc := env.stepCost(q, placed, card, st)
		cost += c
		card = oc
		placed[st.Quant] = true
	}
	return cost
}
