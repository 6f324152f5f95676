package opt

import (
	"errors"
	"fmt"
	"math"
	"strings"

	"anywheredb/internal/exec"
	"anywheredb/internal/sqlparse"
	"anywheredb/internal/stats"
	"anywheredb/internal/table"
	"anywheredb/internal/val"
)

// Plan is an executable physical plan: one execution's own operator tree.
type Plan struct {
	Root    exec.Operator
	Columns []string
	Cost    float64
	// Enum is the join enumeration that chose the plan's order; nil when the
	// plan was instantiated from a cached template, or nothing was costed.
	Enum *EnumResult
	// HashJoins lists the plan's hash joins (for adaptive-behaviour
	// inspection in tests and experiments).
	HashJoins []*exec.HashJoin
	// Modify is set on an UPDATE or DELETE plan, whose tree finds the target
	// rows: what to do with each of them.
	Modify *Modify

	// params is the plan's parameter vector: every part of the tree that a
	// parameter value enters — an expression, an index-probe key, a zone-map
	// constant, a feedback observer — reads it when the tree runs, so the
	// plan runs again with other values once they are copied in (Rebind).
	params []val.Value
	// est are the optimizer's cardinality estimates at points of the tree
	// (EstRows), derived on demand from the builders that know the points
	// (blocks) and the parameter values: an execution that nobody explains
	// never pays for them.
	est       []estRows
	estimated bool
	blocks    []*blockBuilder
}

type estRows struct {
	op   exec.Operator
	rows float64
}

// Estimate derives the plan's cardinality estimates now, from the statistics
// as they stand: EXPLAIN ANALYZE calls it before it runs the plan, so that
// the estimates it prints are the ones the run had not yet corrected.
func (p *Plan) Estimate() {
	if p.estimated {
		return
	}
	p.estimated = true
	for _, b := range p.blocks {
		b.estimate(p)
	}
}

// EstRows reports the optimizer's estimate of the rows op produces (EXPLAIN
// prints it next to the actuals), if op is a point of the plan that has one:
// an index probe, or the join pipeline after each step — the enumerator's
// cumulative cardinality recurrence, replayed. op is the operator as built:
// exec.Unwrap an instrumented one first.
func (p *Plan) EstRows(op exec.Operator) (float64, bool) {
	p.Estimate()
	for _, e := range p.est {
		if e.op == op {
			return e.rows, true
		}
	}
	return 0, false
}

// BuildEnv carries everything plan construction needs.
type BuildEnv struct {
	Env *Env
	Res Resolver
	// SchemaVersion is the version of the schema Res resolves names in; a
	// Template compiled under it carries it (Template.Version).
	SchemaVersion uint64
	// Ctx is used at build time to materialize CTEs and uncorrelated
	// subqueries.
	Ctx    *exec.Ctx
	Params []val.Value
}

// build is one pass of the one build path over one statement. Compiling
// (rec) binds each block, picks its order and records into the template
// whatever no parameter value entered; instantiating replays the template
// and derives only what depends on a value. Both run the same builder
// functions below, so a plan served from a template is the plan a compile
// with those values would have built, or it is not served (errUnserved).
type build struct {
	*BuildEnv
	// vec is the parameter vector of the plan being built: BuildEnv.Params,
	// copied.
	vec []val.Value
	rec bool
	// forced, when compiling, replaces enumeration for the statement's first
	// block (BuildWithOrder).
	forced []Step
	// volatile: the pass executed part of the statement (a CTE, an
	// uncorrelated subquery) or bound a snapshot of rows, so what it built
	// answers this execution only and the template is not to be kept.
	volatile bool
}

// errUnserved: the template was compiled for parameter values of other
// kinds than these (a number where this execution binds a NULL or a string).
var errUnserved = errors.New("opt: template cannot serve these parameter values")

// blockTemplate is the value-free half of one query block's build: its
// bound block, the order chosen for it, and every compiled expression no
// parameter value entered. It is written only while its statement compiles
// and is immutable from then on.
type blockTemplate struct {
	blk   *Block // nil for SELECT without FROM
	order []Step
	// memo holds the value-free predicates and scalars compiled for the
	// block, by expression and row layout.
	memo map[memoKey]compiled
	agg  *aggregation   // the GROUP BY stage, when value-free
	proj *projection    // the select list, when value-free
	next *blockTemplate // the rest of a UNION chain
	// setCols are the column ordinals an UPDATE's SET clauses assign.
	setCols []int
	// planParams are the parameters the block's WHERE and ON conjuncts read,
	// with the kind of value each had when the block was compiled. The order
	// and the access paths were chosen for estimates made from those values;
	// a value of the same kind is served by them (and the schedule of
	// re-verification catches a drift), a NULL or a value of another kind —
	// no rows, or no sensible estimate — is not: that execution compiles.
	planParams []paramKind
}

type paramKind struct {
	idx  int // 0-based
	kind val.Kind
}

type memoKey struct {
	e      sqlparse.Expr
	layout int
}

type compiled struct {
	pred exec.Pred
	expr exec.Expr
}

type projection struct {
	exprs []exec.Expr
	cols  []string
}

// rowLayout locates the quantifiers' columns in the row an expression is
// compiled against: the join pipeline's row so far, that row joined with one
// more quantifier, or one quantifier alone.
type rowLayout struct {
	offsets []int // the pipeline's: first ordinal per quantifier, -1 = not placed
	plus    int   // a further quantifier, at ordinal plusOff; -1 = none
	plusOff int
	local   bool // the row is quantifier plus alone, at ordinal 0
}

var noRow = rowLayout{plus: -1}

func (l rowLayout) offset(qi int) (int, bool) {
	if qi == l.plus {
		return l.plusOff, true
	}
	if l.local || qi >= len(l.offsets) || l.offsets[qi] < 0 {
		return 0, false
	}
	return l.offsets[qi], true
}

// memoID distinguishes the layouts one expression can be compiled against.
// A quantifier's place in the pipeline row is fixed by the block's order, so
// every pipeline layout is one layout to the memo.
func (l rowLayout) memoID() int {
	if l.local {
		return 1 + l.plus
	}
	return 0
}

// buildSelect builds a SELECT statement: its CTEs, then its blocks.
func (bd *build) buildSelect(sel *sqlparse.Select, bt *blockTemplate) (*Plan, error) {
	var ctes map[string]*MaterializedCTE
	for _, cte := range sel.With {
		m, err := bd.buildCTE(&cte, ctes)
		if err != nil {
			return nil, err
		}
		if ctes == nil {
			ctes = map[string]*MaterializedCTE{}
		}
		ctes[strings.ToLower(cte.Name)] = m
	}
	return bd.buildQueryBlock(sel, ctes, bt)
}

// subquery builds a nested statement (a CTE body, an uncorrelated subquery)
// for the one execution that is about to run it.
func (bd *build) subquery(sel *sqlparse.Select, ctes map[string]*MaterializedCTE, withCTEs bool) (*Plan, error) {
	sub := &build{BuildEnv: bd.BuildEnv, vec: bd.vec, rec: true}
	bd.volatile = true
	if withCTEs {
		return sub.buildSelect(sel, &blockTemplate{})
	}
	return sub.buildQueryBlock(sel, ctes, &blockTemplate{})
}

// buildCTE evaluates one CTE (recursive or not) into rows.
func (bd *build) buildCTE(cte *sqlparse.CTE, outer map[string]*MaterializedCTE) (*MaterializedCTE, error) {
	if !cte.Recursive {
		p, err := bd.subquery(cte.Query, outer, false)
		if err != nil {
			return nil, err
		}
		rows, err := exec.Drain(bd.Ctx, p.Root)
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

	basePlan, err := bd.subquery(&base, outer, false)
	if err != nil {
		return nil, err
	}
	baseRows, err := exec.Drain(bd.Ctx, basePlan.Root)
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
			p, err := bd.subquery(recursive, inner, false)
			if err != nil {
				return &errOp{err}
			}
			return p.Root
		},
	}
	rows, err := exec.Drain(bd.Ctx, ru)
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
func (bd *build) buildQueryBlock(sel *sqlparse.Select, ctes map[string]*MaterializedCTE, bt *blockTemplate) (*Plan, error) {
	b, root, err := bd.buildSingle(sel, ctes, bt)
	if err != nil {
		return nil, err
	}
	plan := b.plan
	sortKey := b.sortKeyExpr
	if sel.Union != nil {
		if bd.rec {
			bt.next = &blockTemplate{}
		}
		rest := *sel.Union
		restPlan, err := bd.buildQueryBlock(&rest, ctes, bt.next)
		if err != nil {
			return nil, err
		}
		root = &exec.UnionAll{Inputs: []exec.Operator{b.project(root), restPlan.Root}}
		if !sel.UnionAll {
			root = &exec.HashDistinct{Input: root}
		}
		plan.HashJoins = append(plan.HashJoins, restPlan.HashJoins...)
		plan.blocks = append(plan.blocks, restPlan.blocks...)
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

// blockBuilder builds one SELECT block, or an UPDATE/DELETE's target block.
type blockBuilder struct {
	bd   *build
	t    *blockTemplate
	sel  *sqlparse.Select
	q    *Query
	plan *Plan
	// offsets is the pipeline's row layout so far: first ordinal per
	// quantifier, -1 = not placed; width is the row's.
	offsets []int
	width   int
	// query and offBuf back q and (for a block of few quantifiers) offsets.
	query  Query
	offBuf [4]int
	// Once the block is aggregated, expressions compile against the
	// HashGroupBy's output: groupCols maps canonical group-by expression
	// strings to its ordinals, aggCols canonical aggregate calls.
	groupCols  map[string]int
	aggCols    map[string]int
	aggregated bool
	// exprs are the block's projection, compiled against its unprojected
	// rows; plan.Columns names them.
	exprs []exec.Expr
	// deps counts the value dependencies met while compiling: parameters
	// read (from this plan's vector), subqueries run. An expression that
	// met none is value-free, and the template keeps it.
	deps int
	// sites are the points of the tree that have a cardinality estimate, in
	// pipeline order (estimate); siteBuf backs the first few.
	sites   []estSite
	siteBuf [3]estSite
}

// estSite is one operator with an estimate, and how to derive it.
type estSite struct {
	op   exec.Operator
	kind estKind
	qi   int       // estProbe, estScan: the quantifier
	cj   *Conjunct // estProbe: the probing conjunct
	step Step      // estStep
}

type estKind uint8

const (
	estProbe estKind = iota // an index probe: rows × the conjunct's selectivity
	estScan                 // a DML target heap scan: the table's rows
	estStep                 // the pipeline after one more step of the order
	estGate                 // the pipeline behind its gate: as before it
)

func (b *blockBuilder) site(s estSite) {
	if b.sites == nil {
		b.sites = b.siteBuf[:0]
		b.plan.blocks = append(b.plan.blocks, b)
	}
	b.sites = append(b.sites, s)
}

// estimate replays the enumerator's cardinality recurrence over the block's
// sites, in the order they were built.
func (b *blockBuilder) estimate(p *Plan) {
	q, env := b.q, b.bd.Env
	var placed map[int]bool
	card := 1.0
	for _, s := range b.sites {
		switch s.kind {
		case estProbe:
			p.est = append(p.est, estRows{s.op, q.probeRows(s.qi, s.cj)})
			continue
		case estScan:
			p.est = append(p.est, estRows{s.op, q.Quants[s.qi].Cardinality()})
			continue
		case estStep:
			if placed == nil {
				placed = map[int]bool{}
				card = math.Max(q.LocalCardinality(s.step.Quant), 1)
			} else {
				_, card = env.stepCost(q, placed, card, s.step)
			}
			placed[s.step.Quant] = true
		}
		p.est = append(p.est, estRows{s.op, card})
	}
}

// bindOrder gives the builder its block: binding sel and choosing its order
// when compiling, from the template otherwise (sel is then not read) —
// unless the template was compiled for other kinds of values than this
// execution's (errUnserved).
func (b *blockBuilder) bindOrder(sel *sqlparse.Select, ctes map[string]*MaterializedCTE, choose func() ([]Step, error)) error {
	bd, t := b.bd, b.t
	if bd.rec {
		blk, err := bindBlock(sel, bd.Res, ctes)
		if err != nil {
			return err
		}
		t.blk = blk
		bd.volatile = bd.volatile || blk.volatile
		for _, cj := range blk.Conj {
			sqlparse.WalkExpr(cj.Expr, func(e sqlparse.Expr) bool {
				if p, ok := e.(*sqlparse.Param); ok && p.Idx >= 1 && p.Idx <= len(bd.vec) {
					t.planParams = append(t.planParams, paramKind{p.Idx - 1, bd.vec[p.Idx-1].Kind})
				}
				return true
			})
		}
	}
	if !t.serves(bd.vec) {
		return errUnserved
	}
	b.query = Query{Block: t.blk, Params: bd.vec}
	b.q = &b.query
	if n := len(t.blk.Quants); n <= len(b.offBuf) {
		b.offsets = b.offBuf[:n]
	} else {
		b.offsets = make([]int, n)
	}
	for i := range b.offsets {
		b.offsets[i] = -1
	}
	if bd.rec {
		order, err := choose()
		if err != nil {
			return err
		}
		t.order = order
	}
	return nil
}

// row is the pipeline's row as it stands; rowWith, that row joined with
// quantifier qi; rowOf, quantifier qi alone.
func (b *blockBuilder) row() rowLayout { return rowLayout{offsets: b.offsets, plus: -1} }
func (b *blockBuilder) rowWith(qi int) rowLayout {
	return rowLayout{offsets: b.offsets, plus: qi, plusOff: b.width}
}
func rowOf(qi int) rowLayout { return rowLayout{plus: qi, local: true} }

// buildSingle builds one block up to, not including, its projection: the
// join pipeline, aggregation and HAVING. It returns the unprojected root.
func (bd *build) buildSingle(sel *sqlparse.Select, ctes map[string]*MaterializedCTE, bt *blockTemplate) (*blockBuilder, exec.Operator, error) {
	b := &blockBuilder{bd: bd, t: bt, sel: sel, plan: &Plan{}}

	var root exec.Operator
	if sel.From == nil {
		// SELECT without FROM: one empty row under the projection.
		root = &exec.Values{Rows: [][]exec.Expr{{}}}
		if sel.Where != nil {
			p, err := b.pred(sel.Where, noRow)
			if err != nil {
				return nil, nil, err
			}
			root = &exec.Filter{Input: root, Pred: p}
		}
	} else {
		err := b.bindOrder(sel, ctes, func() ([]Step, error) {
			if forced := bd.forced; forced != nil {
				bd.forced = nil
				return forced, nil
			}
			res, err := Enumerate(b.q, bd.Env)
			if err != nil {
				return nil, err
			}
			b.plan.Enum, b.plan.Cost = res, res.Cost
			return res.Order, nil
		})
		if err != nil {
			return nil, nil, err
		}
		if root, err = b.buildPipeline(bt.order); err != nil {
			return nil, nil, err
		}
		if root, err = b.buildAggregation(root); err != nil {
			return nil, nil, err
		}
		if sel.Having != nil {
			p, err := b.pred(sel.Having, b.row())
			if err != nil {
				return nil, nil, err
			}
			root = &exec.Filter{Input: root, Pred: p}
		}
	}
	if err := b.buildProjection(); err != nil {
		return nil, nil, err
	}
	return b, root, nil
}

// buildProjection compiles the select list against the block's unprojected
// rows into b.exprs and names the columns.
func (b *blockBuilder) buildProjection() error {
	if p := b.t.proj; p != nil {
		b.exprs, b.plan.Columns = p.exprs, p.cols
		return nil
	}
	sel, before := b.sel, b.deps
	for i, item := range sel.Items {
		if item.Star {
			if sel.From == nil {
				return fmt.Errorf("opt: SELECT * requires FROM")
			}
			for _, st := range b.t.order {
				for ci, col := range b.q.Quants[st.Quant].Columns() {
					b.exprs = append(b.exprs, exec.Col{Idx: b.offsets[st.Quant] + ci})
					b.plan.Columns = append(b.plan.Columns, col.Name)
				}
			}
			continue
		}
		e, err := b.scalar(item.Expr, b.row())
		if err != nil {
			return err
		}
		b.exprs = append(b.exprs, e)
		b.plan.Columns = append(b.plan.Columns, itemName(item, i))
	}
	if b.bd.rec && b.deps == before {
		b.t.proj = &projection{exprs: b.exprs, cols: b.plan.Columns}
	}
	return nil
}

// project puts the block's projection (and DISTINCT) over its rows.
func (b *blockBuilder) project(root exec.Operator) exec.Operator {
	root = &exec.Project{Input: root, Exprs: b.exprs}
	if b.sel.Distinct {
		root = &exec.HashDistinct{Input: root}
	}
	return root
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
				pos += b.width
				continue
			}
			if strings.EqualFold(itemName(item, i), c.Col) {
				return b.exprs[pos], nil
			}
			pos++
		}
	}
	return b.scalar(e, b.row())
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

// place appends quantifier qi to the pipeline's row.
func (b *blockBuilder) place(qi int) {
	b.offsets[qi] = b.width
	b.width += len(b.q.Quants[qi].Columns())
}

// buildPipeline assembles the left-deep join tree for the chosen order.
func (b *blockBuilder) buildPipeline(order []Step) (exec.Operator, error) {
	q := b.q
	var root exec.Operator
	// applied marks, by position in q.Conj, the conjuncts some operator
	// already evaluates; allocated at its first mark.
	var applied []bool

	for stepIdx, st := range order {
		qt := q.Quants[st.Quant]

		if stepIdx == 0 {
			acc, err := b.accessOp(st)
			if err != nil {
				return nil, err
			}
			root = acc
		} else {
			joined, err := b.joinStep(root, st, depthJoins+len(order)-1-stepIdx, &applied)
			if err != nil {
				return nil, err
			}
			root = joined
		}
		b.place(st.Quant)

		// Apply multi-quantifier conjuncts as soon as every referenced
		// quantifier is placed (outer-join ON residuals are handled at the
		// join itself).
		for ci, cj := range q.Conj {
			if cj.Class == LocalPred || cj.FromOn || isApplied(applied, ci) {
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
			p, err := b.pred(cj.Expr, b.row())
			if err != nil {
				return nil, err
			}
			root = &exec.Filter{Input: root, Pred: p}
			markApplied(&applied, q, ci)
		}

		// WHERE predicates on null-supplied quantifiers apply after their
		// join.
		if qt.NullSupplied {
			for ci, cj := range q.Conj {
				if cj.Class != LocalPred || cj.FromOn || !cj.Quants[st.Quant] || isApplied(applied, ci) {
					continue
				}
				p, err := b.pred(cj.Expr, b.row())
				if err != nil {
					return nil, err
				}
				root = &exec.Filter{Input: root, Pred: p}
				markApplied(&applied, q, ci)
			}
		}

		b.site(estSite{op: root, kind: estStep, step: st})
	}

	// A WHERE conjunct that references no quantifier (1 = 0, ? = 1, an
	// uncorrelated EXISTS) belongs to no access path and no join: together
	// they gate the whole pipeline, as one Filter at its root.
	var gate exec.Pred
	for _, cj := range q.Conj {
		if len(cj.Quants) > 0 || cj.FromOn {
			continue
		}
		p, err := b.pred(cj.Expr, b.row())
		if err != nil {
			return nil, err
		}
		if gate == nil {
			gate = p
		} else {
			gate = exec.And{L: gate, R: p}
		}
	}
	if gate != nil {
		root = &exec.Filter{Input: root, Pred: gate}
		b.site(estSite{op: root, kind: estGate})
	}
	return root, nil
}

func isApplied(applied []bool, ci int) bool { return applied != nil && applied[ci] }

func markApplied(applied *[]bool, q *Query, ci int) {
	if *applied == nil {
		*applied = make([]bool, len(q.Conj))
	}
	(*applied)[ci] = true
}

func (b *blockBuilder) placed(qi int) bool { return b.offsets[qi] >= 0 }

// accessOp builds the access operator for one quantifier including its
// local predicates (with feedback observers wired to the self-managing
// histograms).
func (b *blockBuilder) accessOp(st Step) (exec.Operator, error) {
	q := b.q
	qt := q.Quants[st.Quant]

	var op exec.Operator
	var probed *Conjunct
	if qt.Table == nil {
		op = &exec.Materialized{RowsData: qt.Rows}
	} else if st.Index != nil {
		// Sargable equality on the index prefix.
		if ix, cj := q.equalityProbe(st.Quant); ix == st.Index {
			var err error
			if op, err = b.probeOp(st.Quant, ix, cj, false); err != nil {
				return nil, err
			}
			probed = cj
		}
	}
	if op == nil {
		var err error
		if op, err = b.tableScanOp(st); err != nil {
			return nil, err
		}
	}

	// Residual local predicates.
	for _, cj := range q.LocalConjunctsOf(st.Quant) {
		if cj == probed {
			continue
		}
		p, err := b.pred(cj.Expr, rowOf(st.Quant))
		if err != nil {
			return nil, err
		}
		obs, err := b.observerFor(cj)
		if err != nil {
			return nil, err
		}
		op = &exec.Filter{Input: op, Pred: p, Obs: obs}
	}
	return op, nil
}

// probeOp builds the index probe equalityProbe found for quantifier qi
// through conjunct cj, with its estimate: for SELECT and DML alike (a DML
// target probe yields RIDs only). The key is the conjunct's constant, which
// the scan encodes when it opens.
func (b *blockBuilder) probeOp(qi int, ix *table.Index, cj *Conjunct, ridsOnly bool) (exec.Operator, error) {
	_, k, _, _ := colOpConst(b.q, cj.Expr.(*sqlparse.BinOp))
	key, err := b.scalar(k, noRow)
	if err != nil {
		return nil, err
	}
	op := &exec.IndexScan{Table: b.q.Quants[qi].Table, Index: ix, Key: key, RIDsOnly: ridsOnly}
	b.site(estSite{op: op, kind: estProbe, qi: qi, cj: cj})
	return op, nil
}

// tableScanOp builds a heap/columnar table scan, pushing one sargable
// local conjunct (col <op> const) down as a zone-map hint: when the table
// carries sealed column segments, segments whose min/max range cannot
// satisfy the conjunct are skipped before decode. The conjunct is NOT
// consumed — the exact Filter above the scan still evaluates it — so the
// hint can only remove guaranteed non-matches. Equality is preferred (the
// tightest zone test); otherwise the first range comparison wins.
func (b *blockBuilder) tableScanOp(st Step) (exec.Operator, error) {
	q := b.q
	qt := q.Quants[st.Quant]
	scan := &exec.TableScan{Table: qt.Table, ZoneCol: -1}
	var zone sqlparse.Expr
	for _, cj := range q.LocalConjunctsOf(st.Quant) {
		x, ok := cj.Expr.(*sqlparse.BinOp)
		if !ok {
			continue
		}
		col, k, opName, ok := colOpConst(q, x)
		if !ok {
			continue
		}
		switch opName {
		case "=", "<>", "<", "<=", ">", ">=":
		default:
			continue
		}
		if scan.ZoneOp == "" || (opName == "=" && scan.ZoneOp != "=") {
			scan.ZoneCol, scan.ZoneOp, zone = col.C, opName, k
		}
		if scan.ZoneOp == "=" {
			break
		}
	}
	if zone != nil {
		var err error
		if scan.ZoneConst, err = b.scalar(zone, noRow); err != nil {
			return nil, err
		}
	}
	return scan, nil
}

// observerFor wires execution feedback into the histogram of the predicate
// column (§3.2: evaluation of almost any predicate over a base column can
// update its histogram). The predicate's constants are read when the
// feedback arrives, so that a plan run with other values reports on them.
func (b *blockBuilder) observerFor(cj *Conjunct) (exec.Observer, error) {
	q := b.q
	switch x := cj.Expr.(type) {
	case *sqlparse.BinOp:
		col, k, op, ok := colOpConst(q, x)
		if !ok {
			return nil, nil
		}
		h := q.histOf(col)
		if h == nil {
			return nil, nil
		}
		kx, err := b.scalar(k, noRow)
		if err != nil {
			return nil, err
		}
		switch op {
		case "=":
			return func(m, n float64) { h.ObserveEq(constVal(kx), m, n) }, nil
		case "<":
			return func(m, n float64) { v := constVal(kx); h.ObserveRange(nil, &v, false, false, m, n) }, nil
		case "<=":
			return func(m, n float64) { v := constVal(kx); h.ObserveRange(nil, &v, false, true, m, n) }, nil
		case ">":
			return func(m, n float64) { v := constVal(kx); h.ObserveRange(&v, nil, false, false, m, n) }, nil
		case ">=":
			return func(m, n float64) { v := constVal(kx); h.ObserveRange(&v, nil, true, false, m, n) }, nil
		}
	case *sqlparse.Between:
		col, ok := singleCol(q.Block, x.E)
		if !ok || x.Neg {
			return nil, nil
		}
		_, lok := q.constOf(x.Lo)
		_, hok := q.constOf(x.Hi)
		if !lok || !hok {
			return nil, nil
		}
		h := q.histOf(col)
		if h == nil {
			return nil, nil
		}
		lx, err := b.scalar(x.Lo, noRow)
		if err != nil {
			return nil, err
		}
		hx, err := b.scalar(x.Hi, noRow)
		if err != nil {
			return nil, err
		}
		return func(m, n float64) {
			lo, hi := constVal(lx), constVal(hx)
			h.ObserveRange(&lo, &hi, true, true, m, n)
		}, nil
	case *sqlparse.Like:
		col, ok := singleCol(q.Block, x.E)
		if !ok || x.Neg {
			return nil, nil
		}
		if _, pok := q.constOf(x.Pattern); !pok {
			return nil, nil
		}
		ss := q.strStatsOf(col)
		if ss == nil {
			return nil, nil
		}
		px, err := b.scalar(x.Pattern, noRow)
		if err != nil {
			return nil, err
		}
		return func(m, n float64) {
			if n > 0 {
				ss.Observe(stats.OpLike, constVal(px).S, m/n)
			}
		}, nil
	}
	return nil, nil
}

// constVal evaluates a compiled constant: a literal, a parameter, or the
// negation of a number (what constOf recognises).
func constVal(e exec.Expr) val.Value {
	v, _ := e.Eval(nil)
	return v
}

// joinStep builds the join placing st.Quant onto the accumulated tree.
// Conjuncts it consumes (join keys, NLJ predicates) are recorded in
// applied so the caller does not re-filter them.
func (b *blockBuilder) joinStep(acc exec.Operator, st Step, depth int, applied *[]bool) (exec.Operator, error) {
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
			markApplied(applied, q, cj.pos)
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
				markApplied(applied, q, cj.pos)
				continue
			}
			p, err := b.pred(cj.Expr, b.rowWith(st.Quant))
			if err != nil {
				return nil, err
			}
			if pred == nil {
				pred = p
			} else {
				pred = exec.And{L: pred, R: p}
			}
			markApplied(applied, q, cj.pos)
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
			markApplied(applied, q, cj.pos)
			p, err := b.pred(cj.Expr, b.rowWith(st.Quant))
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

// altResidual compiles the ON residual predicate for INL-style probes: the
// local ON predicates of the null-supplied quantifier bound at the probe
// row offset (acc ⊕ q).
func (b *blockBuilder) altResidual(qi int) exec.Pred {
	q := b.q
	var pred exec.Pred
	for _, cj := range q.LocalConjunctsOf(qi) {
		p, err := b.pred(cj.Expr, b.rowWith(qi))
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
	env := b.bd.Env
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

// aggregation is a block's GROUP BY stage: its compiled keys and
// aggregates, and the ordinals of the aggregated row that group-by
// expressions and aggregate calls are read from. none: the block does not
// aggregate.
type aggregation struct {
	none               bool
	keys               []exec.Expr
	aggs               []exec.AggSpec
	groupCols, aggCols map[string]int
}

// buildAggregation inserts a HashGroupBy when the block aggregates. From
// here on the block's expressions compile against the aggregated row.
func (b *blockBuilder) buildAggregation(root exec.Operator) (exec.Operator, error) {
	a := b.t.agg
	if a == nil {
		before := b.deps
		var err error
		if a, err = b.compileAggregation(); err != nil {
			return nil, err
		}
		if b.bd.rec && b.deps == before {
			b.t.agg = a
		}
	}
	if a.none {
		return root, nil
	}
	b.aggregated, b.groupCols, b.aggCols = true, a.groupCols, a.aggCols
	return &exec.HashGroupBy{Input: root, Keys: a.keys, Aggs: a.aggs, Depth: depthGroupBy}, nil
}

func (b *blockBuilder) compileAggregation() (*aggregation, error) {
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
		return &aggregation{none: true}, nil
	}
	for _, oi := range sel.OrderBy {
		above = append(above, oi.Expr)
	}
	a := &aggregation{groupCols: map[string]int{}, aggCols: map[string]int{}}

	for i, ge := range sel.GroupBy {
		e, err := b.compileScalar(ge, b.row())
		if err != nil {
			return nil, err
		}
		a.keys = append(a.keys, e)
		a.groupCols[exprKey(ge)] = i
	}

	addAgg := func(fc *sqlparse.FuncCall) error {
		k := exprKey(fc)
		if _, ok := a.aggCols[k]; ok {
			return nil
		}
		spec, err := b.aggSpec(fc)
		if err != nil {
			return err
		}
		a.aggCols[k] = len(a.keys) + len(a.aggs)
		a.aggs = append(a.aggs, spec)
		return nil
	}
	for _, e := range above {
		if err := walkAggregates(e, addAgg); err != nil {
			return nil, err
		}
	}
	return a, nil
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
	arg, err := b.compileScalar(fc.Args[0], b.row())
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

// paramExpr compiles a parameter to a read of the plan's vector.
func (b *blockBuilder) paramExpr(p *sqlparse.Param) (exec.Expr, error) {
	idx := p.Idx - 1
	if idx < 0 || idx >= len(b.bd.vec) {
		return nil, fmt.Errorf("opt: parameter %d not supplied", p.Idx)
	}
	b.deps++
	return exec.Param{V: &b.bd.vec[idx]}, nil
}

// pred and scalar are how the builder compiles a predicate or a value
// expression that stands on its own in the plan — a conjunct, a select item,
// a SET right-hand side. What the statement's compile found value-free comes
// from the template; anything else is compiled now, with the execution's
// values as constants, and while compiling is recorded if no value entered.
func (b *blockBuilder) pred(e sqlparse.Expr, row rowLayout) (exec.Pred, error) {
	key := memoKey{e, row.memoID()}
	if c, ok := b.t.memo[key]; ok && c.pred != nil {
		return c.pred, nil
	}
	before := b.deps
	p, err := b.compilePred(e, row)
	if err == nil && b.bd.rec && b.deps == before {
		b.record(key, compiled{pred: p})
	}
	return p, err
}

func (b *blockBuilder) scalar(e sqlparse.Expr, row rowLayout) (exec.Expr, error) {
	key := memoKey{e, row.memoID()}
	if c, ok := b.t.memo[key]; ok && c.expr != nil {
		return c.expr, nil
	}
	before := b.deps
	x, err := b.compileScalar(e, row)
	if err == nil && b.bd.rec && b.deps == before {
		b.record(key, compiled{expr: x})
	}
	return x, err
}

func (b *blockBuilder) record(key memoKey, c compiled) {
	if b.t.memo == nil {
		b.t.memo = map[memoKey]compiled{}
	}
	b.t.memo[key] = c
}

// compilePred compiles a predicate over the rows row describes or, once the
// block is aggregated, over the aggregated row.
func (b *blockBuilder) compilePred(e sqlparse.Expr, row rowLayout) (exec.Pred, error) {
	switch x := e.(type) {
	case *sqlparse.BinOp:
		switch x.Op {
		case "AND", "OR":
			l, err := b.compilePred(x.L, row)
			if err != nil {
				return nil, err
			}
			r, err := b.compilePred(x.R, row)
			if err != nil {
				return nil, err
			}
			if x.Op == "AND" {
				return exec.And{L: l, R: r}, nil
			}
			return exec.Or{L: l, R: r}, nil
		}
		if isCmp(x.Op) {
			l, err := b.compileScalar(x.L, row)
			if err != nil {
				return nil, err
			}
			r, err := b.compileScalar(x.R, row)
			if err != nil {
				return nil, err
			}
			return exec.Cmp{Op: x.Op, L: l, R: r}, nil
		}
		return nil, fmt.Errorf("opt: %q is not a predicate", x.Op)
	case *sqlparse.UnOp:
		if x.Op == "NOT" {
			p, err := b.compilePred(x.E, row)
			if err != nil {
				return nil, err
			}
			return exec.Not{P: p}, nil
		}
		return nil, fmt.Errorf("opt: %q is not a predicate", x.Op)
	case *sqlparse.IsNull:
		inner, err := b.compileScalar(x.E, row)
		if err != nil {
			return nil, err
		}
		return exec.IsNullPred{E: inner, Neg: x.Neg}, nil
	case *sqlparse.Between:
		inner, err := b.compileScalar(x.E, row)
		if err != nil {
			return nil, err
		}
		lo, err := b.compileScalar(x.Lo, row)
		if err != nil {
			return nil, err
		}
		hi, err := b.compileScalar(x.Hi, row)
		if err != nil {
			return nil, err
		}
		return exec.BetweenPred{E: inner, Lo: lo, Hi: hi, Neg: x.Neg}, nil
	case *sqlparse.Like:
		inner, err := b.compileScalar(x.E, row)
		if err != nil {
			return nil, err
		}
		pat, err := b.compileScalar(x.Pattern, row)
		if err != nil {
			return nil, err
		}
		return exec.LikePred{E: inner, Pattern: pat, Neg: x.Neg}, nil
	case *sqlparse.InList:
		inner, err := b.compileScalar(x.E, row)
		if err != nil {
			return nil, err
		}
		var list []exec.Expr
		for _, le := range x.List {
			ce, err := b.compileScalar(le, row)
			if err != nil {
				return nil, err
			}
			list = append(list, ce)
		}
		return exec.InListPred{E: inner, List: list, Neg: x.Neg}, nil
	case *sqlparse.InSelect:
		return b.compileInSelect(x, row)
	case *sqlparse.Exists:
		return b.compileExists(x)
	}
	return nil, fmt.Errorf("opt: unsupported predicate %T", e)
}

// compileInSelect materializes an uncorrelated IN-subquery into a hash set
// — effectively converting the subquery into a (semi) hash join, the
// cost-based rewriting of §4.1 in its simplest form.
func (b *blockBuilder) compileInSelect(x *sqlparse.InSelect, row rowLayout) (exec.Pred, error) {
	inner, err := b.compileScalar(x.E, row)
	if err != nil {
		return nil, err
	}
	b.deps++
	sub, err := b.bd.subquery(x.Sub, nil, true)
	if err != nil {
		return nil, fmt.Errorf("opt: IN subquery: %w (correlated subqueries are not supported)", err)
	}
	rows, err := exec.Drain(b.bd.Ctx, sub.Root)
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
	b.deps++
	sub, err := b.bd.subquery(&limited, nil, true)
	if err != nil {
		return nil, fmt.Errorf("opt: EXISTS subquery: %w (correlated subqueries are not supported)", err)
	}
	rows, err := exec.Drain(b.bd.Ctx, sub.Root)
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
func (b *blockBuilder) compileScalar(e sqlparse.Expr, row rowLayout) (exec.Expr, error) {
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
		off, ok := row.offset(qi)
		if !ok {
			return nil, fmt.Errorf("opt: column %s.%s not available at this point in the plan", x.Table, x.Col)
		}
		return exec.Col{Idx: off + ci}, nil
	case *sqlparse.BinOp:
		if isCmp(x.Op) || x.Op == "AND" || x.Op == "OR" {
			p, err := b.compilePred(x, row)
			if err != nil {
				return nil, err
			}
			return exec.PredExpr{P: p}, nil
		}
		l, err := b.compileScalar(x.L, row)
		if err != nil {
			return nil, err
		}
		r, err := b.compileScalar(x.R, row)
		if err != nil {
			return nil, err
		}
		return exec.Arith{Op: x.Op[0], L: l, R: r}, nil
	case *sqlparse.UnOp:
		if x.Op == "-" {
			inner, err := b.compileScalar(x.E, row)
			if err != nil {
				return nil, err
			}
			return exec.Neg{E: inner}, nil
		}
		p, err := b.compilePred(x, row)
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
			if b.bd.Env.Property == nil {
				return nil, fmt.Errorf("opt: PROPERTY is not available in this context")
			}
			arg, err := b.compileScalar(x.Args[0], row)
			if err != nil {
				return nil, err
			}
			return propertyExpr{arg: arg, fn: b.bd.Env.Property}, nil
		}
		if x.Name == "ABS" && len(x.Args) == 1 && !x.Star && !x.Distinct {
			arg, err := b.compileScalar(x.Args[0], row)
			if err != nil {
				return nil, err
			}
			return exec.Abs{E: arg}, nil
		}
		return nil, fmt.Errorf("opt: unknown function %q", x.Name)
	}
	// Predicates used as scalars.
	p, err := b.compilePred(e, row)
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
