// Package opt implements the cost-based query optimizer of §4.1: semantic
// binding, predicate analysis with histogram-based selectivity estimation,
// a branch-and-bound depth-first left-deep join enumerator under an
// optimizer governor that distributes a quota of search effort, a Disk
// Transfer Time cost model, memory-aware operator annotations, and a plan
// cache with a training period and decaying-logarithmic re-verification.
package opt

import (
	"fmt"
	"math"
	"strings"

	"anywheredb/internal/sqlparse"
	"anywheredb/internal/stats"
	"anywheredb/internal/table"
	"anywheredb/internal/val"
)

// Quant is one quantifier (table reference) in the query.
type Quant struct {
	Idx   int
	Alias string
	Table *table.Table // nil for materialized sources (CTEs)
	// Rows/Cols back a materialized source.
	Rows [][]val.Value
	Cols []table.Column
	// NullSupplied marks the null-supplied side of a LEFT OUTER JOIN; it
	// must be placed after every quantifier it depends on.
	NullSupplied bool
	// OuterDeps are quantifier indexes that must precede this one (the
	// preserved side of its outer join).
	OuterDeps []int
}

// Columns reports the quantifier's column metadata.
func (q *Quant) Columns() []table.Column {
	if q.Table != nil {
		return q.Table.Columns
	}
	return q.Cols
}

// Cardinality estimates the quantifier's base row count.
func (q *Quant) Cardinality() float64 {
	if q.Table != nil {
		return float64(q.Table.RowCount())
	}
	return float64(len(q.Rows))
}

// PredClass classifies a conjunct.
type PredClass int

const (
	// LocalPred references a single quantifier.
	LocalPred PredClass = iota
	// EquiJoinPred is q1.c = q2.c.
	EquiJoinPred
	// ComplexPred references several quantifiers without being a simple
	// equijoin.
	ComplexPred
)

// Conjunct is one analyzed predicate conjunct.
type Conjunct struct {
	Expr  sqlparse.Expr
	Class PredClass
	// Quants is the set of referenced quantifier indexes.
	Quants map[int]bool
	// For EquiJoinPred: the two column references.
	LQ, LC int
	RQ, RC int
	// FromOn marks ON-clause conjuncts of an outer join (they must not be
	// pushed below the join for the preserved side, and they bind to the
	// join itself).
	FromOn bool
	// OnRight is the null-supplied quantifier for FromOn conjuncts.
	OnRight int
	pos     int // position in Block.Conj
}

// Block is a bound query block: what binding finds in the catalog and in
// the statement's structure, and nothing that depends on a parameter's
// value. It is immutable once Bind returns, so a Template holds one and
// every execution reads it.
type Block struct {
	Quants  []*Quant
	Conj    []*Conjunct
	Select  *sqlparse.Select
	binder  *binder
	Net     map[int]map[int]bool // equijoin connectivity graph
	Catalog Resolver
	// local[qi] are quantifier qi's local conjuncts (LocalConjunctsOf).
	local [][]*Conjunct
	// volatile: a quantifier is a snapshot of rows taken at bind time (a CTE,
	// a sys.* table), so the block describes one execution only.
	volatile bool
}

// Query is a Block under one execution's parameter values. To the optimizer
// a parameter is its value: everything derived from a constant — a
// selectivity, an index-probe key, a zone-map bound — is derived through
// constOf, which treats `?` exactly like a literal. A Query is built per
// compile and per instantiation and is never shared.
type Query struct {
	*Block
	Params []val.Value

	// Memoized estimates: join histograms and local cardinalities are
	// stable for the duration of one optimization, and the enumerator
	// prices thousands of candidates.
	selCache  map[*Conjunct]float64
	cardCache []float64 // by quantifier; 0 = not computed (an estimate is >= 1)
}

// Resolver looks tables up by name.
type Resolver interface {
	Table(name string) (*table.Table, bool)
}

// binder resolves column names to (quantifier, column) pairs.
type binder struct {
	quants []*Quant
}

func (b *binder) resolve(c *sqlparse.ColRef) (int, int, error) {
	if c.Table != "" {
		for _, q := range b.quants {
			if strings.EqualFold(q.Alias, c.Table) {
				for ci, col := range q.Columns() {
					if strings.EqualFold(col.Name, c.Col) {
						return q.Idx, ci, nil
					}
				}
				return 0, 0, fmt.Errorf("opt: column %s.%s not found", c.Table, c.Col)
			}
		}
		return 0, 0, fmt.Errorf("opt: unknown table alias %q", c.Table)
	}
	found := -1
	foundCol := -1
	for _, q := range b.quants {
		for ci, col := range q.Columns() {
			if strings.EqualFold(col.Name, c.Col) {
				if found >= 0 {
					return 0, 0, fmt.Errorf("opt: ambiguous column %q", c.Col)
				}
				found, foundCol = q.Idx, ci
			}
		}
	}
	if found < 0 {
		return 0, 0, fmt.Errorf("opt: column %q not found", c.Col)
	}
	return found, foundCol, nil
}

// Bind performs semantic analysis of a SELECT: it flattens the FROM tree
// into quantifiers, gathers WHERE and ON conjuncts, and classifies them.
// cteSources maps CTE names to materialized rows; params are the bound
// parameter values the returned Query reads the block under.
func Bind(sel *sqlparse.Select, res Resolver, cteSources map[string]*MaterializedCTE, params []val.Value) (*Query, error) {
	blk, err := bindBlock(sel, res, cteSources)
	if err != nil {
		return nil, err
	}
	return &Query{Block: blk, Params: params}, nil
}

func bindBlock(sel *sqlparse.Select, res Resolver, cteSources map[string]*MaterializedCTE) (*Block, error) {
	q := &Block{Select: sel, Net: map[int]map[int]bool{}, Catalog: res}
	b := &binder{}
	q.binder = b

	var onConjs []*Conjunct
	var flatten func(fi sqlparse.FromItem) ([]int, error)
	flatten = func(fi sqlparse.FromItem) ([]int, error) {
		switch f := fi.(type) {
		case *sqlparse.BaseTable:
			alias := f.Alias
			if alias == "" {
				alias = f.Name
			}
			quant := &Quant{Idx: len(b.quants), Alias: alias}
			if cte, ok := cteSources[strings.ToLower(f.Name)]; ok {
				quant.Rows = cte.Rows
				quant.Cols = cte.Cols
				q.volatile = true
			} else if cols, rows, ok := lookupVirtual(res, f.Name); ok {
				// Virtual tables (sys.properties) bind as a materialized
				// snapshot taken at optimization time.
				quant.Rows = rows
				quant.Cols = cols
				q.volatile = true
			} else {
				tbl, ok := res.Table(f.Name)
				if !ok {
					return nil, fmt.Errorf("opt: table %q not found", f.Name)
				}
				quant.Table = tbl
			}
			b.quants = append(b.quants, quant)
			q.Quants = append(q.Quants, quant)
			return []int{quant.Idx}, nil
		case *sqlparse.Join:
			left, err := flatten(f.Left)
			if err != nil {
				return nil, err
			}
			right, err := flatten(f.Right)
			if err != nil {
				return nil, err
			}
			if f.Kind == sqlparse.LeftOuterJoin {
				if len(right) != 1 {
					return nil, fmt.Errorf("opt: LEFT OUTER JOIN right side must be a single table")
				}
				rq := q.Quants[right[0]]
				rq.NullSupplied = true
				rq.OuterDeps = append(rq.OuterDeps, left...)
			}
			if f.On != nil {
				for _, c := range splitConjuncts(f.On) {
					cj, err := q.analyze(c)
					if err != nil {
						return nil, err
					}
					if f.Kind == sqlparse.LeftOuterJoin {
						cj.FromOn = true
						cj.OnRight = right[0]
					}
					onConjs = append(onConjs, cj)
				}
			}
			return append(left, right...), nil
		}
		return nil, fmt.Errorf("opt: unsupported FROM item %T", fi)
	}

	if sel.From != nil {
		if _, err := flatten(sel.From); err != nil {
			return nil, err
		}
	}
	q.Conj = append(q.Conj, onConjs...)
	if sel.Where != nil {
		for _, c := range splitConjuncts(sel.Where) {
			cj, err := q.analyze(c)
			if err != nil {
				return nil, err
			}
			q.Conj = append(q.Conj, cj)
		}
	}
	// Connectivity graph from equijoins (used for Cartesian deferral).
	for _, cj := range q.Conj {
		if cj.Class == EquiJoinPred {
			addEdge(q.Net, cj.LQ, cj.RQ)
		} else if cj.Class == ComplexPred {
			var qs []int
			for qi := range cj.Quants {
				qs = append(qs, qi)
			}
			for i := 0; i < len(qs); i++ {
				for k := i + 1; k < len(qs); k++ {
					addEdge(q.Net, qs[i], qs[k])
				}
			}
		}
	}
	q.local = make([][]*Conjunct, len(q.Quants))
	for i, cj := range q.Conj {
		cj.pos = i
		if cj.Class != LocalPred || len(cj.Quants) != 1 {
			continue
		}
		for qi := range cj.Quants {
			// An outer join's ON conjunct belongs to its null-supplied side;
			// a WHERE conjunct on a null-supplied side applies after the
			// join, not at the scan.
			if cj.FromOn != q.Quants[qi].NullSupplied || (cj.FromOn && cj.OnRight != qi) {
				continue
			}
			q.local[qi] = append(q.local[qi], cj)
		}
	}
	return q, nil
}

// MaterializedCTE is a evaluated common table expression usable as a
// quantifier source.
type MaterializedCTE struct {
	Cols []table.Column
	Rows [][]val.Value
}

func addEdge(net map[int]map[int]bool, a, b int) {
	if net[a] == nil {
		net[a] = map[int]bool{}
	}
	if net[b] == nil {
		net[b] = map[int]bool{}
	}
	net[a][b] = true
	net[b][a] = true
}

// splitConjuncts flattens a predicate into AND-ed conjuncts.
func splitConjuncts(e sqlparse.Expr) []sqlparse.Expr {
	if b, ok := e.(*sqlparse.BinOp); ok && b.Op == "AND" {
		return append(splitConjuncts(b.L), splitConjuncts(b.R)...)
	}
	return []sqlparse.Expr{e}
}

// analyze classifies one conjunct.
func (q *Block) analyze(e sqlparse.Expr) (*Conjunct, error) {
	cj := &Conjunct{Expr: e, Quants: map[int]bool{}}
	if err := q.collectQuants(e, cj.Quants); err != nil {
		return nil, err
	}
	switch len(cj.Quants) {
	case 0, 1:
		cj.Class = LocalPred
	default:
		cj.Class = ComplexPred
	}
	// Equijoin pattern: col = col across two quantifiers.
	if b, ok := e.(*sqlparse.BinOp); ok && b.Op == "=" && len(cj.Quants) == 2 {
		lc, lok := b.L.(*sqlparse.ColRef)
		rc, rok := b.R.(*sqlparse.ColRef)
		if lok && rok {
			lq, lci, err := q.binder.resolve(lc)
			if err != nil {
				return nil, err
			}
			rq, rci, err := q.binder.resolve(rc)
			if err != nil {
				return nil, err
			}
			if lq != rq {
				cj.Class = EquiJoinPred
				cj.LQ, cj.LC, cj.RQ, cj.RC = lq, lci, rq, rci
			}
		}
	}
	return cj, nil
}

// collectQuants records the quantifiers e references; of a subquery
// predicate only the probe expression (correlation is detected at build time).
func (q *Block) collectQuants(e sqlparse.Expr, out map[int]bool) (err error) {
	sqlparse.WalkExpr(e, func(n sqlparse.Expr) bool {
		if c, ok := n.(*sqlparse.ColRef); ok {
			var qi int
			if qi, _, err = q.binder.resolve(c); err == nil {
				out[qi] = true
			}
		}
		return err == nil
	})
	return err
}

// LocalConjunctsOf returns the conjuncts that filter quantifier qi alone
// and can be applied where it is read: for a null-supplied quantifier its
// own join's ON conjuncts, for any other its WHERE conjuncts. The slice is
// the block's own: read-only.
func (q *Block) LocalConjunctsOf(qi int) []*Conjunct { return q.local[qi] }

// Selectivity estimates a conjunct's selectivity from the self-managing
// statistics.
func (q *Query) Selectivity(cj *Conjunct) float64 {
	switch x := cj.Expr.(type) {
	case *sqlparse.BinOp:
		if col, lit, op, ok := colOpLit(q, x); ok {
			if op == "=" && q.uniqueCol(col) {
				// A UNIQUE index on the column alone: at most one row.
				return 1 / math.Max(q.Quants[col.Q].Cardinality(), 1)
			}
			h := q.histOf(col)
			if h == nil {
				return defaultSel(op)
			}
			switch op {
			case "=":
				return h.SelEq(lit)
			case "<>":
				return 1 - h.SelEq(lit)
			case "<":
				return h.SelRange(nil, &lit, false, false)
			case "<=":
				return h.SelRange(nil, &lit, false, true)
			case ">":
				return h.SelRange(&lit, nil, false, false)
			case ">=":
				return h.SelRange(&lit, nil, true, false)
			}
		}
		return defaultSel("cmp")
	case *sqlparse.IsNull:
		if col, ok := singleCol(q.Block, x.E); ok {
			if h := q.histOf(col); h != nil {
				s := h.SelIsNull()
				if x.Neg {
					return 1 - s
				}
				return s
			}
		}
		return 0.05
	case *sqlparse.Between:
		if col, ok := singleCol(q.Block, x.E); ok {
			lo, lok := q.constOf(x.Lo)
			hi, hok := q.constOf(x.Hi)
			if lok && hok {
				if h := q.histOf(col); h != nil {
					s := h.SelRange(&lo, &hi, true, true)
					if x.Neg {
						return 1 - s
					}
					return s
				}
			}
		}
		return 0.1
	case *sqlparse.Like:
		if col, ok := singleCol(q.Block, x.E); ok {
			if pat, pok := q.constOf(x.Pattern); pok {
				if ss := q.strStatsOf(col); ss != nil {
					if s, found := ss.EstimateLike(pat.S); found {
						if x.Neg {
							return 1 - s
						}
						return s
					}
				}
			}
		}
		return 0.1
	case *sqlparse.InList:
		if col, ok := singleCol(q.Block, x.E); ok {
			if h := q.histOf(col); h != nil {
				s := 0.0
				for _, le := range x.List {
					if lit, lok := q.constOf(le); lok {
						s += h.SelEq(lit)
					}
				}
				if s > 1 {
					s = 1
				}
				if x.Neg {
					return 1 - s
				}
				return s
			}
		}
		return 0.2
	}
	return 0.25
}

type colRefID struct{ Q, C int }

func singleCol(q *Block, e sqlparse.Expr) (colRefID, bool) {
	c, ok := e.(*sqlparse.ColRef)
	if !ok {
		return colRefID{}, false
	}
	qi, ci, err := q.binder.resolve(c)
	if err != nil {
		return colRefID{}, false
	}
	return colRefID{qi, ci}, true
}

// constOf recognises an expression whose value is known at build time: a
// literal, a bound parameter, or the negation of a numeric one.
func (q *Query) constOf(e sqlparse.Expr) (val.Value, bool) {
	switch x := e.(type) {
	case *sqlparse.Lit:
		return x.Val, true
	case *sqlparse.Param:
		if i := x.Idx - 1; i >= 0 && i < len(q.Params) {
			return q.Params[i], true
		}
	case *sqlparse.UnOp:
		if x.Op == "-" {
			switch v, _ := q.constOf(x.E); v.Kind {
			case val.KInt:
				return val.NewInt(-v.I), true
			case val.KDouble:
				return val.NewDouble(-v.F), true
			}
		}
	}
	return val.Null, false
}

// colOpConst matches col <op> constant (either orientation, normalizing the
// operator) and returns the constant's expression.
func colOpConst(q *Query, b *sqlparse.BinOp) (colRefID, sqlparse.Expr, string, bool) {
	if col, ok := singleCol(q.Block, b.L); ok {
		if _, lok := q.constOf(b.R); lok {
			return col, b.R, b.Op, true
		}
	}
	if col, ok := singleCol(q.Block, b.R); ok {
		if _, lok := q.constOf(b.L); lok {
			return col, b.L, flipOp(b.Op), true
		}
	}
	return colRefID{}, nil, "", false
}

// colOpLit is colOpConst with the constant's value.
func colOpLit(q *Query, b *sqlparse.BinOp) (colRefID, val.Value, string, bool) {
	col, k, op, ok := colOpConst(q, b)
	if !ok {
		return col, val.Null, op, false
	}
	lit, _ := q.constOf(k)
	return col, lit, op, true
}

// uniqueCol reports whether a UNIQUE index covers exactly column c.
func (q *Block) uniqueCol(c colRefID) bool {
	if t := q.Quants[c.Q].Table; t != nil {
		for _, ix := range t.IndexList() {
			if ix.Unique && len(ix.Cols) == 1 && ix.Cols[0] == c.C {
				return true
			}
		}
	}
	return false
}

// equalityProbe finds quantifier qi's index access path: the first local
// conjunct `col = constant` (either orientation) whose column leads an
// index, with that index. A NULL constant is never probed: `col = NULL` is
// true of no row, but a NULL key would fetch the index's NULL entries.
func (q *Query) equalityProbe(qi int) (*table.Index, *Conjunct) {
	t := q.Quants[qi].Table
	if t == nil {
		return nil, nil
	}
	for _, cj := range q.LocalConjunctsOf(qi) {
		col, lit, op, ok := colOpLitConj(q, cj)
		if !ok || op != "=" || lit.IsNull() {
			continue
		}
		for _, ix := range t.IndexList() {
			if len(ix.Cols) > 0 && ix.Cols[0] == col.C {
				return ix, cj
			}
		}
	}
	return nil, nil
}

// probeRows estimates the rows an equality probe through conjunct cj of
// quantifier qi fetches: what EXPLAIN prints at an IndexScan, for SELECT and
// DML alike.
func (q *Query) probeRows(qi int, cj *Conjunct) float64 {
	return math.Max(q.Quants[qi].Cardinality()*q.Selectivity(cj), 1)
}

func flipOp(op string) string {
	switch op {
	case "<":
		return ">"
	case "<=":
		return ">="
	case ">":
		return "<"
	case ">=":
		return "<="
	}
	return op
}

func defaultSel(op string) float64 {
	if op == "=" {
		return 0.05
	}
	return 0.3
}

func (q *Block) histOf(c colRefID) *stats.Histogram {
	qt := q.Quants[c.Q]
	if qt.Table == nil || c.C >= len(qt.Table.Hists) {
		return nil
	}
	return qt.Table.Hists[c.C]
}

func (q *Block) strStatsOf(c colRefID) *stats.StringStats {
	qt := q.Quants[c.Q]
	if qt.Table == nil || c.C >= len(qt.Table.StrStats) {
		return nil
	}
	return qt.Table.StrStats[c.C]
}

// LocalCardinality estimates quantifier qi's cardinality after its local
// predicates (memoized).
func (q *Query) LocalCardinality(qi int) float64 {
	if q.cardCache == nil {
		q.cardCache = make([]float64, len(q.Quants))
	}
	if c := q.cardCache[qi]; c != 0 {
		return c
	}
	card := q.Quants[qi].Cardinality()
	for _, cj := range q.LocalConjunctsOf(qi) {
		card *= q.Selectivity(cj)
	}
	if !(card >= 1) {
		card = 1
	}
	q.cardCache[qi] = card
	return card
}

// JoinSelectivityBetween estimates the combined selectivity of every
// equijoin conjunct connecting placed set `placed` with quantifier qi,
// using join histograms computed on the fly (§3.2). Returns 1 when no join
// predicate applies (Cartesian product).
func (q *Query) JoinSelectivityBetween(placed map[int]bool, qi int) float64 {
	sel := 1.0
	connected := false
	for _, cj := range q.Conj {
		if cj.Class != EquiJoinPred {
			continue
		}
		var other int
		switch {
		case cj.LQ == qi && placed[cj.RQ]:
			other = cj.RQ
		case cj.RQ == qi && placed[cj.LQ]:
			other = cj.LQ
		default:
			continue
		}
		connected = true
		if q.selCache == nil {
			q.selCache = map[*Conjunct]float64{}
		}
		s, ok := q.selCache[cj]
		if !ok {
			h1, h2 := q.histOf(colRefID{cj.LQ, cj.LC}), q.histOf(colRefID{cj.RQ, cj.RC})
			if h1 != nil && h2 != nil {
				s = stats.JoinSelectivity(h1, h2)
				if s <= 0 {
					s = 1e-9
				}
			} else {
				// Fall back to 1/max(card) containment.
				c1, c2 := q.Quants[qi].Cardinality(), q.Quants[other].Cardinality()
				mx := c1
				if c2 > mx {
					mx = c2
				}
				if mx < 1 {
					mx = 1
				}
				s = 1 / mx
			}
			q.selCache[cj] = s
		}
		sel *= s
	}
	if !connected {
		return 1
	}
	return sel
}
