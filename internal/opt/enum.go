package opt

import (
	"fmt"
	"math"
	"sort"

	"anywheredb/internal/sqlparse"
	"anywheredb/internal/table"
	"anywheredb/internal/val"
)

// EnumResult is the outcome of join enumeration.
type EnumResult struct {
	Order []Step
	Cost  float64
	// Search statistics for the E6/E8 experiments.
	Visits          int
	Pruned          int
	Improvements    int
	Redistributions int
	QuotaExhausted  bool
	// BytesApprox is a rough upper bound on the enumerator's working
	// memory: the depth-first search keeps only the current path and the
	// best plan (§4.1: state lives on the processor stack).
	BytesApprox int
}

// Enumerate runs the branch-and-bound, depth-first, left-deep join
// enumeration of §4.1 under the optimizer governor of Young-Lai's patent:
// a quota of node visits is distributed unevenly across ranked siblings
// (half to the first child, half of the remainder to the next, and so on);
// pruned subtrees return their unused quota; and when a new optimal plan
// improves the best cost by at least 20%, remaining quota is redistributed
// to concentrate effort where a good plan was found.
func Enumerate(q *Query, env *Env) (*EnumResult, error) {
	env.fill()
	n := len(q.Quants)
	if n == 0 {
		return &EnumResult{}, nil
	}

	e := &enumerator{q: q, env: env, best: math.Inf(1)}
	// Heuristic ranking of quantifiers (ascending filtered cardinality);
	// considering tables in rank order defers Cartesian products
	// automatically because connected candidates are preferred at each
	// level.
	e.rank = make([]int, n)
	for i := range e.rank {
		e.rank[i] = i
	}
	cards := make([]float64, n)
	for i := range cards {
		cards[i] = q.LocalCardinality(i)
	}
	sort.SliceStable(e.rank, func(a, b int) bool { return cards[e.rank[a]] < cards[e.rank[b]] })

	quota := env.Quota
	if env.DisableGovernor {
		quota = math.MaxInt64 / 4
	}
	e.globalQuota = quota
	placed := map[int]bool{}
	e.dfs(placed, nil, 0, 1, &quota)
	if e.bestOrder == nil {
		return nil, fmt.Errorf("opt: no plan found for %d quantifiers", n)
	}
	return &EnumResult{
		Order:           e.bestOrder,
		Cost:            e.best,
		Visits:          e.visits,
		Pruned:          e.pruned,
		Improvements:    e.improvements,
		Redistributions: e.redistributions,
		QuotaExhausted:  e.quotaExhausted,
		BytesApprox:     n*64 + len(e.bestOrder)*32,
	}, nil
}

type enumerator struct {
	q    *Query
	env  *Env
	rank []int

	best      float64
	bestOrder []Step

	visits          int
	pruned          int
	improvements    int
	redistributions int
	quotaExhausted  bool
	epoch           int
	globalQuota     int
}

// candidate is one (quantifier, index, method) 3-tuple with its priced
// extension.
type candidate struct {
	step Step
	cost float64
	card float64
	conn bool // connected to the placed prefix
}

// dfs explores extensions of the current prefix. quota is the visit budget
// shared along this path; the root starts with the configured quota.
func (e *enumerator) dfs(placed map[int]bool, prefix []Step, cost, card float64, quota *int) {
	if len(prefix) == len(e.q.Quants) {
		if cost < e.best {
			improved := e.best < math.Inf(1) && cost <= 0.8*e.best
			e.best = cost
			e.bestOrder = append([]Step(nil), prefix...)
			e.improvements++
			if improved && !e.env.NoRedistribution {
				// ≥20% improvement: remaining quota is redistributed from
				// the root so this region of the space gets more effort.
				// Redistribution moves quota between nodes; the global
				// visit budget is unchanged.
				e.epoch++
				e.redistributions++
			}
		}
		return
	}

	cands := e.candidates(placed, prefix, cost, card)
	myEpoch := e.epoch
	remaining := *quota
	for i, c := range cands {
		// The global quota is a hard bound on search effort once a
		// complete plan exists; the per-node remaining shapes where that
		// effort goes.
		if e.bestOrder != nil && (e.visits >= e.globalQuota || remaining <= 0) {
			e.quotaExhausted = true
			return
		}
		e.visits++
		remaining--
		// Branch-and-bound pruning: the prefix cost can only grow.
		if !e.env.DisablePruning && c.cost >= e.best {
			e.pruned++
			continue // unused child quota stays in `remaining` (returned up)
		}
		// Governor: half of the remaining quota goes to this child.
		childQuota := remaining / 2
		if i == len(cands)-1 {
			childQuota = remaining // last child takes everything left
		}
		spentBefore := childQuota
		placed[c.step.Quant] = true
		e.dfs(placed, append(prefix, c.step), c.cost, c.card, &childQuota)
		delete(placed, c.step.Quant)
		remaining -= spentBefore - childQuota
		if e.epoch != myEpoch && !e.env.NoRedistribution {
			// A descendant found a much better plan: refresh this node's
			// remaining allocation so the promising region is explored
			// further (the global cap still bounds total effort).
			myEpoch = e.epoch
			if cap := e.globalQuota - e.visits; remaining < cap/2 {
				remaining = cap / 2
			}
		}
	}
	*quota = remaining
}

// candidates produces the priced, heuristically ordered 3-tuples for the
// next position.
func (e *enumerator) candidates(placed map[int]bool, prefix []Step, cost, card float64) []candidate {
	var out []candidate
	first := len(prefix) == 0
	for _, qi := range e.rank {
		if placed[qi] {
			continue
		}
		qt := e.q.Quants[qi]
		// Outer-join constraint: the preserved side precedes the
		// null-supplied side.
		ok := true
		for _, dep := range qt.OuterDeps {
			if !placed[dep] {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		conn := first || e.connected(placed, qi)
		if first {
			// Access paths: sequential scan, plus an index scan if a local
			// sargable predicate matches an index prefix.
			st := Step{Quant: qi, Method: MethodScan}
			c, oc := e.env.stepCost(e.q, placed, card, st)
			out = append(out, candidate{step: st, cost: cost + c, card: oc, conn: true})
			if ix, _, _ := e.q.equalityProbe(qi); ix != nil {
				st := Step{Quant: qi, Method: MethodScan, Index: ix}
				c, oc := e.env.stepCost(e.q, placed, card, st)
				out = append(out, candidate{step: st, cost: cost + c, card: oc, conn: true})
			}
			continue
		}
		// Join methods. A null-supplied quantifier with a complex (non-
		// equijoin) ON predicate can only be joined by nested loops, which
		// evaluates the full ON condition before null padding.
		if conn && !qt.NullSuppliedBlocked(placed) && !e.hasComplexOn(qi) {
			st := Step{Quant: qi, Method: MethodHash}
			c, oc := e.env.stepCost(e.q, placed, card, st)
			out = append(out, candidate{step: st, cost: cost + c, card: oc, conn: conn})
			if ix := e.joinIndex(placed, qi); ix != nil {
				st := Step{Quant: qi, Method: MethodINL, Index: ix}
				c, oc := e.env.stepCost(e.q, placed, card, st)
				out = append(out, candidate{step: st, cost: cost + c, card: oc, conn: conn})
			}
		}
		// Nested loops always applies (covers Cartesian products and
		// complex predicates).
		st := Step{Quant: qi, Method: MethodNLJ}
		c, oc := e.env.stepCost(e.q, placed, card, st)
		out = append(out, candidate{step: st, cost: cost + c, card: oc, conn: conn})
	}
	// Heuristic ordering: connected (non-Cartesian) candidates first, then
	// by priced cost — the most promising 3-tuples are enumerated first.
	sort.SliceStable(out, func(a, b int) bool {
		if out[a].conn != out[b].conn {
			return out[a].conn
		}
		return out[a].cost < out[b].cost
	})
	return out
}

// NullSuppliedBlocked reports whether a hash/INL join cannot yet place this
// quantifier (an outer-join dependent not fully placed is filtered in
// candidates; this hook exists for residual ON predicates needing NLJ).
func (q *Quant) NullSuppliedBlocked(placed map[int]bool) bool {
	if !q.NullSupplied {
		return false
	}
	for _, dep := range q.OuterDeps {
		if !placed[dep] {
			return true
		}
	}
	return false
}

// hasComplexOn reports whether a null-supplied quantifier carries a
// multi-quantifier non-equijoin ON conjunct.
func (e *enumerator) hasComplexOn(qi int) bool {
	if !e.q.Quants[qi].NullSupplied {
		return false
	}
	for _, cj := range e.q.Conj {
		if cj.FromOn && cj.OnRight == qi && cj.Class == ComplexPred {
			return true
		}
	}
	return false
}

func (e *enumerator) connected(placed map[int]bool, qi int) bool {
	for other := range e.q.Net[qi] {
		if placed[other] {
			return true
		}
	}
	return false
}

// joinIndex finds an index on qi whose leading columns are covered by
// equijoin predicates against the placed prefix.
func (e *enumerator) joinIndex(placed map[int]bool, qi int) *table.Index {
	qt := e.q.Quants[qi]
	if qt.Table == nil {
		return nil
	}
	joinCols := map[int]bool{}
	for _, cj := range e.q.Conj {
		if cj.Class != EquiJoinPred {
			continue
		}
		if cj.LQ == qi && placed[cj.RQ] {
			joinCols[cj.LC] = true
		}
		if cj.RQ == qi && placed[cj.LQ] {
			joinCols[cj.RC] = true
		}
	}
	if len(joinCols) == 0 {
		return nil
	}
	var best *table.Index
	bestLen := 0
	for _, ix := range qt.Table.IndexList() {
		// Count the covered prefix.
		k := 0
		for _, c := range ix.Cols {
			if joinCols[c] {
				k++
			} else {
				break
			}
		}
		if k > bestLen {
			best, bestLen = ix, k
		}
	}
	return best
}

// colOpLitConj matches a conjunct of the form col <op> literal.
func colOpLitConj(q *Query, cj *Conjunct) (colRefID, val.Value, string, bool) {
	b, ok := cj.Expr.(*sqlparse.BinOp)
	if !ok {
		return colRefID{}, val.Null, "", false
	}
	return colOpLit(q, b)
}
