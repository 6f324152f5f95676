package core

import (
	"fmt"
	"strings"

	"anywheredb/internal/exec"
	"anywheredb/internal/opt"
	"anywheredb/internal/sqlparse"
	"anywheredb/internal/val"
)

// explainColumns is the result shape of EXPLAIN [ANALYZE]: one row per plan
// operator, the optimizer's cardinality estimate beside the executed
// actuals (NULL without ANALYZE, and for nodes the run never reached).
var explainColumns = []string{"operator", "est_rows", "actual_rows", "invocations", "time_us", "mem_pages"}

// execExplain runs EXPLAIN [ANALYZE] <stmt>, the statement of shape sh.
// Plain EXPLAIN plans the statement and prints the plan tree without
// executing it; ANALYZE also runs the statement with an instrumented tree
// and prints per-node actuals. Both kinds of statement go through the same
// execSelect / execModify as the bare statement, on the bare statement's
// plan slot — sh.inner; the lifted literals are numbered alike under
// EXPLAIN and bare — so what is printed is the tree that runs. Either
// builds its own tree: a plan the connection keeps is never explained.
func (c *Conn) execExplain(sh *Shape, s *sqlparse.Explain, params []val.Value) (*Rows, error) {
	bare := sh.inner
	if bare.Err != nil {
		return nil, bare.Err
	}
	use := planExplain
	if s.Analyze {
		use = planExplainAnalyze
	}
	switch inner := bare.AST.(type) {
	case *sqlparse.Select:
		rows, err := c.execSelect(bare, inner, params, use)
		if err != nil {
			return nil, err
		}
		return explainRows(rows.plan, s.Analyze), nil
	case *sqlparse.Update, *sqlparse.Delete:
		_, plan, err := c.execModify(bare, inner, params, use)
		if err != nil {
			return nil, err
		}
		return explainRows(plan, s.Analyze), nil
	}
	return nil, fmt.Errorf("core: EXPLAIN does not support %T", bare.AST)
}

// explainRows renders a plan tree into EXPLAIN's tabular shape.
func explainRows(plan *opt.Plan, analyze bool) *Rows {
	var out []exec.Row
	var walk func(op exec.Operator, depth int)
	walk = func(op exec.Operator, depth int) {
		inner := exec.Unwrap(op)
		label := strings.Repeat("  ", depth) + exec.Describe(inner)
		est := val.Null
		if e, ok := plan.EstRows(inner); ok {
			est = val.NewInt(int64(e + 0.5))
		}
		actRows, actInv, actUS, actMem := val.Null, val.Null, val.Null, val.Null
		if analyze {
			if st, ok := exec.StatsOf(op); ok {
				actRows = val.NewInt(st.Rows)
				actInv = val.NewInt(st.Invocations)
				actUS = val.NewInt(st.VTimeMicros)
				actMem = val.NewInt(int64(st.MemPeakPages))
			}
			// What the run did with a columnar table's sealed segments:
			// skipped by zone map, or never reached because the consumer
			// stopped first; the rest were read.
			if scan, ok := inner.(*exec.TableScan); ok {
				if total, skipped, unreached := scan.SegmentStats(); total > 0 {
					label += fmt.Sprintf(" segments=%d skipped=%d unreached=%d", total, skipped, unreached)
				}
			}
		}
		out = append(out, exec.Row{val.NewStr(label), est, actRows, actInv, actUS, actMem})
		for _, ch := range exec.Children(inner) {
			walk(ch, depth+1)
		}
	}
	if plan.Root != nil {
		walk(plan.Root, 0)
	}
	return &Rows{cols: explainColumns, rows: out, plan: plan}
}
