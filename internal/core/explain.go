package core

import (
	"fmt"
	"strings"
	"time"

	"anywheredb/internal/exec"
	"anywheredb/internal/flightrec"
	"anywheredb/internal/opt"
	"anywheredb/internal/sqlparse"
	"anywheredb/internal/val"
)

// explainColumns is the result shape of EXPLAIN [ANALYZE]: one row per plan
// operator, the optimizer's cardinality estimate beside the executed
// actuals (NULL without ANALYZE, and for nodes the run never reached).
var explainColumns = []string{"operator", "est_rows", "actual_rows", "invocations", "time_us", "mem_pages"}

// execExplain runs EXPLAIN [ANALYZE] <stmt>. Plain EXPLAIN optimizes the
// statement and prints the plan tree without executing it; ANALYZE also
// runs the statement with an instrumented tree and prints per-node actuals.
// DML goes through the same execModify as the bare statement, so what is
// printed is the tree that ran.
func (c *Conn) execExplain(s *sqlparse.Explain, params []val.Value) (*Rows, error) {
	switch inner := s.Stmt.(type) {
	case *sqlparse.Select:
		return c.explainSelect(inner, params, s.Analyze)
	case *sqlparse.Update, *sqlparse.Delete:
		_, plan, err := c.execModify(inner, params, s.Analyze)
		if err != nil {
			return nil, err
		}
		return explainRows(plan, s.Analyze), nil
	}
	return nil, fmt.Errorf("core: EXPLAIN does not support %T", s.Stmt)
}

// explainSelect optimizes (bypassing the plan cache so estimates are fresh)
// and, under ANALYZE, executes the instrumented tree.
func (c *Conn) explainSelect(s *sqlparse.Select, params []val.Value, analyze bool) (*Rows, error) {
	task := c.db.memG.Begin()
	defer task.Finish()
	ctx := c.execCtx(task)

	benv := &opt.BuildEnv{Env: c.optEnv(), Res: c.db, Ctx: ctx, Params: params}
	sp := c.curSpan
	optStart := time.Now()
	plan, err := opt.BuildSelect(s, benv)
	if err != nil {
		return nil, err
	}
	if sp != nil {
		sp.AddPhase(flightrec.PhaseOptimize, time.Since(optStart).Microseconds())
	}
	c.noteEnum(plan)
	if analyze {
		plan.Root = exec.Instrument(plan.Root)
		execStart := time.Now()
		_, err := exec.Drain(ctx, plan.Root)
		if sp != nil {
			sp.AddPhase(flightrec.PhaseExecute, time.Since(execStart).Microseconds())
		}
		if err != nil {
			return nil, err
		}
	}
	return explainRows(plan, analyze), nil
}

// explainRows renders a plan tree into EXPLAIN's tabular shape.
func explainRows(plan *opt.Plan, analyze bool) *Rows {
	var out []exec.Row
	var walk func(op exec.Operator, depth int)
	walk = func(op exec.Operator, depth int) {
		inner := exec.Unwrap(op)
		label := strings.Repeat("  ", depth) + exec.Describe(inner)
		est := val.Null
		if plan.EstRows != nil {
			if e, ok := plan.EstRows[inner]; ok {
				est = val.NewInt(int64(e + 0.5))
			}
		}
		actRows, actInv, actUS, actMem := val.Null, val.Null, val.Null, val.Null
		if analyze {
			if st, ok := exec.StatsOf(op); ok {
				actRows = val.NewInt(st.Rows)
				actInv = val.NewInt(st.Invocations)
				actUS = val.NewInt(st.VTimeMicros)
				actMem = val.NewInt(int64(st.MemPeakPages))
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
