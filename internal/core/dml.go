package core

import (
	"errors"
	"fmt"
	"time"

	"anywheredb/internal/exec"
	"anywheredb/internal/flightrec"
	"anywheredb/internal/opt"
	"anywheredb/internal/sqlparse"
	"anywheredb/internal/table"
	"anywheredb/internal/val"
)

// execSelect is the one place a SELECT plan is built: it serves the bare
// statement, EXPLAIN [ANALYZE] (run = ANALYZE) and INSERT ... SELECT. st is
// the statement whose plan slot the query trains and hits: the SELECT's own
// (EXPLAIN passes the one of the statement it explains), or the INSERT's
// for its source query. With run false the plan is built but not executed.
// Each statement runs under a memory-governor task whose quotas follow
// Eq. 4/5; exceeding the hard limit terminates the statement.
func (c *Conn) execSelect(st *Stmt, s *sqlparse.Select, params []val.Value, run bool) (*Rows, error) {
	task := c.db.memG.Begin()
	defer task.Finish()
	ctx := c.execCtx(task)

	benv := &opt.BuildEnv{Env: c.optEnv(), Res: c.db, Ctx: ctx, Params: params}

	sp := c.curSpan
	optStart := time.Now()

	// A hit hands the cached join order to the build, which skips
	// enumeration if the order still fits the catalog; a verifying hit
	// withholds it so the statement is re-optimized and compared.
	cacheable := len(s.With) == 0 && s.Union == nil && s.From != nil
	var steps []opt.Step
	var hit, verify bool
	if cacheable {
		if steps, hit, verify = st.plan.Lookup(); hit {
			c.db.pcHits.Inc()
		} else {
			c.db.pcMisses.Inc()
		}
		if verify {
			c.db.pcVerifies.Inc()
			steps = nil
		}
	}
	plan, err := opt.BuildSelect(s, benv, steps)
	if err != nil {
		return nil, err
	}
	if plan.Enum != nil {
		c.noteEnum(plan)
		if verify {
			if !st.plan.Verify(plan.Enum.Order) {
				c.db.pcInvalid.Inc()
			}
		} else if cacheable {
			if hit {
				// The cached order no longer fits (schema drift): start over.
				st.plan.Invalidate(plan.Enum.Order)
				c.db.pcInvalid.Inc()
			} else {
				st.plan.Offer(plan.Enum.Order)
			}
			c.db.pcTrainings.Inc()
		}
	}

	// Wrap every operator so the executed tree accrues per-node stats
	// (EXPLAIN ANALYZE and Rows.Plan() introspection read them back).
	plan.Root = exec.Instrument(plan.Root)

	execStart := time.Now()
	if sp != nil {
		sp.AddPhase(flightrec.PhaseOptimize, execStart.Sub(optStart).Microseconds())
	}
	if !run {
		return &Rows{plan: plan}, nil
	}
	rows, err := exec.Drain(ctx, plan.Root)
	if sp != nil {
		sp.AddPhase(flightrec.PhaseExecute, time.Since(execStart).Microseconds())
	}
	if err != nil {
		return nil, err
	}
	return &Rows{cols: plan.Columns, rows: rows, plan: plan}, nil
}

// noteEnum feeds one optimizer enumeration's search statistics into the
// telemetry registry.
func (c *Conn) noteEnum(plan *opt.Plan) {
	if plan == nil || plan.Enum == nil {
		return
	}
	c.db.planEnums.Inc()
	c.db.planVisits.Add(uint64(plan.Enum.Visits))
	c.db.planPruned.Add(uint64(plan.Enum.Pruned))
	if plan.Enum.QuotaExhausted {
		c.db.planQuotaEx.Inc()
	}
}

// buildDML compiles an INSERT ... VALUES, UPDATE or DELETE through opt's
// heuristic bypass, charging the compile to the span's optimize phase. The
// returned context is the statement's read context: subqueries inside the
// statement have already run under it.
func (c *Conn) buildDML(stmt sqlparse.Statement, params []val.Value) (*opt.DML, *exec.Ctx, error) {
	ctx := c.execCtx(nil)
	optStart := time.Now()
	d, err := opt.BuildDML(stmt, &opt.BuildEnv{Env: c.optEnv(), Res: c.db, Ctx: ctx, Params: params})
	if sp := c.curSpan; sp != nil {
		sp.AddPhase(flightrec.PhaseOptimize, time.Since(optStart).Microseconds())
	}
	return d, ctx, err
}

// execInsert handles INSERT ... VALUES and INSERT ... SELECT.
func (c *Conn) execInsert(st *Stmt, s *sqlparse.Insert, params []val.Value) (Result, error) {
	tbl, ok := c.db.Table(s.Table)
	if !ok {
		return Result{}, fmt.Errorf("core: table %q not found", s.Table)
	}
	// Column mapping.
	colIdx := make([]int, len(tbl.Columns))
	if len(s.Cols) == 0 {
		for i := range colIdx {
			colIdx[i] = i
		}
	} else {
		for i := range colIdx {
			colIdx[i] = -1
		}
		for pos, name := range s.Cols {
			ci := tbl.ColumnIndex(name)
			if ci < 0 {
				return Result{}, fmt.Errorf("core: column %q not found", name)
			}
			colIdx[ci] = pos
		}
	}
	buildRow := func(values []val.Value) []val.Value {
		row := make([]val.Value, len(tbl.Columns))
		for ci := range row {
			if colIdx[ci] >= 0 && colIdx[ci] < len(values) {
				row[ci] = values[colIdx[ci]]
			}
		}
		return row
	}

	var sourceRows [][]val.Value
	if s.Query != nil {
		rows, err := c.execSelect(st, s.Query, params, true)
		if err != nil {
			return Result{}, err
		}
		sourceRows = rows.rows
	} else {
		d, ctx, err := c.buildDML(s, params)
		if err != nil {
			return Result{}, err
		}
		if sourceRows, err = exec.Drain(ctx, d.Plan.Root); err != nil {
			return Result{}, err
		}
	}

	tx, done := c.db.autoTxn(c.tx, c.curSpan)
	// The insert loop is the statement's execute phase: table, index and
	// lock work. done is outside it; the commit it runs has its own phase.
	execStart := time.Now()
	var n int64
	var err error
	for _, values := range sourceRows {
		if err = c.interrupted(); err != nil {
			break
		}
		if _, err = tbl.Insert(tx, buildRow(values)); err != nil {
			break
		}
		n++
	}
	if sp := c.curSpan; sp != nil {
		sp.AddPhase(flightrec.PhaseExecute, time.Since(execStart).Microseconds())
	}
	if err != nil {
		return Result{}, done(err)
	}
	c.db.flight.Access().NoteWrite(s.Table)
	return Result{RowsAffected: n}, done(nil)
}

// execModify handles single-table UPDATE and DELETE. The returned plan is
// the instrumented tree that found the target rows; with run false (plain
// EXPLAIN) the statement is compiled but not executed.
func (c *Conn) execModify(stmt sqlparse.Statement, params []val.Value, run bool) (Result, *opt.Plan, error) {
	d, ctx, err := c.buildDML(stmt, params)
	if err != nil {
		return Result{}, nil, err
	}
	if !run {
		return Result{}, d.Plan, nil
	}
	d.Plan.Root = exec.Instrument(d.Plan.Root)
	sp := c.curSpan
	execStart := time.Now()
	defer func() {
		if sp != nil {
			sp.AddPhase(flightrec.PhaseExecute, time.Since(execStart).Microseconds())
		}
	}()
	// Targets are the latest committed rows, read with no snapshot and no
	// transaction: handing the scan the statement's transaction would take
	// a table-level Shared lock and serialize writers of disjoint rows. The
	// row X locks below protect what the scan found. The scan also stays
	// out of the reorganizer's scan/write ratio (ScanObs).
	ctx.Tx, ctx.Snap, ctx.ScanObs = nil, nil, nil
	rids, err := exec.DrainRIDs(ctx, d.Plan.Root)
	if err != nil {
		return Result{}, nil, err
	}
	_, isUpdate := stmt.(*sqlparse.Update)
	tx, done := c.db.autoTxn(c.tx, c.curSpan)
	var n int64
	for _, rid := range rids {
		if err := c.interrupted(); err != nil {
			return Result{}, nil, done(err)
		}
		// Re-check the predicate (and, for UPDATE, re-evaluate the SET
		// expressions) against the row as it stands under the X lock: the
		// scanned image can be stale by the time the lock is granted, and
		// computing from it would lose concurrent committed updates.
		var hit bool
		if isUpdate {
			_, hit, err = d.Table.UpdateChecked(tx, rid, d.Match, d.NewRow)
		} else {
			hit, err = d.Table.DeleteChecked(tx, rid, d.Match)
		}
		if errors.Is(err, table.ErrNotFound) {
			continue // deleted since the scan
		}
		if err != nil {
			return Result{}, nil, done(err)
		}
		if hit {
			n++
		}
	}
	c.db.flight.Access().NoteWrite(d.Table.Name)
	return Result{RowsAffected: n}, d.Plan, done(nil)
}
