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

// plan is the one place a statement's plan comes from: a SELECT (bare,
// under EXPLAIN, or the source of an INSERT ... SELECT), an INSERT ...
// VALUES, an UPDATE or a DELETE. sh is the shape whose slot the statement
// trains and hits — its own; EXPLAIN passes the one of the statement it
// explains — and stmt the statement in sh's AST that is planned. A hit
// instantiates the slot's template — or, for a plan to be run (use),
// rebinds the plan the connection kept from that template's last
// instantiation, and keeps what it instantiates; a miss, a verifying hit, a
// template bound under another schema version and a value the template
// cannot serve compile, and offer what they compiled to the slot as §4.1
// says. The compile, instantiation or rebinding is charged to the span's
// optimize phase.
func (c *Conn) plan(sh *Shape, stmt sqlparse.Statement, ctx *exec.Ctx, params []val.Value, use planUse) (*opt.Plan, error) {
	db := c.db
	optStart := time.Now()
	if sp := c.curSpan; sp != nil {
		defer func() { sp.AddPhase(flightrec.PhaseOptimize, time.Since(optStart).Microseconds()) }()
	}
	// The version is read before anything is bound: a template stamped with
	// it saw every schema change the version counts.
	version := db.schemaVersion.Load()

	tmpl, hit, verify := sh.plan.Lookup()
	if hit {
		db.pcHits.Inc()
	} else {
		db.pcMisses.Inc()
	}
	stale := hit && !tmpl.Current(version)
	// oneOff: the template was compiled for other kinds of values (a number,
	// where this execution binds a NULL). What is compiled for these runs
	// once, and the template is left to the values it serves — unless
	// nothing chose it (bypass), and the newest compile is as good a
	// template as the last.
	oneOff := false
	if hit && !verify && !stale {
		if use == planRun {
			if plan := c.kept.rebind(sh, tmpl, params); plan != nil {
				db.pcRetained.Inc()
				return plan, nil
			}
		}
		plan, ok, err := tmpl.Instantiate(c.buildEnv(version, ctx, params))
		if ok && use == planRun {
			c.kept.keep(sh, tmpl, plan)
		}
		if ok || err != nil {
			return plan, err
		}
		oneOff = !tmpl.Bypass()
	}

	fresh, plan, err := opt.Compile(stmt, c.buildEnv(version, ctx, params))
	if err != nil {
		return nil, err
	}
	if plan.Enum != nil {
		db.planEnums.Inc()
		db.planVisits.Add(uint64(plan.Enum.Visits))
		db.planPruned.Add(uint64(plan.Enum.Pruned))
		if plan.Enum.QuotaExhausted {
			db.planQuotaEx.Inc()
		}
	}
	trained := false
	switch {
	case oneOff || !fresh.Retainable():
		// Retainable: a build that ran part of the statement (a CTE, an
		// uncorrelated subquery) answers this execution only.
	case stale:
		sh.plan.Invalidate(fresh)
		db.pcInvalid.Inc()
		trained = true
	case verify:
		db.pcVerifies.Inc()
		if !sh.plan.Verify(fresh) {
			db.pcInvalid.Inc()
		}
	default:
		sh.plan.Offer(fresh)
		trained = true
	}
	if trained && !fresh.Bypass() {
		db.pcTrainings.Inc()
	}
	return plan, nil
}

// buildEnv is what a compile or an instantiation under schema version
// version needs.
func (c *Conn) buildEnv(version uint64, ctx *exec.Ctx, params []val.Value) *opt.BuildEnv {
	return &opt.BuildEnv{Env: c.db.optEnv.Load(), Res: c.db, SchemaVersion: version, Ctx: ctx, Params: params}
}

// planUse is what a caller of execSelect or execModify wants of the plan.
type planUse uint8

const (
	planRun            planUse = iota // run it
	planExplain                       // EXPLAIN: build it, do not run it
	planExplainAnalyze                // EXPLAIN ANALYZE: estimate, then run it
)

// execSelect runs a SELECT — the bare statement, EXPLAIN [ANALYZE]'s or the
// source of an INSERT ... SELECT — on the plan of sh's slot. Each statement
// runs under a memory-governor task whose quotas follow Eq. 4/5; exceeding
// the hard limit terminates the statement.
func (c *Conn) execSelect(sh *Shape, s *sqlparse.Select, params []val.Value, use planUse) (*Rows, error) {
	task := c.db.memG.Begin(&c.task)
	defer task.Finish()
	ctx := c.execCtx(task)
	plan, err := c.plan(sh, s, ctx, params, use)
	if err != nil {
		return nil, err
	}
	if use != planRun {
		// The estimates EXPLAIN prints are the ones made before the run
		// (and its histogram feedback); nobody else asks for them.
		plan.Estimate()
	}

	// Wrap every operator so the executed tree accrues per-node stats
	// (EXPLAIN ANALYZE and Rows.Plan() introspection read them back); a
	// kept plan is wrapped already.
	plan.Root = exec.Instrument(plan.Root)
	if use == planExplain {
		return &Rows{plan: plan}, nil
	}
	execStart := time.Now()
	rows, err := exec.Drain(ctx, plan.Root)
	if sp := c.curSpan; sp != nil {
		sp.AddPhase(flightrec.PhaseExecute, time.Since(execStart).Microseconds())
	}
	if err != nil {
		return nil, err
	}
	return &Rows{cols: plan.Columns, rows: rows, plan: plan}, nil
}

// execInsert handles INSERT ... VALUES and INSERT ... SELECT.
func (c *Conn) execInsert(sh *Shape, s *sqlparse.Insert, params []val.Value) (Result, error) {
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
		rows, err := c.execSelect(sh, s.Query, params, planRun)
		if err != nil {
			return Result{}, err
		}
		sourceRows = rows.rows
	} else {
		ctx := c.execCtx(nil)
		plan, err := c.plan(sh, s, ctx, params, planRun)
		if err != nil {
			return Result{}, err
		}
		if sourceRows, err = exec.Drain(ctx, plan.Root); err != nil {
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

// execModify handles single-table UPDATE and DELETE on the plan of sh's
// slot. The returned plan is the instrumented tree that found the target
// rows; under plain EXPLAIN the statement is planned but not executed.
func (c *Conn) execModify(sh *Shape, stmt sqlparse.Statement, params []val.Value, use planUse) (Result, *opt.Plan, error) {
	ctx := c.execCtx(nil)
	plan, err := c.plan(sh, stmt, ctx, params, use)
	if err != nil {
		return Result{}, nil, err
	}
	if use != planRun {
		plan.Estimate()
	}
	if use == planExplain {
		return Result{}, plan, nil
	}
	d := plan.Modify
	plan.Root = exec.Instrument(plan.Root)
	sp := c.curSpan
	execStart := time.Now()
	defer func() {
		if sp != nil {
			sp.AddPhase(flightrec.PhaseExecute, time.Since(execStart).Microseconds())
		}
	}()
	// Targets are the latest committed rows, read with no snapshot and no
	// lock: the row X locks below protect what the scan found. The scan
	// also stays out of the reorganizer's scan/write ratio (ScanObs).
	ctx.Snap, ctx.ScanObs = nil, nil
	rids, err := exec.DrainRIDs(ctx, plan.Root)
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
	return Result{RowsAffected: n}, plan, done(nil)
}
