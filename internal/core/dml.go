package core

import (
	"errors"
	"fmt"
	"slices"
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
// the hard limit terminates the statement. The answer goes to sink, a batch
// at a time, if there is one (and no Rows are returned), or else into Rows.
func (c *Conn) execSelect(sh *Shape, s *sqlparse.Select, params []val.Value, use planUse, sink Sink) (Result, *Rows, error) {
	task := c.db.memG.Begin(&c.task)
	defer task.Finish()
	ctx := c.execCtx(task)
	plan, err := c.plan(sh, s, ctx, params, use)
	if err != nil {
		return Result{}, nil, err
	}
	if use != planRun {
		// The estimates EXPLAIN prints are the ones made before the run
		// (and its histogram feedback); nobody else asks for them.
		plan.Estimate()
	}

	// Wrap every operator so the executed tree accrues per-node stats
	// (EXPLAIN ANALYZE and Result.Plan introspection read them back); a
	// kept plan is wrapped already.
	plan.Root = exec.Instrument(plan.Root)
	res := Result{Plan: plan}
	if use == planExplain {
		return res, nil, nil
	}
	// One run, two consumers: a sink reads each batch in place, and
	// anybody else keeps the rows.
	var all []exec.Row
	execStart := time.Now()
	err = exec.Stream(ctx, plan.Root, func(b *exec.Batch) error {
		res.RowsAffected += int64(b.Len())
		if sink != nil {
			return sink(plan.Columns, b.View())
		}
		all = append(all, b.Rows()...)
		return nil
	})
	if err == nil && sink != nil && res.RowsAffected == 0 {
		err = sink(plan.Columns, nil)
	}
	if sp := c.curSpan; sp != nil {
		sp.AddPhase(flightrec.PhaseExecute, time.Since(execStart).Microseconds())
	}
	if err != nil {
		return Result{}, nil, err
	}
	if sink != nil {
		return res, nil, nil
	}
	return res, &Rows{cols: plan.Columns, rows: all, plan: plan}, nil
}

// execInsert handles INSERT ... VALUES and INSERT ... SELECT. Every row is
// built — once, in table column order, in the rows the connection keeps
// (table.Insert keeps nothing of a row) — before the first is inserted, so
// a value that fails to evaluate inserts nothing.
func (c *Conn) execInsert(sh *Shape, s *sqlparse.Insert, params []val.Value) (Result, error) {
	tbl, ok := c.db.Table(s.Table)
	if !ok {
		return Result{}, fmt.Errorf("core: table %q not found", s.Table)
	}
	// Column mapping: dest[pos] is the column the statement's pos-th value
	// goes to; a value past the table's columns goes nowhere, and a column
	// no value goes to is NULL.
	width := len(tbl.Columns)
	if len(s.Cols) > 0 {
		width = len(s.Cols)
	}
	dest := slices.Grow(c.dest[:0], width)[:width]
	c.dest = dest
	for pos := range dest {
		dest[pos] = pos
		if len(s.Cols) > 0 {
			if dest[pos] = tbl.ColumnIndex(s.Cols[pos]); dest[pos] < 0 {
				return Result{}, fmt.Errorf("core: column %q not found", s.Cols[pos])
			}
		}
	}

	var source [][]val.Value
	var values *exec.Values
	var plan *opt.Plan
	if s.Query != nil {
		res, rows, err := c.execSelect(sh, s.Query, params, planRun, nil)
		if err != nil {
			return Result{}, err
		}
		source, plan = rows.rows, res.Plan
	} else {
		var err error
		if plan, err = c.plan(sh, s, c.execCtx(nil), params, planRun); err != nil {
			return Result{}, err
		}
		if values, ok = plan.Root.(*exec.Values); !ok {
			return Result{}, fmt.Errorf("core: INSERT ... VALUES planned as %T", plan.Root)
		}
	}
	nrows, ncols := len(source), len(tbl.Columns)
	if values != nil {
		nrows = len(values.Rows)
	}
	all := slices.Grow(c.rows[:0], nrows*ncols)[:nrows*ncols]
	clear(all)
	c.rows = all
	if cap(all) > keepValues {
		defer func() { c.rows = nil }()
	}
	for i := 0; i < nrows; i++ {
		row := all[i*ncols : (i+1)*ncols]
		if values == nil {
			for pos, v := range source[i][:min(len(source[i]), width)] {
				row[dest[pos]] = v
			}
			continue
		}
		for pos, e := range values.Rows[i] {
			v, err := e.Eval(nil)
			if err != nil {
				return Result{}, err
			}
			if pos < width {
				row[dest[pos]] = v
			}
		}
	}

	st := c.writeTxn()
	// The insert loop is the statement's execute phase: table, index and
	// lock work. end is outside it; the commit it runs has its own phase.
	execStart := time.Now()
	var n int64
	var err error
	for i := 0; i < nrows; i++ {
		if err = c.interrupted(); err != nil {
			break
		}
		if _, err = tbl.Insert(st.tx, all[i*ncols:(i+1)*ncols]); err != nil {
			break
		}
		n++
	}
	if sp := c.curSpan; sp != nil {
		sp.AddPhase(flightrec.PhaseExecute, time.Since(execStart).Microseconds())
	}
	if err != nil {
		return Result{}, st.end(err)
	}
	c.db.flight.Access().NoteWrite(s.Table)
	return Result{RowsAffected: n, Plan: plan}, st.end(nil)
}

// keepValues caps, in values or RIDs, the rows and the targets a
// connection keeps for its next write: a bulk write's are let go.
const keepValues = 1024

// execModify handles single-table UPDATE and DELETE on the plan of sh's
// slot. The result's plan is the instrumented tree that found the target
// rows; under plain EXPLAIN the statement is planned but not executed.
func (c *Conn) execModify(sh *Shape, stmt sqlparse.Statement, params []val.Value, use planUse) (Result, error) {
	ctx := c.execCtx(nil)
	plan, err := c.plan(sh, stmt, ctx, params, use)
	if err != nil {
		return Result{}, err
	}
	if use != planRun {
		plan.Estimate()
	}
	if use == planExplain {
		return Result{Plan: plan}, nil
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
	// Targets are the newest rows, found with no snapshot and no lock. An
	// index probe hands over RIDs alone; a heap scan reads its rows and
	// passes those its Filter approves. Each write below claims its row: the
	// claim's first read decides whether the row is a target (present, and
	// matching the WHERE), and only a target another transaction holds is
	// waited for, read again and checked again. The scan also stays out of
	// the reorganizer's scan/write ratio: its note is dropped from the tally.
	ctx.Snap = nil
	scans := len(ctx.Did.Scans)
	rids, err := exec.DrainRIDs(ctx, plan.Root, c.rids)
	ctx.Did.Scans = ctx.Did.Scans[:scans]
	if err != nil {
		return Result{}, err
	}
	if cap(rids) <= keepValues {
		c.rids = rids
	}
	// Each new row is built in the row the connection keeps: the table
	// keeps nothing of it (the version entry holds the old row).
	newRow := func(old []val.Value) ([]val.Value, error) {
		row, err := d.NewRow(c.rows, old)
		if cap(row) <= keepValues {
			c.rows = row
		}
		return row, err
	}
	_, isUpdate := stmt.(*sqlparse.Update)
	st := c.writeTxn()
	tx := st.tx
	var n int64
	for _, rid := range rids {
		if err := c.interrupted(); err != nil {
			return Result{}, st.end(err)
		}
		// Check the predicate (and, for UPDATE, evaluate the SET
		// expressions) against the row as it stands when it is written: a
		// scanned image can be stale by then, and computing from it would
		// lose concurrent committed updates.
		var hit bool
		if isUpdate {
			_, hit, err = d.Table.UpdateChecked(tx, rid, d.Match, newRow)
		} else {
			hit, err = d.Table.DeleteChecked(tx, rid, d.Match)
		}
		if errors.Is(err, table.ErrNotFound) {
			continue // gone: deleted, or moved, since the index named it
		}
		if err != nil {
			return Result{}, st.end(err)
		}
		if hit {
			n++
		}
	}
	c.db.flight.Access().NoteWrite(d.Table.Name)
	return Result{RowsAffected: n, Plan: plan}, st.end(nil)
}
