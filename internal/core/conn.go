package core

import (
	"context"
	"encoding/csv"
	"errors"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"anywheredb/internal/exec"
	"anywheredb/internal/flightrec"
	"anywheredb/internal/lock"
	"anywheredb/internal/mem"
	"anywheredb/internal/mvcc"
	"anywheredb/internal/opt"
	"anywheredb/internal/sqlparse"
	"anywheredb/internal/table"
	"anywheredb/internal/txn"
	"anywheredb/internal/val"
)

// Conn is one connection: an explicit-transaction scope. Statements, and
// the plans cached with them (§4.1), are shared DB-wide through DB.Prepare.
type Conn struct {
	db     *DB
	tx     *txn.Txn // explicit transaction, nil = autocommit
	closed bool
	victim bool // tx was rolled back as a deadlock victim, and its client has not ended it
	// txn is the transaction every BEGIN, BEGIN READ ONLY and autocommit
	// write of the connection begins in: its undo and version lists and its
	// scratch are reused with their capacity (txn.Manager.BeginIn). txnSnap
	// is the snapshot a BEGIN READ ONLY binds to it.
	txn     txn.Txn
	txnSnap mvcc.Snapshot
	// stmtCtx is the context of the statement currently running on this
	// connection (a Conn serves one statement at a time). Operators and
	// DML loops poll it at batch boundaries.
	stmtCtx context.Context
	// curSpan is the flight-recorder span of the statement currently
	// running on this connection: &span, or nil with the recorder disabled.
	// curWaits is its transaction's wait tally, &waits while curSpan is set.
	curSpan  *flightrec.Span
	curWaits *txn.Waits
	// curSnap is the MVCC snapshot of the statement currently running on
	// this connection: reads under it resolve row versions and take no
	// lock-manager locks. Nil for a statement that embeds no query.
	curSnap *mvcc.Snapshot
	// stmtTimeout, when positive, bounds each statement on this connection,
	// overriding the database-wide Options.StatementTimeout. The network
	// server sets it per connection from the client's hello.
	stmtTimeout time.Duration

	// What the connection keeps from statement to statement, so that a
	// statement allocates little beyond its answer: the execution context,
	// whose tally keeps its list of scans, and the batch its plan drains
	// into; the flight-recorder span, its waits, the memory-governor task
	// and the statement snapshot of the statement running (the ring keeps a
	// copy of a finished span; neither task nor snapshot holds a charge or a
	// registration between statements); the vector a text's lifted literals
	// are merged into; the rows an INSERT or UPDATE builds, where each of
	// an INSERT's values goes, and the targets of an UPDATE or DELETE; and
	// the plans of the shapes it ran last.
	ectx  exec.Ctx
	batch exec.Batch
	span  flightrec.Span
	waits txn.Waits
	task  mem.Task
	snap  mvcc.Snapshot
	bound []val.Value
	rows  []val.Value
	dest  []int
	rids  []table.RID
	kept  keptPlans
}

// planKeep is how many shapes' plans a connection keeps.
const planKeep = 8

// keptPlan is a plan the connection instantiated from tmpl, the template
// sh's slot held then, and ran: while the slot holds tmpl still, the next
// execution of sh rebinds it (opt.Template.Rebind) instead of instantiating.
type keptPlan struct {
	sh   *Shape
	tmpl *opt.Template
	plan *opt.Plan
}

// keptPlans are a connection's kept plans, the most recently run first; the
// least recently run is dropped for a new one.
type keptPlans [planKeep]keptPlan

// rebind returns sh's kept plan bound to params, if it was instantiated from
// tmpl and serves them.
func (k *keptPlans) rebind(sh *Shape, tmpl *opt.Template, params []val.Value) *opt.Plan {
	for i, e := range k {
		if e.sh != sh {
			continue
		}
		if e.tmpl != tmpl || !tmpl.Rebind(e.plan, params) {
			return nil
		}
		copy(k[1:i+1], k[:i])
		k[0] = e
		return e.plan
	}
	return nil
}

// keep files plan, instantiated from tmpl, as sh's.
func (k *keptPlans) keep(sh *Shape, tmpl *opt.Template, plan *opt.Plan) {
	i := 0
	for i < len(k)-1 && k[i].sh != sh {
		i++
	}
	copy(k[1:i+1], k[:i])
	k[0] = keptPlan{sh, tmpl, plan}
}

// SetStatementTimeout bounds each of this connection's statements to d of
// wall-clock time (0 restores the database-wide default). Cancellation is
// observed at batch boundaries and in lock waits, like any other
// statement-context expiry.
func (c *Conn) SetStatementTimeout(d time.Duration) { c.stmtTimeout = d }

// InTxn reports whether an explicit transaction is open on the connection,
// or was rolled back as a deadlock victim and awaits its end. The network
// server consults it: a statement inside an explicit transaction must run
// locally, on the transaction's snapshot, never on a replica, and is not
// held at the admission gate.
func (c *Conn) InTxn() bool { return c.tx != nil || c.victim }

// Result reports a statement's effect: the rows it changed, or the rows a
// query returned.
type Result struct {
	RowsAffected int64
	// Plan is the plan the statement ran (the tree that found an UPDATE's
	// or DELETE's targets), with per-node actuals; nil for a statement that
	// ran none. The connection may keep the plan to run its shape again: it
	// is valid until that connection's next execution of the same shape.
	Plan *opt.Plan
}

// Sink receives a query's answer as its plan produces it: the result's
// columns, and the rows of one batch a call. The rows are valid for the
// call only — their producer writes its next batch over them — so a sink
// that keeps a row copies it. A query that produces no row calls it once,
// with none. An error from the sink ends the statement with it.
type Sink func(cols []string, rows []exec.Row) error

// Rows is a query cursor.
type Rows struct {
	cols []string
	rows []exec.Row
	pos  int
	plan *opt.Plan
}

// Columns names the result columns. The slice is shared with the
// statement's cached plan template: read-only.
func (r *Rows) Columns() []string { return r.cols }

// Next advances the cursor, reporting whether a row is available.
func (r *Rows) Next() bool {
	if r.pos >= len(r.rows) {
		return false
	}
	r.pos++
	return true
}

// Row returns the current row.
func (r *Rows) Row() []val.Value { return r.rows[r.pos-1] }

// All returns every remaining row.
func (r *Rows) All() [][]val.Value { return r.rows[r.pos:] }

// Count reports the total number of rows.
func (r *Rows) Count() int { return len(r.rows) }

// Plan exposes the executed plan (EXPLAIN-style introspection). The
// connection may keep the plan to run its shape again: it is valid until
// that connection's next execution of the same shape.
func (r *Rows) Plan() *opt.Plan { return r.plan }

// Close releases the cursor.
func (r *Rows) Close() {}

// Close ends the connection (rolling back any open transaction). With
// AutoShutdown, closing the last connection shuts the database down (§1).
func (c *Conn) Close() error {
	if c.closed {
		return nil
	}
	c.closed = true
	if c.tx != nil {
		c.tx.Rollback()
		c.tx = nil
	}
	c.kept, c.ectx, c.batch, c.bound, c.rows, c.dest, c.rids = keptPlans{}, exec.Ctx{}, exec.Batch{}, nil, nil, nil, nil
	c.db.mu.Lock()
	c.db.conns--
	last := c.db.conns == 0
	auto := c.db.opts.AutoShutdown
	c.db.mu.Unlock()
	if last && auto {
		return c.db.Close()
	}
	return nil
}

// writeTxn is the transaction a write statement of the connection runs in
// (see DB.autoTxn): the open one, or its own, begun for the statement.
func (c *Conn) writeTxn() stmtTxn {
	return c.db.autoTxn(c.stmtCtx, c.tx, &c.txn, c.curSpan, c.curWaits)
}

// execCtx sets up the connection's execution context for one plan of the
// statement running, under its memory-governor task (nil for DML, which
// runs ungoverned). The tally goes on: it is the statement's.
func (c *Conn) execCtx(task *mem.Task) *exec.Ctx {
	c.ectx = exec.Ctx{
		Pool:           c.db.pool,
		St:             c.db.st,
		Clk:            c.db.clk,
		Context:        c.stmtCtx,
		Task:           task,
		Snap:           c.curSnap,
		CPURowCost:     c.db.opts.CPURowCost,
		ForceBatchSize: c.db.batchSize,
		Did:            c.ectx.Did,
		Out:            &c.batch,
	}
	return &c.ectx
}

// Exec runs a statement that returns no rows.
func (c *Conn) Exec(sql string, params ...val.Value) (Result, error) {
	return c.ExecContext(context.Background(), sql, params...)
}

// ExecContext runs a statement under a context: cancellation and deadline
// expiry are observed at batch boundaries and abort the statement.
func (c *Conn) ExecContext(ctx context.Context, sql string, params ...val.Value) (Result, error) {
	res, _, err := c.RunContext(ctx, sql, params...)
	return res, err
}

// RunContext runs one statement and returns both its result and any rows:
// Prepare + Run, as every entry that takes SQL text is.
func (c *Conn) RunContext(ctx context.Context, sql string, params ...val.Value) (Result, *Rows, error) {
	return c.Run(ctx, c.db.Prepare(sql), params, nil)
}

// Query runs a statement returning rows.
func (c *Conn) Query(sql string, params ...val.Value) (*Rows, error) {
	return c.QueryContext(context.Background(), sql, params...)
}

// QueryContext runs a statement returning rows under a context. A
// statement that returns none (an UPDATE, say) gets an empty cursor that
// carries its plan.
func (c *Conn) QueryContext(ctx context.Context, sql string, params ...val.Value) (*Rows, error) {
	res, rows, err := c.RunContext(ctx, sql, params...)
	if err != nil {
		return nil, err
	}
	if rows == nil {
		rows = &Rows{plan: res.Plan}
	}
	return rows, nil
}

// interrupted reports the current statement's cancellation state.
func (c *Conn) interrupted() error {
	if c.stmtCtx == nil {
		return nil
	}
	return c.stmtCtx.Err()
}

// Run is the one execution entry: it runs a prepared statement and returns
// both its result and any rows (nil when the statement produced none). This
// is the shape the network server needs — it holds statement handles and
// cannot choose between Exec and Query up front. Given a sink, a SELECT
// hands its answer to it a batch at a time instead, and returns no rows;
// without one, the rows returned outlive the connection's next statement.
func (c *Conn) Run(ctx context.Context, st *Stmt, params []val.Value, sink Sink) (res Result, rows *Rows, err error) {
	if c.closed {
		return Result{}, nil, fmt.Errorf("core: connection closed")
	}
	if ctx == nil {
		ctx = context.Background()
	}
	to := c.db.opts.StatementTimeout
	if c.stmtTimeout > 0 {
		to = c.stmtTimeout
	}
	if to > 0 {
		if _, has := ctx.Deadline(); !has {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, to)
			defer cancel()
		}
	}
	c.stmtCtx = ctx

	// Flight-recorder span: opened even for malformed statements, so they
	// too land in the digest table; sealed on every exit path, after what
	// the statement's executor did is published. The text was read at
	// Prepare: the first execution's span takes that time as its parse
	// phase (and into its total), later ones have none. The digest table
	// samples what the caller bound (bound), not the literals lifted from
	// the text: text and bound together are the statement as submitted.
	bound := params
	c.ectx.Did.Reset()
	c.waits = txn.Waits{}
	sp := c.db.flight.Begin(&c.span, st.Text, st.Fingerprint)
	c.curSpan = sp
	var wallStart time.Time
	var parseUS int64
	if sp != nil {
		wallStart = time.Now()
		parseUS = st.parseUS.Swap(0)
		sp.AddPhase(flightrec.PhaseParse, parseUS)
		c.curWaits = &c.waits
	}
	defer func() {
		c.db.publish(&c.ectx.Did, &c.waits, sp)
		if sp == nil {
			return
		}
		c.curSpan, c.curWaits = nil, nil
		errText := ""
		if err != nil {
			errText = err.Error()
		}
		c.db.flight.Finish(sp, parseUS+time.Since(wallStart).Microseconds(),
			res.RowsAffected, errText, bound)
	}()

	if st.Err != nil {
		return Result{}, nil, st.Err
	}
	if c.victim { // its statements fail, not run in autocommit, until its client ends it
		_, rollback := st.AST.(*sqlparse.Rollback)
		_, commit := st.AST.(*sqlparse.Commit)
		c.victim = !rollback && !commit
		if rollback {
			return Result{}, nil, nil
		}
		return Result{}, nil, ErrTxnAborted
	}
	// The statement runs on what the caller bound and the literals lifted
	// from its text, merged into the connection's vector.
	if len(st.lifted) > 0 {
		if c.bound, err = st.bind(c.bound[:0], params); err != nil {
			return Result{}, nil, err
		}
		params = c.bound
	}
	// Read-only degraded mode: refuse anything that would write. The
	// application can still query, roll back, and shut down cleanly.
	if c.db.degraded.Load() && (st.kind == kindBegin || st.kind == kindBeginRO || st.writes) {
		return Result{}, nil, ErrReadOnly
	}
	// Replica latch: the only SQL a replica runs is reads. BEGIN READ ONLY is
	// allowed (snapshot transactions are the replica's whole point); a
	// read-write BEGIN is refused up front rather than at its first write,
	// so applications learn they are on a replica before queueing work
	// behind a doomed transaction.
	if c.db.opts.ReplicaMode && (st.kind == kindBegin || st.writes) {
		return Result{}, nil, ErrReplica
	}

	if c.tx != nil && c.tx.ReadOnly() && st.writes {
		// BEGIN READ ONLY: refuse anything that would write before it runs.
		return Result{}, nil, ErrReadOnlyTxn
	}

	c.beginReadPath(st.kind, sp)
	defer c.endReadPath()

	start := c.db.clk.Now()
	var returned int64 // rows a query answered with
	switch s := st.AST.(type) {
	case *sqlparse.Begin:
		if c.tx != nil {
			return Result{}, nil, fmt.Errorf("core: transaction already open")
		}
		if s.ReadOnly {
			// Snapshot transaction: one watermark for its whole lifetime
			// gives repeatable reads with zero lock-manager traffic.
			c.tx = c.db.txns.BeginIn(&c.txn, true)
			c.tx.BindSnapshot(c.acquireSnapshot(&c.txnSnap, 0, sp))
		} else {
			c.tx = c.db.txns.BeginIn(&c.txn, false)
		}
	case *sqlparse.Commit:
		if c.tx == nil {
			return Result{}, nil, fmt.Errorf("core: no open transaction")
		}
		commitStart := time.Now()
		c.tx.SetStatement(ctx, c.curWaits) // the flush wait is this statement's
		err = c.tx.Commit()
		if sp != nil {
			sp.AddPhase(flightrec.PhaseCommit, time.Since(commitStart).Microseconds())
		}
		c.tx = nil
	case *sqlparse.Rollback:
		if c.tx == nil {
			return Result{}, nil, fmt.Errorf("core: no open transaction")
		}
		commitStart := time.Now()
		c.tx.SetStatement(ctx, c.curWaits)
		err = c.tx.Rollback()
		if sp != nil {
			sp.AddPhase(flightrec.PhaseCommit, time.Since(commitStart).Microseconds())
		}
		c.tx = nil
	case *sqlparse.CreateTable:
		err = c.createTable(s)
	case *sqlparse.CreateIndex:
		err = c.createIndex(s)
	case *sqlparse.CreateStatistics:
		err = c.createStatistics(s)
	case *sqlparse.DropTable:
		err = c.dropTable(s)
	case *sqlparse.DropIndex:
		err = c.dropIndex(s)
	case *sqlparse.Calibrate:
		err = c.calibrate()
	case *sqlparse.LoadTable:
		res, err = c.loadTable(s)
	case *sqlparse.AlterTableStore:
		err = c.ddl(s.Table, false, storeLayout(s.Columnar))
	case *sqlparse.Insert:
		res, err = c.execInsert(st.Shape, s, params)
	case *sqlparse.Update, *sqlparse.Delete:
		res, err = c.execModify(st.Shape, s, params, planRun)
	case *sqlparse.Select:
		res, rows, err = c.execSelect(st.Shape, s, params, planRun, sink)
		returned = res.RowsAffected
	case *sqlparse.Explain:
		rows, err = c.execExplain(st.Shape, s, params)
		if rows != nil {
			res = Result{RowsAffected: int64(rows.Count()), Plan: rows.plan}
			returned = res.RowsAffected
		}
	default:
		err = fmt.Errorf("core: unsupported statement %T", s)
	}
	if err != nil && c.tx != nil && errors.Is(err, lock.ErrDeadlock) {
		// A deadlock victim's transaction ends now, so those waiting for it
		// go on: a retry of the statement alone would meet the same cycle.
		c.tx.SetStatement(ctx, c.curWaits)
		if rerr := c.tx.Rollback(); rerr != nil {
			err = errors.Join(err, rerr)
		}
		c.tx, c.victim = nil, true
		err = fmt.Errorf("%w: %w", ErrTxnAborted, err)
	}
	if err != nil {
		// A permanent I/O failure on the write path latches read-only
		// degraded mode; the error still reaches the caller.
		c.db.enterDegraded(err)
		return Result{}, nil, err
	}

	c.db.statements.Inc()
	c.db.statementUS.Observe(int64(c.db.clk.Now() - start))
	c.db.rowsOut.Add(uint64(returned))
	return res, rows, nil
}

// beginReadPath prepares the read path for one statement; endReadPath ends
// it.
//
// Queries read under an MVCC snapshot (c.curSnap) and make zero
// lock-manager calls — a statement-lifetime snapshot in autocommit and
// read-write transactions (Self = the open transaction, so a transaction's
// reads see its own uncommitted writes), or the transaction-lifetime
// snapshot of BEGIN READ ONLY. INSERT ... SELECT reads its source, and
// UPDATE / DELETE their subqueries, under a statement snapshot too. The
// target rows of UPDATE / DELETE are never read under it: they must be the
// newest rows, which each write re-reads as it claims its row.
func (c *Conn) beginReadPath(kind stmtKind, sp *flightrec.Span) {
	if kind != kindQuery && kind != kindSubquery {
		return
	}
	if kind == kindQuery {
		c.db.snapReads.Inc()
	}
	if c.tx != nil && c.tx.ReadOnly() {
		// Reuse the transaction-lifetime snapshot: every statement in the
		// transaction reads the same watermark (repeatable reads).
		c.curSnap = c.tx.Snapshot()
		return
	}
	var self uint64
	if c.tx != nil {
		self = c.tx.ID()
	}
	c.curSnap = c.acquireSnapshot(&c.snap, self, sp)
}

// endReadPath releases the statement's own snapshot, if it took one.
func (c *Conn) endReadPath() {
	if c.curSnap == &c.snap {
		c.db.txns.ReleaseSnapshot(&c.snap)
	}
	c.curSnap = nil
}

// acquireSnapshot acquires snap, charging the acquisition to the
// txn.snapshot wait event. The event is recorded even at zero measured
// microseconds: the count then reads as "snapshots acquired", and a
// contended snapshot registry shows up as nonzero time.
func (c *Conn) acquireSnapshot(snap *mvcc.Snapshot, self uint64, sp *flightrec.Span) *mvcc.Snapshot {
	start := time.Now()
	c.db.txns.AcquireSnapshot(snap, self)
	if c.db.flight.Enabled() {
		us := time.Since(start).Microseconds()
		c.db.flight.ObserveWait(flightrec.WaitSnapshot, us)
		if sp != nil {
			sp.AddWait(flightrec.WaitSnapshot, us)
		}
	}
	return snap
}

// loadTable bulk-loads CSV data; statistics are built during the load
// (§3.2).
func (c *Conn) loadTable(s *sqlparse.LoadTable) (Result, error) {
	tbl, ok := c.db.Table(s.Table)
	if !ok {
		return Result{}, fmt.Errorf("core: table %q not found", s.Table)
	}
	f, err := os.Open(s.Path)
	if err != nil {
		return Result{}, err
	}
	defer f.Close()
	rd := csv.NewReader(f)
	recs, err := rd.ReadAll()
	if err != nil {
		return Result{}, err
	}
	st := c.writeTxn()
	var n int64
	for _, rec := range recs {
		if err := c.interrupted(); err != nil {
			return Result{}, st.end(err)
		}
		if len(rec) != len(tbl.Columns) {
			return Result{}, st.end(fmt.Errorf("core: CSV row has %d fields, want %d", len(rec), len(tbl.Columns)))
		}
		row := make([]val.Value, len(rec))
		for i, cell := range rec {
			row[i] = parseCell(cell, tbl.Columns[i].Kind)
		}
		if _, err := tbl.Insert(st.tx, row); err != nil {
			return Result{}, st.end(err)
		}
		n++
	}
	if err := st.end(nil); err != nil {
		return Result{}, err
	}
	c.db.cacheG.NoteDBGrowth()
	if err := tbl.RebuildStatistics(); err != nil {
		return Result{}, err
	}
	if s.StoreColumnar {
		if err := c.ddl(s.Table, false, storeLayout(true)); err != nil {
			return Result{}, err
		}
	}
	return Result{RowsAffected: n}, nil
}

func parseCell(s string, k val.Kind) val.Value {
	if s == "" || strings.EqualFold(s, "null") {
		return val.Null
	}
	switch k {
	case val.KInt:
		n, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return val.Null
		}
		return val.NewInt(n)
	case val.KDouble:
		f, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return val.Null
		}
		return val.NewDouble(f)
	}
	return val.NewStr(s)
}
