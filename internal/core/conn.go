package core

import (
	"context"
	"encoding/csv"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"anywheredb/internal/buffer"
	"anywheredb/internal/exec"
	"anywheredb/internal/flightrec"
	"anywheredb/internal/mem"
	"anywheredb/internal/mvcc"
	"anywheredb/internal/opt"
	"anywheredb/internal/sqlparse"
	"anywheredb/internal/txn"
	"anywheredb/internal/val"
)

// Conn is one connection: an explicit-transaction scope. Statements, and
// the plans cached with them (§4.1), are shared DB-wide through DB.Prepare.
type Conn struct {
	db     *DB
	tx     *txn.Txn // explicit transaction, nil = autocommit
	closed bool
	// stmtCtx is the context of the statement currently running on this
	// connection (a Conn serves one statement at a time). Operators and
	// DML loops poll it at batch boundaries.
	stmtCtx context.Context
	// curSpan is the flight-recorder span of the statement currently
	// running on this connection (nil with the recorder disabled).
	curSpan *flightrec.Span
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
	// with the scan-feedback hook bound once, and the batch its plan drains
	// into; the memory-governor task and the statement snapshot of the
	// statement running (neither holds a charge or a registration between
	// statements); the vector a text's lifted literals are merged into; and
	// the plans of the shapes it ran last.
	ectx    exec.Ctx
	batch   exec.Batch
	scanObs func(tableName string, rows int64)
	task    mem.Task
	snap    mvcc.Snapshot
	bound   []val.Value
	kept    keptPlans
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

// InTxn reports whether an explicit transaction is open on the connection.
// The network server's read router consults it: a statement inside an
// explicit transaction must run locally, on the transaction's snapshot,
// never on a replica.
func (c *Conn) InTxn() bool { return c.tx != nil }

// Result reports a statement's effect.
type Result struct {
	RowsAffected int64
}

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
	c.kept, c.ectx, c.batch, c.bound = keptPlans{}, exec.Ctx{}, exec.Batch{}, nil
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

// execCtx sets up the connection's execution context for one statement
// under its memory-governor task (nil for DML, which runs ungoverned).
func (c *Conn) execCtx(task *mem.Task) *exec.Ctx {
	c.ectx = exec.Ctx{
		Pool:           c.db.pool,
		St:             c.db.st,
		Clk:            c.db.clk,
		Context:        c.stmtCtx,
		Task:           task,
		Snap:           c.curSnap,
		CPURowCost:     c.db.opts.CPURowCost,
		ForceBatchSize: c.db.opts.ExecBatchSize,
		Batches:        c.db.batches,
		BatchRows:      c.db.batchRows,
		Span:           c.curSpan,

		ColSegSkipped:    c.db.colSkipped,
		ColSegDecodeRows: c.db.colDecoded,
		ScanObs:          c.scanObs,
		Out:              &c.batch,
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
	return c.Run(ctx, c.db.Prepare(sql), params)
}

// Query runs a statement returning rows.
func (c *Conn) Query(sql string, params ...val.Value) (*Rows, error) {
	return c.QueryContext(context.Background(), sql, params...)
}

// QueryContext runs a statement returning rows under a context.
func (c *Conn) QueryContext(ctx context.Context, sql string, params ...val.Value) (*Rows, error) {
	_, rows, err := c.RunContext(ctx, sql, params...)
	if err != nil {
		return nil, err
	}
	if rows == nil {
		rows = &Rows{}
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
// cannot choose between Exec and Query up front.
func (c *Conn) Run(ctx context.Context, st *Stmt, params []val.Value) (res Result, rows *Rows, err error) {
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
	// too land in the digest table; sealed on every exit path. The text was
	// read at Prepare: the first execution's span takes that time as its
	// parse phase (and into its total), later ones have none. The buffer
	// hit/miss fields are window deltas over the engine-wide pool counters.
	// The digest table samples what the caller bound (bound), not the
	// literals lifted from the text: text and bound together are the
	// statement as submitted.
	bound := params
	sp := c.db.flight.Begin(st.Text, st.Fingerprint)
	c.curSpan = sp
	var wallStart time.Time
	var poolBase buffer.Stats
	var boundTxn uint64
	if sp != nil {
		wallStart = time.Now()
		poolBase = c.db.pool.Stats()
		parseUS := st.parseUS.Swap(0)
		sp.AddPhase(flightrec.PhaseParse, parseUS)
		defer func() {
			c.curSpan = nil
			if boundTxn != 0 {
				c.db.flight.UnbindTxn(boundTxn)
			}
			errText := ""
			if err != nil {
				errText = err.Error()
			}
			pst := c.db.pool.Stats()
			sp.BufferHits = int64(pst.Hits - poolBase.Hits)
			sp.BufferMisses = int64(pst.Misses - poolBase.Misses)
			c.db.flight.Finish(sp, parseUS+time.Since(wallStart).Microseconds(),
				res.RowsAffected, errText, bound)
		}()
	}

	if st.Err != nil {
		return Result{}, nil, st.Err
	}
	// The statement runs on what the caller bound and the literals lifted
	// from its text, merged into the connection's vector.
	if len(st.lifted) > 0 {
		if c.bound, err = st.bind(c.bound[:0], params); err != nil {
			return Result{}, nil, err
		}
		params = c.bound
	}
	if sp != nil && c.tx != nil {
		// An explicit transaction is already open: statement waits carrying
		// its id (lock conflicts, commit flush) resolve to this span.
		boundTxn = c.tx.ID()
		c.db.flight.BindTxn(boundTxn, sp)
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
	switch s := st.AST.(type) {
	case *sqlparse.Begin:
		if c.tx != nil {
			return Result{}, nil, fmt.Errorf("core: transaction already open")
		}
		if s.ReadOnly {
			// Snapshot transaction: one watermark for its whole lifetime
			// gives repeatable reads with zero lock-manager traffic.
			c.tx = c.db.txns.BeginRO()
			c.tx.BindSnapshot(c.acquireSnapshot(new(mvcc.Snapshot), 0, sp))
		} else {
			c.tx = c.db.txns.Begin()
		}
		if sp != nil {
			boundTxn = c.tx.ID()
			c.db.flight.BindTxn(boundTxn, sp)
		}
	case *sqlparse.Commit:
		if c.tx == nil {
			return Result{}, nil, fmt.Errorf("core: no open transaction")
		}
		commitStart := time.Now()
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
		var plan *opt.Plan
		res, plan, err = c.execModify(st.Shape, s, params, planRun)
		if err == nil {
			rows = &Rows{plan: plan}
		}
	case *sqlparse.Select:
		rows, err = c.execSelect(st.Shape, s, params, planRun)
		if rows != nil {
			res.RowsAffected = int64(rows.Count())
		}
	case *sqlparse.Explain:
		rows, err = c.execExplain(st.Shape, s, params)
		if rows != nil {
			res.RowsAffected = int64(rows.Count())
		}
	default:
		err = fmt.Errorf("core: unsupported statement %T", s)
	}
	if err != nil {
		// A permanent I/O failure on the write path latches read-only
		// degraded mode; the error still reaches the caller.
		c.db.enterDegraded(err)
		return Result{}, nil, err
	}

	c.db.statements.Inc()
	c.db.statementUS.Observe(int64(c.db.clk.Now() - start))
	if rows != nil {
		c.db.rowsOut.Add(uint64(len(rows.rows)))
	}
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
// latest committed rows, which their row X locks then protect.
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
	tx, done := c.db.autoTxn(c.tx, c.curSpan)
	var n int64
	for _, rec := range recs {
		if err := c.interrupted(); err != nil {
			return Result{}, done(err)
		}
		if len(rec) != len(tbl.Columns) {
			return Result{}, done(fmt.Errorf("core: CSV row has %d fields, want %d", len(rec), len(tbl.Columns)))
		}
		row := make([]val.Value, len(rec))
		for i, cell := range rec {
			row[i] = parseCell(cell, tbl.Columns[i].Kind)
		}
		if _, err := tbl.Insert(tx, row); err != nil {
			return Result{}, done(err)
		}
		n++
	}
	if err := done(nil); err != nil {
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
