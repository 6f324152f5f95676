// Package core assembles the holistic self-managing database server: the
// store, WAL, heterogeneous buffer pool, catalog, lock and transaction
// managers, self-managing statistics, the cache-sizing and memory
// governors, the cost-based optimizer with its plan cache, and the
// adaptive executor — all working in concert, as the paper argues they
// must (§1: "it is impossible to achieve effective self-management by
// considering these technologies in isolation").
package core

import (
	"container/list"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"anywheredb/internal/buffer"
	"anywheredb/internal/cachegov"
	"anywheredb/internal/catalog"
	"anywheredb/internal/device"
	"anywheredb/internal/dtt"
	"anywheredb/internal/exec"
	"anywheredb/internal/faultinject"
	"anywheredb/internal/flightrec"
	"anywheredb/internal/hist"
	"anywheredb/internal/lock"
	"anywheredb/internal/mem"
	"anywheredb/internal/opt"
	"anywheredb/internal/osenv"
	"anywheredb/internal/page"
	"anywheredb/internal/store"
	"anywheredb/internal/table"
	"anywheredb/internal/telemetry"
	"anywheredb/internal/txn"
	"anywheredb/internal/val"
	"anywheredb/internal/vclock"
	"anywheredb/internal/wal"
)

// ErrReadOnly is returned for write statements once the database has
// entered read-only degraded mode after a permanent I/O failure on the
// commit path (graceful degradation: reads keep working off whatever is
// already durable or cached, writes are refused rather than risked).
var ErrReadOnly = errors.New("core: database is in read-only degraded mode")

// ErrReadOnlyTxn is returned for write statements inside a BEGIN READ
// ONLY transaction.
var ErrReadOnlyTxn = errors.New("core: transaction is read-only")

// ErrTxnAborted answers the statement that made its explicit transaction a
// deadlock victim (wrapping lock.ErrDeadlock) and every later one, COMMIT
// included, until ROLLBACK: the transaction was rolled back whole.
var ErrTxnAborted = errors.New("core: transaction rolled back as a deadlock victim; end it and retry it")

// ErrReplica is returned for write statements on a read replica: the only
// writes a replica accepts are the shipped WAL records it applies.
var ErrReplica = errors.New("core: database is a read replica (writes go to the primary)")

// ReplicaIDBase is the floor of locally issued transaction and snapshot
// ids on a replica. Primary transaction ids arrive verbatim in the shipped
// stream and are pushed into version chains as entry writers; a local id
// colliding with one would make Snapshot.Self match a streaming writer and
// expose its uncommitted versions.
const ReplicaIDBase = uint64(1) << 48

// Options configures a database instance.
type Options struct {
	// Dir holds the database files; empty runs fully in memory.
	Dir string
	// Device simulates the storage device (nil = zero-latency RAM).
	Device device.Device
	// Clock is the virtual clock; nil creates a fresh one.
	Clock *vclock.Clock

	// Buffer pool bounds, in pages. The lower and upper bounds are fixed
	// for the lifetime of the server (§2); the pool starts at PoolInitPages
	// (default 256, capped at PoolMaxPages).
	PoolMinPages, PoolInitPages, PoolMaxPages int

	// TotalRAM is the simulated machine's physical memory (default 256 MB).
	TotalRAM int64
	// CEMode selects the Windows CE variant of the cache governor.
	CEMode bool
	// MPL is the server multiprogramming level (default 4).
	MPL int
	// CPURowCost is the virtual-microsecond CPU proxy charged per row.
	CPURowCost int64
	// AutoShutdown closes the database when the last connection closes
	// (the embedded-deployment behaviour of §1).
	AutoShutdown bool

	// Injector, when non-nil, is consulted on every storage and WAL
	// operation and at named crashpoints (fault injection / torture).
	Injector faultinject.Injector
	// StatementTimeout bounds each statement's wall-clock time (0 = none).
	// Cancellation is observed at batch boundaries in every operator.
	StatementTimeout time.Duration
	// ParanoidRecovery replays the log a second time after recovery and
	// verifies the replay was idempotent (the logical page content must not
	// change). Torture tests run with this on.
	ParanoidRecovery bool

	// ReplicaMode opens the database as a log-shipping read replica: SQL
	// writes are refused (ErrReplica), the storage reorganizer never runs,
	// and index trees are not attached — the replica must never allocate
	// pages in main.db, or its allocations would collide with page ids the
	// primary assigns in the shipped stream. Shipped WAL records are applied
	// through the Applier (replay.go); reads run as heap scans under MVCC
	// snapshots. Local transaction and snapshot ids start at ReplicaIDBase
	// so they can never equal a primary transaction id in the stream.
	ReplicaMode bool
	// RebuildIndexesOnOpen forces a full index rebuild (and checkpoint)
	// after attach, regardless of whether recovery ran. Promotion of a
	// replica opens the data directory with this set: the catalog's index
	// roots predate the shipped stream and the trees are stale.
	RebuildIndexesOnOpen bool

	// VacuumInterval is the period of the background version vacuum that
	// reclaims row versions no live snapshot can need. 0 selects the
	// 250ms default; negative disables the loop (VacuumOnce still works
	// for explicit passes).
	VacuumInterval time.Duration
}

func (o *Options) fill() {
	if o.Clock == nil {
		o.Clock = vclock.New()
	}
	if o.PoolMinPages <= 0 {
		o.PoolMinPages = 16
	}
	if o.PoolMaxPages <= 0 {
		o.PoolMaxPages = 4096
	}
	if o.PoolInitPages <= 0 {
		o.PoolInitPages = min(256, o.PoolMaxPages)
	}
	if o.TotalRAM <= 0 {
		o.TotalRAM = 256 << 20
	}
	if o.MPL <= 0 {
		o.MPL = 4
	}
	if o.VacuumInterval == 0 {
		o.VacuumInterval = 250 * time.Millisecond
	}
}

// DB is an open database.
type DB struct {
	opts Options
	clk  *vclock.Clock

	st    *store.Store
	log   *wal.Log
	pool  *buffer.Pool
	cat   *catalog.Catalog
	locks *lock.Manager
	txns  *txn.Manager

	machine *osenv.Machine
	cacheG  *cachegov.Governor
	memG    *mem.Governor
	dttMod  *dtt.Model
	reg     *telemetry.Registry

	// flight is the always-allocated flight recorder (spans, wait events,
	// workload digests); flightDumped latches the one-shot dump taken when
	// the engine degrades.
	flight       *flightrec.Collector
	flightDumped atomic.Bool

	// Fault handling: the shared injector (nil without injection), the
	// engine-wide fault counters, and the degraded-mode latch.
	inj        faultinject.Injector
	faultStats faultinject.Stats
	degraded   atomic.Bool

	// batchSize pins the executor's rows per batch (0: adaptive, derived
	// from the memory governor between batches). Only the differential
	// tests set it, to cross-check the batch protocol; 1 is row-at-a-time
	// execution.
	batchSize int

	// Executor-level counters (the component counters live on their
	// components and are published as func-backed gauges).
	statements  *telemetry.Counter
	rowsOut     *telemetry.Counter
	statementUS *hist.Histogram
	batches     *telemetry.Counter
	planEnums   *telemetry.Counter
	planVisits  *telemetry.Counter
	planPruned  *telemetry.Counter
	planQuotaEx *telemetry.Counter
	pcHits      *telemetry.Counter
	pcMisses    *telemetry.Counter
	pcTrainings *telemetry.Counter
	pcVerifies  *telemetry.Counter
	pcInvalid   *telemetry.Counter
	pcRetained  *telemetry.Counter

	// stmts interns statement shapes by key (see Prepare); parses counts
	// the texts actually parsed.
	stmts  stmtTable
	parses *telemetry.Counter
	// schemaVersion counts schema changes (SchemaChanged): a plan template
	// is served only under the version it was compiled under. optEnv is the
	// optimizer's view of the server, the same for every statement; it is
	// replaced, never written, when CALIBRATE installs a new cost model.
	schemaVersion atomic.Uint64
	optEnv        atomic.Pointer[opt.Env]

	// Columnar-storage counters.
	colSkipped    *telemetry.Counter
	colDecoded    *telemetry.Counter
	colPromotions *telemetry.Counter
	colInvalid    *telemetry.Counter

	// MVCC counters.
	snapReads  *telemetry.Counter
	vacReclaim *telemetry.Counter

	// background holds the stop functions of the periodic loops (today the
	// version vacuum alone) in the order shutdown stops them.
	background []func()

	// virtMu guards the registered virtual-table providers: layers above
	// core (the network server) publish introspection tables here without
	// core depending on them.
	virtMu sync.RWMutex
	virt   map[string]VirtualTableFn

	// mu guards the table map, connection count, and shutdown latch. The
	// statement hot path takes it only in read mode (name resolution) —
	// writers are DDL, connect/close, and checkpoint — so independent
	// connections bind and commit concurrently instead of queueing on one
	// global mutex.
	mu     sync.RWMutex
	tables map[string]*table.Table
	conns  int
	closed bool
	// ckptMu makes checkpoints take turns: one truncating the log under
	// another's page flush would discard the images that flush relies on.
	ckptMu sync.Mutex
}

// setOptEnv publishes the optimizer environment for cost model m: the DTT
// model, the buffer pool's current size, the memory governor's predicted
// soft limit (Eq. 5) and the telemetry registry behind PROPERTY(). Nothing
// in it is per statement or per connection, so it is built here and shared.
func (db *DB) setOptEnv(m *dtt.Model) {
	db.optEnv.Store(opt.NewEnv(opt.Env{
		DTT:          m,
		PoolPages:    db.pool.SizePages,
		CPURowCostUS: float64(db.opts.CPURowCost),
		SoftLimitPages: func() int {
			return db.pool.SizePages() / db.memG.MPL()
		},
		Property: db.reg.Value,
	}))
}

// Open creates or opens a database.
func Open(opts Options) (*DB, error) {
	opts.fill()
	db := &DB{opts: opts, clk: opts.Clock, tables: map[string]*table.Table{}}
	db.stmts.byKey = map[string]*list.Element{}
	db.inj = faultinject.Counted(opts.Injector, &db.faultStats)

	st, err := store.Open(store.Options{Dir: opts.Dir, Device: opts.Device, Injector: db.inj})
	if err != nil {
		return nil, err
	}
	db.st = st

	logPath := ""
	if opts.Dir != "" {
		logPath = filepath.Join(opts.Dir, "anywhere.log")
	}
	log, err := wal.Open(logPath)
	if err != nil {
		st.Close()
		return nil, err
	}
	db.log = log
	log.SetInjector(db.inj, faultinject.DefaultRetryPolicy(), &db.faultStats)
	// failOpen releases file handles on any later Open failure without
	// syncing: a failed open (e.g. a crash injected during recovery) must
	// leave the on-disk state exactly as it found it.
	failOpen := func(err error) (*DB, error) {
		_ = log.CloseNoFlush()
		_ = st.CloseNoSync()
		return nil, err
	}

	db.pool = buffer.New(st, opts.PoolMinPages, opts.PoolInitPages, opts.PoolMaxPages)
	db.pool.SetFaultPolicy(faultinject.DefaultRetryPolicy(), &db.faultStats)
	// WAL-before-data, plus torn-write protection: a dirty page is written in
	// place (steal-policy evictions included) only once the log durably holds
	// an image of it from its current contents and a record, stamped on the
	// page, of every change since. Recovery repairs a torn write from the
	// image and the records newer than its page LSN — without the image, a
	// tear destroys rows whose records a prior checkpoint truncated. A page is
	// imaged once per checkpoint; the next commit's flush carries the image,
	// and the pool syncs on its own account only when no frame it could take
	// is covered yet.
	db.pool.SetImageLog(log)

	fresh := st.PageCount(store.MainFile) == 1

	// Crash recovery starts before anything reads pages: the newest logged
	// image of each page is restored first, which repairs torn writes to
	// catalog pages just as it does data pages, so catalog.Load must not run
	// until then.
	plan := &wal.RecoveryPlan{}
	if !fresh {
		if plan, err = db.log.Analyze(); err != nil {
			return failOpen(err)
		}
		if err := db.restoreImages(plan); err != nil {
			return failOpen(err)
		}
	}

	if fresh {
		db.cat, err = catalog.Create(db.pool, st)
	} else {
		db.cat, err = catalog.Load(db.pool, st)
	}
	if err != nil {
		return failOpen(err)
	}

	db.locks = lock.NewManager()
	db.txns = txn.NewManager(log, db.locks)
	db.txns.SetInjector(db.inj)
	if opts.ReplicaMode {
		db.txns.StartIDsAt(ReplicaIDBase)
	}

	// DTT model: calibrated model from the catalog, else the generic
	// default (§4.2).
	if enc := db.cat.DTT(); enc != nil {
		if m, err := dtt.Decode(enc); err == nil {
			db.dttMod = m
		}
	}
	if db.dttMod == nil {
		db.dttMod = dtt.Default()
	}

	// Recovery then replays the log tail through the table kernels. It
	// writes nothing it does not have to: the checkpoint below is what makes
	// the recovered state the new baseline and clears the log.
	replayed := len(plan.Images) > 0 || slices.ContainsFunc(plan.Records, func(r *wal.Record) bool {
		return r.Type != wal.RecCommit && r.Type != wal.RecRollback
	})
	if replayed {
		if err := db.recover(plan); err != nil {
			return failOpen(err)
		}
	}

	// Attach tables from the catalog (replacing the heaps the replay used)
	// and recover statistics. After a replay the index trees (not
	// WAL-logged) may be stale relative to the heaps and are rebuilt from
	// heap scans, and a columnar snapshot the replay invalidated is not
	// attached. Promotion of a replica forces the
	// rebuild: the catalog's roots predate the shipped stream. The
	// checkpoint then makes all of it durable and clears the log.
	replayed = replayed || opts.RebuildIndexesOnOpen
	for _, name := range db.cat.TableNames() {
		tm, _ := db.cat.GetTable(name)
		if err := db.attachTable(tm, replayed, plan.ColSegDrops[tm.ID]); err != nil {
			return failOpen(err)
		}
	}
	if replayed {
		if err := db.Checkpoint(); err != nil {
			return failOpen(err)
		}
	}

	// The simulated machine and the cache-sizing feedback controller.
	db.machine = osenv.New(db.clk, opts.TotalRAM, func() int64 {
		return int64(db.pool.SizePages()) * page.Size
	})
	db.machine.SetDBExtra(8 << 20)
	db.cacheG = cachegov.New(cachegov.Config{
		Clock:    db.clk,
		MinBytes: int64(opts.PoolMinPages) * page.Size,
		MaxBytes: int64(opts.PoolMaxPages) * page.Size,
		CEMode:   opts.CEMode,
	}, cachegov.Inputs{
		WorkingSet: db.machine.WorkingSet,
		FreeMemory: db.machine.FreeMemory,
		DBSize:     db.st.TotalBytes,
		HeapBytes:  db.heapBytes,
		PoolBytes:  func() int64 { return int64(db.pool.SizePages()) * page.Size },
		Misses:     func() uint64 { return db.pool.Stats().Misses },
		Resize: func(target int64) int64 {
			got := db.pool.Resize(int(target / page.Size))
			return int64(got) * page.Size
		},
	})

	db.memG = mem.NewGovernor(
		func() int { _, mx := db.pool.Bounds(); return mx },
		db.pool.SizePages,
		opts.MPL,
	)

	// The engine-wide telemetry registry: every layer counts, core
	// publishes the counts here, and SQL reads them back via PROPERTY() and
	// sys.properties.
	db.reg = telemetry.NewRegistry()
	db.setOptEnv(db.dttMod)
	PublishKernels(db.reg, db.pool, db.log, db.locks, db.memG, db.cacheG)
	// The flight recorder: always allocated so the instrumentation cost is
	// identical enabled or disabled (E21's baseline); wall-clock µs since
	// open is the span/wait timebase.
	openedAt := time.Now()
	db.flight = flightrec.New(flightrec.DefaultRingSize, func() int64 {
		return time.Since(openedAt).Microseconds()
	})
	db.flight.AttachTelemetry(db.reg)
	// Wait-event observers feed the engine-wide registry. A statement's
	// lock and flush waits reach its span through the tally its
	// transaction keeps (txn.Txn.SetStatement); buffer read I/O belongs to
	// no transaction, so spans are charged only when exactly one statement
	// is live (exact attribution) and the global registry always.
	db.locks.SetWaitObserver(func(us int64) {
		if db.flight.Enabled() {
			db.flight.ObserveWait(flightrec.WaitLock, us)
		}
	})
	db.log.SetFlushWaitObserver(func(us int64) {
		if db.flight.Enabled() {
			db.flight.ObserveWait(flightrec.WaitWALFlush, us)
		}
	})
	db.pool.SetReadWaitObserver(func(us int64) {
		if !db.flight.Enabled() {
			return
		}
		db.flight.ObserveWait(flightrec.WaitBufferIO, us)
		if sp := db.flight.SoleSpan(); sp != nil {
			sp.AddWait(flightrec.WaitBufferIO, us)
		}
	})
	db.reg.GaugeFunc("fault.injected", func() int64 { return int64(db.faultStats.Injected.Load()) })
	db.reg.GaugeFunc("fault.retried", func() int64 { return int64(db.faultStats.Retried.Load()) })
	db.reg.GaugeFunc("fault.gaveup", func() int64 { return int64(db.faultStats.GaveUp.Load()) })
	db.reg.GaugeFunc("core.degraded", func() int64 {
		if db.degraded.Load() {
			return 1
		}
		return 0
	})
	db.statements = db.reg.Counter("exec.statements")
	db.rowsOut = db.reg.Counter("exec.rows_returned")
	db.statementUS = db.reg.Histogram("exec.statement_us")
	db.batches = db.reg.Counter("exec.batches")
	db.planEnums = db.reg.Counter("opt.enumerations")
	db.planVisits = db.reg.Counter("opt.visits")
	db.planPruned = db.reg.Counter("opt.pruned")
	db.planQuotaEx = db.reg.Counter("opt.quota_exhausted")
	db.pcHits = db.reg.Counter("opt.plancache.hits")
	db.pcMisses = db.reg.Counter("opt.plancache.misses")
	db.pcTrainings = db.reg.Counter("opt.plancache.trainings")
	db.pcVerifies = db.reg.Counter("opt.plancache.verifications")
	db.pcInvalid = db.reg.Counter("opt.plancache.invalidations")
	db.pcRetained = db.reg.Counter("opt.plancache.retained")
	db.parses = db.reg.Counter("sqlparse.parses")
	db.reg.GaugeFunc("core.stmt_cache.entries", db.stmts.entries.Load)
	db.reg.GaugeFunc("core.stmt_cache.bytes", db.stmts.bytes.Load)
	db.reg.GaugeFunc("core.stmt_cache.evictions", db.stmts.evictions.Load)
	db.colSkipped = db.reg.Counter("colseg.segments_skipped")
	db.colDecoded = db.reg.Counter("colseg.decode_rows")
	db.colPromotions = db.reg.Counter("colseg.reorg_promotions")
	db.colInvalid = db.reg.Counter("colseg.invalidations")
	db.reg.GaugeFunc("colseg.segments", func() int64 {
		db.mu.RLock()
		defer db.mu.RUnlock()
		var n int64
		for _, t := range db.tables {
			n += int64(t.SegmentCount())
		}
		return n
	})
	// MVCC observability: snapshot-read traffic, vacuum progress, and the
	// size of the in-memory version store.
	db.snapReads = db.reg.Counter("txn.snapshot_reads")
	db.vacReclaim = db.reg.Counter("txn.versions_reclaimed")
	db.txns.SetReclaimObserver(func(n int) { db.vacReclaim.Add(uint64(n)) })
	db.reg.GaugeFunc("txn.oldest_snapshot", func() int64 {
		if csn, ok := db.txns.OldestSnapshot(); ok {
			return int64(csn)
		}
		return int64(db.txns.CommitSeq())
	})
	db.reg.GaugeFunc("txn.snapshots_active", func() int64 {
		return int64(len(db.txns.Snapshots()))
	})
	db.reg.GaugeFunc("txn.version_entries", func() int64 {
		db.mu.RLock()
		defer db.mu.RUnlock()
		var n int64
		for _, t := range db.tables {
			n += t.VersionCount()
		}
		return n
	})
	db.reg.GaugeFunc("txn.version_bytes", func() int64 {
		db.mu.RLock()
		defer db.mu.RUnlock()
		var n int64
		for _, t := range db.tables {
			n += t.VersionBytes()
		}
		return n
	})

	// The background version vacuum: a periodic sweep freeing row versions
	// below the oldest-snapshot watermark.
	if opts.VacuumInterval > 0 {
		db.background = append(db.background, runEvery(opts.VacuumInterval, func() { db.VacuumOnce() }))
	}
	return db, nil
}

// runEvery calls fn every interval from a goroutine of its own. The
// returned stop ends the loop and returns once fn is not running and will
// not run again; calling it more than once is harmless.
func runEvery(interval time.Duration, fn func()) (stop func()) {
	quit, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-quit:
				return
			case <-t.C:
				fn()
			}
		}
	}()
	var once sync.Once
	return func() {
		once.Do(func() {
			close(quit)
			<-done
		})
	}
}

// stopBackground halts the periodic loops and waits for a pass in flight,
// so shutdown never races a chain unlink.
func (db *DB) stopBackground() {
	for _, stop := range db.background {
		stop()
	}
}

// VacuumOnce runs one version-vacuum sweep over every table and reports
// how many version entries were reclaimed. An entry is reclaimable when
// its commit watermark is at or below every live snapshot's — no current
// or future reader can resolve to it — or when its writer rolled back.
func (db *DB) VacuumOnce() int {
	if db.Closed() {
		return 0
	}
	threshold := db.txns.VacuumThreshold()
	db.mu.RLock()
	tables := make([]*table.Table, 0, len(db.tables))
	for _, t := range db.tables {
		tables = append(tables, t)
	}
	db.mu.RUnlock()
	reclaimed := 0
	for _, t := range tables {
		if t.VersionsEmpty() {
			continue
		}
		reclaimed += t.VacuumVersions(threshold, db.txns.IsActive)
	}
	if reclaimed > 0 {
		db.vacReclaim.Add(uint64(reclaimed))
	}
	return reclaimed
}

// reorgScanWriteRatio is the scans-per-write threshold at which the
// reorganizer promotes a table to columnar storage, and reorgMinRows the
// smallest table it promotes: below that the heap scan is already cheap.
const (
	reorgScanWriteRatio = 8
	reorgMinRows        = 1024
)

// ReorgOnce runs one storage-reorganizer pass and reports how many tables
// were promoted to columnar storage. A table is promoted when the observed
// workload is scan-heavy (scans/writes ≥ reorgScanWriteRatio, at least one
// scan) and the table is big enough to matter; the access digests are
// reset after a promotion so later ratios reflect the new workload phase.
func (db *DB) ReorgOnce() int {
	if db.degraded.Load() || db.Closed() || db.opts.ReplicaMode {
		return 0
	}
	promoted := 0
	for _, st := range db.flight.Access().Snapshot() {
		db.mu.RLock()
		tbl := db.tables[st.Table]
		db.mu.RUnlock()
		if tbl == nil || tbl.SegmentCount() > 0 {
			continue
		}
		if tbl.RowCount() < reorgMinRows || st.Scans == 0 {
			continue
		}
		writes := st.Writes
		if writes == 0 {
			writes = 1
		}
		if float64(st.Scans)/float64(writes) < reorgScanWriteRatio {
			continue
		}
		if err := db.schemaChange(context.Background(), nil, nil, nil, st.Table, false, storeLayout(true)); err != nil {
			continue // racing writer or I/O trouble; retry next pass
		}
		promoted++
		db.colPromotions.Inc()
	}
	if promoted > 0 {
		db.flight.Access().Reset()
	}
	return promoted
}

// publish hands what a statement's executor did to the engine's counters,
// to the access table the storage reorganizer reads, and to the
// statement's span (nil with the recorder off), and charges the span with
// the waits w its transaction tallied.
func (db *DB) publish(did *exec.Tally, w *txn.Waits, sp *flightrec.Span) {
	db.batches.Add(uint64(did.Batches))
	db.colSkipped.Add(uint64(did.SegsSkipped))
	db.colDecoded.Add(uint64(did.DecodedRows))
	for _, s := range did.Scans {
		db.flight.Access().NoteScan(s.Table, s.Rows)
	}
	if sp != nil {
		sp.Batches, sp.SpillBytes = did.Batches, did.SpillBytes
		sp.AddWaits(flightrec.WaitLock, w.Locks, w.LockUS)
		sp.AddWaits(flightrec.WaitWALFlush, w.Flushes, w.FlushUS)
	}
}

// Telemetry exposes the engine-wide metrics registry.
func (db *DB) Telemetry() *telemetry.Registry { return db.reg }

// FlightRecorder exposes the observability collector (spans, wait events,
// workload digests).
func (db *DB) FlightRecorder() *flightrec.Collector { return db.flight }

// ConnectionsColumns are the columns of sys.connections, one row per live
// network client: the network server's answer and the zero-row answer of a
// database it does not serve. Read-only.
var ConnectionsColumns = []table.Column{
	{Name: "id", Kind: val.KInt},
	{Name: "remote_addr", Kind: val.KStr},
	{Name: "state", Kind: val.KStr},
	{Name: "statements", Kind: val.KInt},
	{Name: "bytes_sent", Kind: val.KInt},
	{Name: "fingerprint", Kind: val.KStr},
	{Name: "age_us", Kind: val.KInt},
}

// VirtualRows implements opt.VirtualTables, snapshot at bind time:
//
//	sys.properties        — the telemetry registry as (name, kind, value)
//	sys.statements        — the workload digest table (per-fingerprint stats)
//	sys.waits             — the wait-event registry (count, time, quantiles)
//	sys.recent_statements — the flight-recorder ring of recent spans
//	sys.tables            — per-table storage state (format, segments,
//	                        residency) and observed access pattern
//	sys.transactions      — live transactions (state, age, snapshot
//	                        watermark, locks held, undo bytes); locks_held
//	                        counts table locks: the rows a transaction
//	                        wrote are locked by their version entries
func (db *DB) VirtualRows(name string) ([]table.Column, []exec.Row, bool) {
	switch name {
	case "sys.properties":
		cols := []table.Column{
			{Name: "name", Kind: val.KStr},
			{Name: "kind", Kind: val.KStr},
			{Name: "value", Kind: val.KInt},
		}
		snap := db.reg.Snapshot()
		rows := make([]exec.Row, len(snap))
		for i, s := range snap {
			rows[i] = exec.Row{val.NewStr(s.Name), val.NewStr(s.Kind.String()), val.NewInt(s.Value)}
		}
		return cols, rows, true
	case "sys.statements":
		cols := []table.Column{
			{Name: "fingerprint", Kind: val.KStr},
			{Name: "calls", Kind: val.KInt},
			{Name: "errors", Kind: val.KInt},
			{Name: "rows", Kind: val.KInt},
			{Name: "total_us", Kind: val.KInt},
			{Name: "min_us", Kind: val.KInt},
			{Name: "max_us", Kind: val.KInt},
			{Name: "p50_us", Kind: val.KInt},
			{Name: "p95_us", Kind: val.KInt},
			{Name: "p99_us", Kind: val.KInt},
			{Name: "lock_wait_us", Kind: val.KInt},
			{Name: "wal_wait_us", Kind: val.KInt},
			{Name: "io_wait_us", Kind: val.KInt},
		}
		snap := db.flight.Digests().Snapshot()
		rows := make([]exec.Row, len(snap))
		for i, d := range snap {
			rows[i] = exec.Row{
				val.NewStr(d.Fingerprint), val.NewInt(d.Calls), val.NewInt(d.Errors),
				val.NewInt(d.Rows), val.NewInt(d.TotalUS), val.NewInt(d.MinUS),
				val.NewInt(d.MaxUS), val.NewInt(d.P50US), val.NewInt(d.P95US),
				val.NewInt(d.P99US), val.NewInt(d.WaitUS[flightrec.WaitLock]),
				val.NewInt(d.WaitUS[flightrec.WaitWALFlush]),
				val.NewInt(d.WaitUS[flightrec.WaitBufferIO]),
			}
		}
		return cols, rows, true
	case "sys.waits":
		cols := []table.Column{
			{Name: "event", Kind: val.KStr},
			{Name: "count", Kind: val.KInt},
			{Name: "total_us", Kind: val.KInt},
			{Name: "p50_us", Kind: val.KInt},
			{Name: "p95_us", Kind: val.KInt},
			{Name: "p99_us", Kind: val.KInt},
		}
		snap := db.flight.Waits().Snapshot()
		rows := make([]exec.Row, len(snap))
		for i, w := range snap {
			rows[i] = exec.Row{
				val.NewStr(w.Name), val.NewInt(w.Count), val.NewInt(w.TotalUS),
				val.NewInt(w.P50US), val.NewInt(w.P95US), val.NewInt(w.P99US),
			}
		}
		return cols, rows, true
	case "sys.recent_statements":
		cols := []table.Column{
			{Name: "seq", Kind: val.KInt},
			{Name: "fingerprint", Kind: val.KStr},
			{Name: "start_us", Kind: val.KInt},
			{Name: "total_us", Kind: val.KInt},
			{Name: "parse_us", Kind: val.KInt},
			{Name: "optimize_us", Kind: val.KInt},
			{Name: "execute_us", Kind: val.KInt},
			{Name: "commit_us", Kind: val.KInt},
			{Name: "rows", Kind: val.KInt},
			{Name: "batches", Kind: val.KInt},
			{Name: "spill_bytes", Kind: val.KInt},
			{Name: "lock_wait_us", Kind: val.KInt},
			{Name: "wal_wait_us", Kind: val.KInt},
			{Name: "io_wait_us", Kind: val.KInt},
			{Name: "error", Kind: val.KStr},
		}
		spans := db.flight.Recent()
		rows := make([]exec.Row, len(spans))
		for i, sp := range spans {
			rows[i] = exec.Row{
				val.NewInt(int64(sp.Seq)), val.NewStr(sp.Fingerprint),
				val.NewInt(sp.StartUS), val.NewInt(sp.TotalUS),
				val.NewInt(sp.PhaseUS(flightrec.PhaseParse)),
				val.NewInt(sp.PhaseUS(flightrec.PhaseOptimize)),
				val.NewInt(sp.PhaseUS(flightrec.PhaseExecute)),
				val.NewInt(sp.PhaseUS(flightrec.PhaseCommit)),
				val.NewInt(sp.Rows), val.NewInt(sp.Batches),
				val.NewInt(sp.SpillBytes),
				val.NewInt(sp.WaitUS(flightrec.WaitLock)),
				val.NewInt(sp.WaitUS(flightrec.WaitWALFlush)),
				val.NewInt(sp.WaitUS(flightrec.WaitBufferIO)),
				val.NewStr(sp.Err),
			}
		}
		return cols, rows, true
	case "sys.tables":
		cols := []table.Column{
			{Name: "name", Kind: val.KStr},
			{Name: "storage", Kind: val.KStr},
			{Name: "rows", Kind: val.KInt},
			{Name: "pages", Kind: val.KInt},
			{Name: "segments", Kind: val.KInt},
			{Name: "resident", Kind: val.KDouble},
			{Name: "scans", Kind: val.KInt},
			{Name: "writes", Kind: val.KInt},
		}
		db.mu.RLock()
		names := make([]string, 0, len(db.tables))
		for n := range db.tables {
			names = append(names, n)
		}
		sort.Strings(names)
		rows := make([]exec.Row, 0, len(names))
		acc := db.flight.Access()
		for _, n := range names {
			tbl := db.tables[n]
			storage := "row"
			segs := tbl.SegmentCount()
			if segs > 0 {
				storage = catalog.StorageColumnar
			}
			st, _ := acc.Get(n)
			rows = append(rows, exec.Row{
				val.NewStr(n), val.NewStr(storage),
				val.NewInt(tbl.RowCount()), val.NewInt(int64(tbl.PageCount())),
				val.NewInt(int64(segs)), val.NewDouble(tbl.ResidentFraction()),
				val.NewInt(st.Scans), val.NewInt(st.Writes),
			})
		}
		db.mu.RUnlock()
		return cols, rows, true
	case "sys.connections":
		// Fed by the network server (RegisterVirtualTable); embedded
		// databases answer the schema with zero rows so queries and shell
		// .stats lines work either way.
		if cols, rows, ok := db.registeredVirtual(name); ok {
			return cols, rows, true
		}
		return ConnectionsColumns, nil, true
	case "sys.transactions":
		// Live transactions only. Free-standing statement snapshots are
		// deliberately excluded — the query reading this table holds one
		// itself, so listing them would make the table self-polluting;
		// their population is visible via the txn.snapshots_active gauge.
		cols := []table.Column{
			{Name: "id", Kind: val.KInt},
			{Name: "state", Kind: val.KStr},
			{Name: "age_us", Kind: val.KInt},
			{Name: "snapshot_csn", Kind: val.KInt},
			{Name: "locks_held", Kind: val.KInt},
			{Name: "undo_bytes", Kind: val.KInt},
		}
		txns := db.txns.Transactions()
		var rows []exec.Row
		for _, t := range txns {
			state := "active"
			if t.ReadOnly {
				state = "read-only"
			}
			held := db.locks.HeldCount(t.ID)
			rows = append(rows, exec.Row{
				val.NewInt(int64(t.ID)), val.NewStr(state),
				val.NewInt(t.AgeUS), val.NewInt(int64(t.SnapshotCSN)),
				val.NewInt(int64(held)), val.NewInt(t.UndoBytes),
			})
		}
		sort.Slice(rows, func(i, j int) bool { return rows[i][0].I < rows[j][0].I })
		return cols, rows, true
	}
	return db.registeredVirtual(name)
}

// VirtualTableFn produces one registered virtual table's snapshot.
type VirtualTableFn func() ([]table.Column, []exec.Row)

// RegisterVirtualTable publishes (or, with fn nil, withdraws) a virtual
// table served by a layer above core — the network server feeds
// sys.connections through this. Registered names resolve after the
// built-in sys.* tables.
func (db *DB) RegisterVirtualTable(name string, fn VirtualTableFn) {
	name = strings.ToLower(name)
	db.virtMu.Lock()
	defer db.virtMu.Unlock()
	if fn == nil {
		delete(db.virt, name)
		return
	}
	if db.virt == nil {
		db.virt = map[string]VirtualTableFn{}
	}
	db.virt[name] = fn
}

// registeredVirtual resolves a registered virtual-table provider.
func (db *DB) registeredVirtual(name string) ([]table.Column, []exec.Row, bool) {
	db.virtMu.RLock()
	fn := db.virt[name]
	db.virtMu.RUnlock()
	if fn == nil {
		return nil, nil, false
	}
	cols, rows := fn()
	return cols, rows, true
}

// heapBytes estimates the server's main heap: active tasks' pages.
func (db *DB) heapBytes() int64 {
	return int64(db.memG.ActiveRequests()+1) * 64 * page.Size / 8
}

// Table implements opt.Resolver. It is on the per-statement hot path and
// takes the database mutex in read mode only.
func (db *DB) Table(name string) (*table.Table, bool) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	t, ok := db.tables[name]
	return t, ok
}

// Clock exposes the virtual clock.
func (db *DB) Clock() *vclock.Clock { return db.clk }

// Pool exposes the buffer pool (experiments, monitoring).
func (db *DB) Pool() *buffer.Pool { return db.pool }

// Store exposes the page store.
func (db *DB) Store() *store.Store { return db.st }

// Machine exposes the simulated OS memory environment.
func (db *DB) Machine() *osenv.Machine { return db.machine }

// CacheGovernor exposes the buffer-pool-size feedback controller.
func (db *DB) CacheGovernor() *cachegov.Governor { return db.cacheG }

// MemGovernor exposes the per-task memory governor.
func (db *DB) MemGovernor() *mem.Governor { return db.memG }

// DTTModel reports the active cost model.
func (db *DB) DTTModel() *dtt.Model { return db.dttMod }

// Close checkpoints and shuts the database down. In degraded mode no
// writes are attempted — the checkpoint is skipped and files are closed
// as-is; the WAL on disk still recovers the last durable state.
func (db *DB) Close() error {
	db.mu.Lock()
	if db.closed {
		db.mu.Unlock()
		return nil
	}
	db.closed = true
	db.mu.Unlock()
	db.stopBackground()
	if db.degraded.Load() {
		db.log.CloseNoFlush()
		return db.st.CloseNoSync()
	}
	if err := db.Checkpoint(); err != nil {
		return err
	}
	if err := db.log.Close(); err != nil {
		return err
	}
	return db.st.Close()
}

// Crash simulates abrupt process death for the torture harness: the WAL's
// volatile buffer and every never-flushed page are discarded; nothing is
// synced. The store header on disk keeps its pre-crash page count.
func (db *DB) Crash() {
	db.mu.Lock()
	db.closed = true
	db.mu.Unlock()
	db.stopBackground()
	db.log.CloseNoFlush()
	_ = db.st.CloseNoSync()
}

// Degraded reports whether the database is in read-only degraded mode.
func (db *DB) Degraded() bool { return db.degraded.Load() }

// enterDegraded latches read-only mode when err is a permanent I/O
// failure; it reports whether the error was classified permanent. The
// first latch dumps the flight recorder to stderr: the spans and waits
// leading up to the failure are the post-mortem evidence, captured before
// the engine goes read-only.
func (db *DB) enterDegraded(err error) bool {
	if err == nil || !errors.Is(err, faultinject.ErrPermanent) {
		return false
	}
	db.degraded.Store(true)
	if db.flight.Enabled() && db.flightDumped.CompareAndSwap(false, true) {
		fmt.Fprintf(os.Stderr, "core: entering degraded mode (%v); flight-recorder dump:\n", err)
		db.flight.Dump(os.Stderr)
	}
	return true
}

// Closed reports whether the database has shut down.
func (db *DB) Closed() bool {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.closed
}

// Connect opens a connection. The database can serve many connections;
// with AutoShutdown it stops when the last one closes.
func (db *DB) Connect() (*Conn, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return nil, fmt.Errorf("core: database is closed")
	}
	db.conns++
	return &Conn{db: db}, nil
}
