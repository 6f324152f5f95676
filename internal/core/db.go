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
	"encoding/binary"
	"errors"
	"fmt"
	"maps"
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
	// for the lifetime of the server (§2).
	PoolMinPages, PoolInitPages, PoolMaxPages int

	// TotalRAM is the simulated machine's physical memory (default 256 MB).
	TotalRAM int64
	// CEMode selects the Windows CE variant of the cache governor.
	CEMode bool
	// MPL is the server multiprogramming level (default 4).
	MPL int
	// Workers is the default intra-query parallelism (default 1).
	Workers int
	// CPURowCost is the virtual-microsecond CPU proxy charged per row.
	CPURowCost int64
	// ExecBatchSize pins the executor's rows-per-batch (0 = adaptive:
	// derived from the memory governor and worker count between batches).
	// Setting 1 degrades to row-at-a-time execution; the differential tests
	// use this to cross-check the batch protocol.
	ExecBatchSize int
	// AutoShutdown closes the database when the last connection closes
	// (the embedded-deployment behaviour of §1).
	AutoShutdown bool

	// CommitFlushDelay is the WAL group-commit gather window: a flush
	// leader lingers this long before sealing the batch, trading commit
	// latency for larger groups (fewer fsyncs). 0 flushes immediately;
	// batching then comes only from committers piling up behind an
	// in-flight fsync, which preserves single-user latency semantics.
	CommitFlushDelay time.Duration

	// Injector, when non-nil, is consulted on every storage and WAL
	// operation and at named crashpoints (fault injection / torture).
	Injector faultinject.Injector
	// RetryPolicy bounds transient-I/O retries in the buffer pool and WAL
	// flush paths. The zero value selects the default policy.
	RetryPolicy faultinject.RetryPolicy
	// StatementTimeout bounds each statement's wall-clock time (0 = none).
	// Cancellation is observed at batch boundaries in every operator.
	StatementTimeout time.Duration
	// DisableFlightRecorder turns span/wait/digest capture off. The
	// instrumentation stays compiled in (observer hooks installed, branch
	// costs paid) — this is the overhead baseline experiment E21 measures
	// against.
	DisableFlightRecorder bool
	// ParanoidRecovery re-applies the recovery plan a second time after
	// redo/undo and verifies the replay was idempotent (the logical page
	// content must not change). Torture tests run with this on.
	ParanoidRecovery bool

	// ReorgInterval enables the background storage reorganizer: every
	// interval it inspects the flight recorder's per-table access digests
	// and promotes scan-heavy, write-light tables to columnar storage.
	// 0 disables the loop; ReorgOnce still works for explicit passes.
	ReorgInterval time.Duration
	// ReorgMinRows is the smallest table the reorganizer will promote
	// (default 1024 — below that the heap scan is already cheap).
	ReorgMinRows int

	// ReplicaMode opens the database as a log-shipping read replica: SQL
	// writes are refused (ErrReplica), the storage reorganizer never runs,
	// and index trees are not attached — the replica must never allocate
	// pages in main.db, or its allocations would collide with page ids the
	// primary assigns in the shipped stream. Shipped WAL records are applied
	// through the Applier (replica.go); reads run as heap scans under MVCC
	// snapshots. Local transaction and snapshot ids start at ReplicaIDBase
	// so they can never equal a primary transaction id in the stream.
	ReplicaMode bool
	// RebuildIndexesOnOpen forces a full index rebuild (and checkpoint)
	// after attach, regardless of whether recovery ran. Promotion of a
	// replica opens the data directory with this set: the catalog's index
	// roots predate the shipped stream and the trees are stale.
	RebuildIndexesOnOpen bool

	// LockingReads disables MVCC snapshot reads: queries take shared table
	// locks under two-phase locking instead of resolving row versions.
	// This is the pre-MVCC behaviour, kept as the measured baseline for
	// experiment E23 (readers block behind writers and vice versa).
	LockingReads bool
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
	if o.PoolInitPages <= 0 {
		o.PoolInitPages = 256
	}
	if o.PoolMaxPages <= 0 {
		o.PoolMaxPages = 4096
	}
	if o.TotalRAM <= 0 {
		o.TotalRAM = 256 << 20
	}
	if o.MPL <= 0 {
		o.MPL = 4
	}
	if o.Workers <= 0 {
		o.Workers = 1
	}
	if o.RetryPolicy.MaxAttempts == 0 {
		o.RetryPolicy = faultinject.DefaultRetryPolicy()
	}
	if o.ReorgMinRows <= 0 {
		o.ReorgMinRows = 1024
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

	// Executor-level counters (the component counters live on their
	// components and are published as func-backed gauges).
	statements  *telemetry.Counter
	rowsOut     *telemetry.Counter
	statementUS *telemetry.Histogram
	batches     *telemetry.Counter
	batchRows   *telemetry.Histogram
	planEnums   *telemetry.Counter
	planVisits  *telemetry.Counter
	planPruned  *telemetry.Counter
	planQuotaEx *telemetry.Counter
	pcHits      *telemetry.Counter
	pcMisses    *telemetry.Counter
	pcTrainings *telemetry.Counter
	pcVerifies  *telemetry.Counter
	pcInvalid   *telemetry.Counter

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

	// background holds the stop functions of the periodic loops (storage
	// reorganizer, version vacuum) in the order shutdown stops them.
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

	// Tracer, when non-nil, records every statement (Application
	// Profiling, §5). Atomic so the per-statement read never touches the
	// global mutex.
	tracer atomic.Pointer[StatementTracer]
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

// StatementTracer receives statement trace events (implemented by the
// profile package; an interface here avoids a dependency cycle).
type StatementTracer interface {
	TraceStatement(sql string, params []val.Value, micros int64, rows int64)
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
	log, err := wal.OpenOptions(logPath, wal.Options{
		CommitFlushDelay: opts.CommitFlushDelay,
	})
	if err != nil {
		st.Close()
		return nil, err
	}
	db.log = log
	log.SetInjector(db.inj, opts.RetryPolicy, &db.faultStats)
	// failOpen releases file handles on any later Open failure without
	// syncing: a failed open (e.g. a crash injected during recovery) must
	// leave the on-disk state exactly as it found it.
	failOpen := func(err error) (*DB, error) {
		_ = log.CloseNoFlush()
		_ = st.CloseNoSync()
		return nil, err
	}

	db.pool = buffer.New(st, opts.PoolMinPages, opts.PoolInitPages, opts.PoolMaxPages)
	db.pool.SetFaultPolicy(opts.RetryPolicy, &db.faultStats)
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

	// Crash recovery FIRST, before anything reads pages: logged page images
	// repair torn writes to catalog and lock pages just as they do data
	// pages, so catalog.Load and lock.NewManager must not run until the
	// plan has been applied. (Recovery itself needs only store+pool+log.)
	// It writes nothing it does not have to: the checkpoint below is what
	// makes the recovered state the new baseline and clears the log.
	plan, replayed := &wal.RecoveryPlan{}, false
	if !fresh {
		if plan, replayed, err = db.recover(); err != nil {
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

	db.locks, err = lock.NewManager(db.pool, st)
	if err != nil {
		return failOpen(err)
	}
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

	// Attach tables from the catalog and recover statistics. Recovery has
	// already run: the page chains Attach walks reflect every replayed
	// RecPageLink, and torn pages were restored from their logged images.
	// After a non-trivial replay the index trees (not WAL-logged) may be
	// stale relative to the heaps and are rebuilt from heap scans, and a
	// columnar snapshot the replay invalidated is not attached. Promotion of
	// a replica forces the rebuild: the catalog's roots predate the shipped
	// stream. The checkpoint then makes all of it durable and clears the log.
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

	// The engine-wide telemetry registry: every layer publishes its
	// counters here, and SQL reads them back via PROPERTY() and
	// sys.properties.
	db.reg = telemetry.NewRegistry()
	db.setOptEnv(db.dttMod)
	db.pool.AttachTelemetry(db.reg)
	db.log.AttachTelemetry(db.reg)
	db.locks.AttachTelemetry(db.reg)
	db.memG.AttachTelemetry(db.reg)
	db.cacheG.AttachTelemetry(db.reg)
	// The flight recorder: always allocated so the instrumentation cost is
	// identical enabled or disabled (E21's baseline); wall-clock µs since
	// open is the span/wait timebase.
	openedAt := time.Now()
	db.flight = flightrec.New(flightrec.DefaultRingSize, func() int64 {
		return time.Since(openedAt).Microseconds()
	})
	db.flight.SetEnabled(!opts.DisableFlightRecorder)
	db.flight.AttachTelemetry(db.reg)
	// Wait-event observers. Attribution: lock waits carry the waiting
	// transaction's id; commit flush waits are measured at the txn layer
	// (id known) and fed to the span only — the WAL-layer observer feeds
	// the global registry, so one wait is never double-counted; buffer
	// read I/O has no transaction identity, so spans are charged only when
	// exactly one statement is live (exact attribution) and the global
	// registry always.
	db.locks.SetWaitObserver(func(txnID uint64, us int64) {
		if !db.flight.Enabled() {
			return
		}
		db.flight.ObserveWait(flightrec.WaitLock, us)
		if sp := db.flight.SpanOfTxn(txnID); sp != nil {
			sp.AddWait(flightrec.WaitLock, us)
		}
	})
	db.log.SetFlushWaitObserver(func(us int64) {
		if !db.flight.Enabled() {
			return
		}
		db.flight.ObserveWait(flightrec.WaitWALFlush, us)
	})
	db.txns.SetCommitWaitObserver(func(txnID uint64, us int64) {
		if us <= 0 || !db.flight.Enabled() {
			return
		}
		if sp := db.flight.SpanOfTxn(txnID); sp != nil {
			sp.AddWait(flightrec.WaitWALFlush, us)
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
	db.batchRows = db.reg.Histogram("exec.batch_rows")
	db.planEnums = db.reg.Counter("opt.enumerations")
	db.planVisits = db.reg.Counter("opt.visits")
	db.planPruned = db.reg.Counter("opt.pruned")
	db.planQuotaEx = db.reg.Counter("opt.quota_exhausted")
	db.pcHits = db.reg.Counter("opt.plancache.hits")
	db.pcMisses = db.reg.Counter("opt.plancache.misses")
	db.pcTrainings = db.reg.Counter("opt.plancache.trainings")
	db.pcVerifies = db.reg.Counter("opt.plancache.verifications")
	db.pcInvalid = db.reg.Counter("opt.plancache.invalidations")
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

	// The background storage reorganizer (a periodic pass over the flight
	// recorder's access digests: §1's workload-driven physical design,
	// applied to storage format) and version vacuum (a periodic sweep
	// freeing row versions below the oldest-snapshot watermark). Shutdown
	// stops them in this order.
	if opts.ReorgInterval > 0 && !opts.ReplicaMode {
		db.background = append(db.background, runEvery(opts.ReorgInterval, func() { db.ReorgOnce() }))
	}
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
// so shutdown never races a promotion's checkpoint or a chain unlink.
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
// reorganizer promotes a table to columnar storage.
const reorgScanWriteRatio = 8

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
		if tbl.RowCount() < int64(db.opts.ReorgMinRows) || st.Scans == 0 {
			continue
		}
		writes := st.Writes
		if writes == 0 {
			writes = 1
		}
		if float64(st.Scans)/float64(writes) < reorgScanWriteRatio {
			continue
		}
		if err := db.schemaChange(context.Background(), nil, nil, st.Table, false, storeLayout(true)); err != nil {
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

// noteScan feeds executor scan feedback into the per-table access digests.
func (db *DB) noteScan(name string, rows int64) {
	db.flight.Access().NoteScan(name, rows)
}

// Telemetry exposes the engine-wide metrics registry.
func (db *DB) Telemetry() *telemetry.Registry { return db.reg }

// FlightRecorder exposes the observability collector (spans, wait events,
// workload digests).
func (db *DB) FlightRecorder() *flightrec.Collector { return db.flight }

// VirtualRows implements opt.VirtualTables, snapshot at bind time:
//
//	sys.properties        — the telemetry registry as (name, kind, value)
//	sys.statements        — the workload digest table (per-fingerprint stats)
//	sys.waits             — the wait-event registry (count, time, quantiles)
//	sys.recent_statements — the flight-recorder ring of recent spans
//	sys.tables            — per-table storage state (format, segments,
//	                        residency) and observed access pattern
//	sys.transactions      — live transactions (state, age, snapshot
//	                        watermark, locks held, undo bytes)
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
				val.NewInt(sp.Rows), val.NewInt(sp.Batches()),
				val.NewInt(sp.SpillBytes()),
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
		return []table.Column{
			{Name: "id", Kind: val.KInt},
			{Name: "remote_addr", Kind: val.KStr},
			{Name: "state", Kind: val.KStr},
			{Name: "statements", Kind: val.KInt},
			{Name: "bytes_sent", Kind: val.KInt},
			{Name: "fingerprint", Kind: val.KStr},
			{Name: "age_us", Kind: val.KInt},
		}, nil, true
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

// ConnCount reports the number of open connections.
func (db *DB) ConnCount() int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.conns
}

// heapBytes estimates the server's main heap: active tasks' pages.
func (db *DB) heapBytes() int64 {
	return int64(db.memG.ActiveRequests()+1) * 64 * page.Size / 8
}

// recover replays the WAL into the buffer pool: page images are restored,
// committed data records and page-chain links are redone onto the pages
// stamped older than them, loser records are undone (reverse order). It
// reports whether any work was replayed, and returns the plan for what the
// log says about objects the catalog — not yet loaded — describes.
func (db *DB) recover() (*wal.RecoveryPlan, bool, error) {
	plan, err := db.log.Analyze()
	if err != nil {
		return nil, false, err
	}
	if len(plan.Redo)+len(plan.Undo)+len(plan.Images) == 0 {
		return plan, false, nil
	}
	// A page on the free chain takes no image: whatever was logged of it
	// was logged before it was freed.
	free, err := db.st.FreeList(store.MainFile)
	if err != nil {
		return nil, false, err
	}
	for _, id := range free {
		delete(plan.Images, id)
	}
	pages := planPages(plan)
	// A crash loses the store header, so the on-disk page count can lag
	// behind pages the WAL knows about: make every logged page addressable
	// before replaying onto it (unwritten tails read back as zero pages).
	for _, id := range pages {
		db.st.EnsureAllocated(id)
	}
	if err := db.applyPlan(plan); err != nil {
		return nil, false, err
	}
	if db.inj != nil {
		if err := db.inj.Crashpoint("recovery.after_redo"); err != nil {
			return nil, false, err
		}
	}
	if db.opts.ParanoidRecovery {
		before := db.snapshotPages(pages)
		if err := db.applyPlan(plan); err != nil {
			return nil, false, err
		}
		after := db.snapshotPages(pages)
		for i := range before {
			if before[i] != after[i] {
				return nil, false, faultinject.Corrupt(fmt.Errorf(
					"core: recovery replay not idempotent: %q became %q", before[i], after[i]))
			}
		}
	}
	return plan, true, nil
}

// planPages collects the distinct pages a recovery plan touches, including
// the targets of page-link records.
func planPages(plan *wal.RecoveryPlan) []store.PageID {
	seen := map[store.PageID]bool{}
	for id := range plan.Images {
		seen[id] = true
	}
	for _, r := range plan.Redo {
		seen[r.Page] = true
		if r.Type == wal.RecPageLink && len(r.After) >= 8 {
			seen[store.PageID(binary.LittleEndian.Uint64(r.After))] = true
		}
	}
	for _, r := range plan.Undo {
		seen[r.Page] = true
	}
	return slices.Sorted(maps.Keys(seen))
}

// applyPlan runs one full pass of the recovery plan. Every step is
// conditional on current page state, so the pass is idempotent and can be
// re-run (ParanoidRecovery does exactly that).
func (db *DB) applyPlan(plan *wal.RecoveryPlan) error {
	// Page images first: each page's newest image is a state it passed
	// through, older than its last write only by records the log holds, so
	// restoring it repairs any torn write. Redo then applies, in LSN order,
	// each record newer than the LSN its page is stamped with.
	for _, id := range slices.Sorted(maps.Keys(plan.Images)) {
		db.applyImage(plan.Images[id])
	}
	for _, r := range plan.Redo {
		if err := db.applyRedo(r); err != nil {
			return err
		}
	}
	for _, r := range plan.Undo {
		db.applyUndo(r)
	}
	return nil
}

// onPage runs fn on page id under its exclusive latch. A page that cannot
// be read (a truncated file) has nothing to recover onto.
func (db *DB) onPage(id store.PageID, fn func(f *buffer.Frame)) {
	if f, err := db.pool.Get(id); err == nil {
		f.Lock()
		fn(f)
		f.Unlock()
		db.pool.Unpin(f, false)
	}
}

// applyImage writes a logged full-page image back over the page. The pool
// learns that the log holds it: a page whose changes from here on are
// stamped by redo is written back without a new image.
func (db *DB) applyImage(r *wal.Record) {
	db.onPage(r.Page, func(f *buffer.Frame) {
		if len(r.After) != len(f.Data) {
			return
		}
		if string(f.Data) != string(r.After) {
			copy(f.Data, r.After)
			f.MarkDirty()
		}
		db.pool.Imaged(f, r.LSN)
	})
}

// claimPage makes the latched page an empty heap page of the table unless
// it already is one of its heap pages. A logged record names the page as
// the table's; if the page says otherwise it never reached disk in that
// role (it reads back zero-filled), or it did not since an earlier life as
// something else, whose last logged image recovery has just restored.
func claimPage(f *buffer.Frame, tableID uint64) {
	if f.Data.Type() != page.TypeTable || f.Data.Owner() != tableID {
		f.Data.Init(page.TypeTable)
		f.Data.SetOwner(tableID)
		f.MarkDirty()
	}
}

func (db *DB) tableByID(id uint64) *table.Table {
	for _, t := range db.tables {
		if t.ID == id {
			return t
		}
	}
	return nil
}

// applyRedo re-applies a committed change, or a chain link, to the pages
// it names that are stamped older than its record: idempotent page-level
// redo.
func (db *DB) applyRedo(r *wal.Record) error {
	slot := int(r.Slot)
	switch {
	case r.Type != wal.RecPageLink:
		return db.redoOnto(r.Page, r, func(p page.Buf) bool {
			switch {
			case r.Type == wal.RecDelete:
				p.Delete(slot)
				return true
			case p.Cell(slot) != nil:
				return p.Update(slot, r.After)
			}
			// InsertSparse, not InsertAt: redo replays only committed
			// inserts, so the slot sequence has holes where loser
			// transactions' slots were.
			return p.InsertSparse(slot, r.After)
		})
	case len(r.After) < 8:
		return nil
	}
	next := binary.LittleEndian.Uint64(r.After)
	if err := db.redoOnto(r.Page, r, func(p page.Buf) bool { p.SetNext(next); return true }); err != nil {
		return err
	}
	return db.redoOnto(store.PageID(next), r, func(page.Buf) bool { return true })
}

// redoOnto applies change, the effect of r, to page id unless the page is
// stamped with r's LSN or a newer one, and stamps it. A page r names as its
// table's heap page that is not one is claimed first.
func (db *DB) redoOnto(id store.PageID, r *wal.Record, change func(p page.Buf) bool) error {
	f, err := db.pool.Get(id)
	if err != nil {
		return nil // page gone (e.g. truncated file); nothing to redo onto
	}
	defer db.pool.Unpin(f, false)
	// Looked at shared first: to the pool an exclusive latch is a change,
	// which would image the page again. Recovery runs alone.
	f.RLock()
	done := f.Data.LSN() >= r.LSN
	f.RUnlock()
	if done {
		return nil
	}
	f.Lock()
	defer f.Unlock()
	claimPage(f, r.Table)
	if !change(f.Data) {
		return faultinject.Corrupt(fmt.Errorf(
			"core: recovery redo could not restore page %v slot %d", r.Page, r.Slot))
	}
	f.MarkDirty()
	f.Stamp(r.LSN)
	return nil
}

// applyUndo compensates a loser's change if the page reflects it.
func (db *DB) applyUndo(r *wal.Record) {
	db.onPage(r.Page, func(f *buffer.Frame) {
		claimPage(f, r.Table)
		slot, cur := int(r.Slot), f.Data.Cell(int(r.Slot))
		mine := cur != nil && string(cur) == string(r.After)
		switch {
		case r.Type == wal.RecInsert && mine:
			f.Data.Delete(slot)
		case r.Type == wal.RecDelete && cur == nil:
			f.Data.InsertSparse(slot, r.Before)
		case r.Type == wal.RecUpdate && mine:
			f.Data.Update(slot, r.Before)
		default:
			return
		}
		f.MarkDirty()
	})
}

// snapshotPages captures one logical description per page: type, owner,
// next pointer, and every live cell. Replay idempotency is judged on this
// logical content — raw bytes may legitimately differ between passes
// (slot-array garbage accounting, compaction offsets) when a redo insert
// re-fires into a slot a later redo delete had freed.
func (db *DB) snapshotPages(ids []store.PageID) []string {
	out := make([]string, 0, len(ids))
	for _, id := range ids {
		f, err := db.pool.Get(id)
		if err != nil {
			out = append(out, fmt.Sprintf("%v:unreadable", id))
			continue
		}
		f.RLock()
		var sb strings.Builder
		fmt.Fprintf(&sb, "%v t=%d o=%d n=%d", id, f.Data.Type(), f.Data.Owner(), f.Data.Next())
		for s := 0; s < f.Data.NumSlots(); s++ {
			if c := f.Data.Cell(s); c != nil {
				fmt.Fprintf(&sb, " %d=%x", s, c)
			}
		}
		f.RUnlock()
		db.pool.Unpin(f, false)
		out = append(out, sb.String())
	}
	return out
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

// Catalog exposes the catalog (profiling tools read options).
func (db *DB) Catalog() *catalog.Catalog { return db.cat }

// SetTracer installs an Application Profiling statement tracer. A nil t
// uninstalls it.
func (db *DB) SetTracer(t StatementTracer) {
	if t == nil {
		db.tracer.Store(nil)
		return
	}
	db.tracer.Store(&t)
}

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
