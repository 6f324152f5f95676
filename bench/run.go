package main

import (
	"context"
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"anywheredb/internal/core"
	"anywheredb/internal/server"
	"anywheredb/internal/server/client"
	"anywheredb/internal/val"
)

// config is one invocation's shape. Engine options other than the pinned
// pool stay at their defaults: fsync is real (Dir on local disk, no
// CommitFlushDelay), admission control is on, GC and GOMAXPROCS untouched.
type config struct {
	seed    int64
	slice   time.Duration // length of one measured slice
	rounds  int           // measured rounds; one warm-up round precedes them
	trace   bool          // second pass: spans, probes, per-layer metrics
	workDir string        // databases and the default trace file live here
	// probeCalls and probeBudget bound each layer probe: it stops at
	// whichever comes first.
	probeCalls  int
	probeBudget time.Duration
}

// telemetry names read at every slice boundary; deltas between two
// boundaries are that slice's counts.
var telNames = []string{
	"buffer.hits", "buffer.misses", "buffer.evictions", "buffer.writebacks",
	"lock.acquires", "lock.waits",
	"wal.records", "wal.flushes", "wal.bytes_appended",
	"wal.commits_per_flush.sum", "wal.commits_per_flush.count",
	"opt.visits", "opt.plancache.hits", "opt.plancache.misses",
	"exec.batches", "colseg.decode_rows", "colseg.segments_skipped",
	"txn.versions_reclaimed",
	"server.bytes_sent", "server.queue_us.sum", "server.shed",
}

// counters is one reading of everything the benchmark counts: the Go
// runtime's allocation totals, process CPU time, and the engine's
// telemetry registry.
type counters struct {
	allocBytes, mallocs, gcCycles uint64
	cpuUS                         int64
	tel                           map[string]int64
}

func readCounters(db *core.DB) counters {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c := counters{allocBytes: ms.TotalAlloc, mallocs: ms.Mallocs, gcCycles: uint64(ms.NumGC),
		tel: make(map[string]int64, len(telNames))}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		c.cpuUS = (ru.Utime.Sec+ru.Stime.Sec)*1e6 + int64(ru.Utime.Usec+ru.Stime.Usec)
	}
	reg := db.Telemetry()
	for _, name := range telNames {
		c.tel[name], _ = reg.Value(name) // checkTelemetry vouched for the name
	}
	return c
}

// checkTelemetry fails if the engine no longer exports a counter the
// benchmark reads: a renamed counter would otherwise read 0 and show as a
// gain on every lower-is-better count.
func checkTelemetry(db *core.DB) error {
	reg := db.Telemetry()
	for _, name := range telNames {
		if _, ok := reg.Value(name); !ok {
			return fmt.Errorf("telemetry counter %q does not exist", name)
		}
	}
	return nil
}

// sliceStat is what one slice of one workload yields.
type sliceStat struct {
	traced   bool
	ops      int // verified ops completed
	wallS    float64
	p50US    float64
	before   counters
	after    counters
	latencyU []float64 // every verified op's latency, µs
}

func (s *sliceStat) throughput() float64 { return ratio(float64(s.ops), s.wallS) }

// tel is the slice's delta of one telemetry counter.
func (s *sliceStat) tel(name string) float64 {
	return float64(s.after.tel[name] - s.before.tel[name])
}

// run is one workload's live state through an invocation: its database,
// server and connection, the model its answers are checked against, and
// what it has measured so far.
type run struct {
	spec *spec
	cfg  *config
	rng  *rand.Rand

	dir      string
	db       *core.DB
	openedAt time.Time // ≈ the flight recorder's time origin for db
	srv      *server.Server
	cli      *client.Client
	stmts    map[string]*client.Stmt
	// emb, when set, carries statements straight into core.Conn: the
	// embedded probe runs the same op stream with no wire.
	emb *core.Conn

	padBase   string
	nextID    int64   // insert_commit: next id to insert
	ackedIDs  []int64 // insert_commit: ids whose INSERT was acknowledged
	vals      []int32 // rmw_cold: expected v per id
	ackedTxns int64   // rmw_cold: committed read-modify-writes
	ambiguous int64   // rmw_cold: COMMITs that returned an error
	agg       *aggModel

	attempted, failed int
	firstErr          error

	setupS float64 // wall time of buildDB
	slices []sliceStat
	tr     tracer
	probes map[string]float64
	plan   planInfo
	// fileBytesPerRow is database files ÷ live rows after the final close.
	fileBytesPerRow float64
	// recoveryS is how long reopening the crashed database took: log
	// replay, index rebuild and the checkpoint that follows.
	recoveryS float64
}

func newRun(s *spec, cfg *config) *run {
	h := fnv.New64a()
	h.Write([]byte(s.name))
	r := &run{spec: s, cfg: cfg, stmts: map[string]*client.Stmt{}, probes: map[string]float64{}}
	r.rng = rand.New(rand.NewSource(cfg.seed ^ int64(h.Sum64())))
	r.padBase = newPadBase(r.rng)
	r.nextID = int64(s.rows)
	// Both models are a few hundred KB; every workload gets them.
	r.vals = make([]int32, s.rows)
	for id := range r.vals {
		r.vals[id] = int32(id % vDomain)
	}
	r.agg = newAggModel(s.rows)
	return r
}

// setUp builds the workload's database in a fresh directory, timing the
// build (setup_s), then serves it to one client connection. One set-up per
// invocation: the driver takes the median over invocations.
func (r *run) setUp() error {
	r.dir = filepath.Join(r.cfg.workDir, r.spec.name)
	// A killed earlier run may have left its database behind.
	if err := os.RemoveAll(r.dir); err != nil {
		return err
	}
	if err := os.MkdirAll(r.dir, 0o755); err != nil {
		return err
	}
	start := time.Now()
	db, opened, err := buildDB(r.dir, r.spec, r.padBase)
	if err != nil {
		return fmt.Errorf("%s: %w", r.spec.name, err)
	}
	r.setupS = time.Since(start).Seconds()
	r.db, r.openedAt = db, opened
	if r.srv, err = server.Start(r.db, server.Options{}); err != nil {
		return err
	}
	if err := checkTelemetry(r.db); err != nil {
		return err
	}
	r.cli, err = client.Dial(r.srv.Addr().String(), client.Options{Name: "bench-" + r.spec.name})
	return err
}

// wireCall runs one statement over the wire and returns its rows (nil for
// DML) and rows-affected count.
func (r *run) wireCall(c call) ([][]val.Value, int64, error) {
	if !c.prepared {
		if isQuery(c.sql) {
			rows, err := r.cli.Query(c.sql, c.params...)
			if err != nil {
				return nil, 0, err
			}
			return rows.Data, 0, nil
		}
		res, err := r.cli.Exec(c.sql, c.params...)
		return nil, res.RowsAffected, err
	}
	st := r.stmts[c.sql]
	if st == nil {
		var err error
		if st, err = r.cli.Prepare(c.sql); err != nil {
			return nil, 0, err
		}
		r.stmts[c.sql] = st
	}
	if isQuery(c.sql) {
		rows, err := st.Query(c.params...)
		if err != nil {
			return nil, 0, err
		}
		return rows.Data, 0, nil
	}
	res, err := st.Exec(c.params...)
	return nil, res.RowsAffected, err
}

func isQuery(sql string) bool { return len(sql) >= 6 && sql[:6] == "SELECT" }

// call runs one statement of the current op over the wire (or through the
// embedded connection during that probe), as a stmt span when tracing.
func (r *run) call(c call) (rows [][]val.Value, affected int64, err error) {
	if r.emb != nil {
		res, rs, err := r.emb.RunContext(context.Background(), c.sql, c.params...)
		if err != nil {
			return nil, 0, err
		}
		if rs != nil {
			rows = rs.All()
		}
		return rows, res.RowsAffected, nil
	}
	if !r.tr.on {
		return r.wireCall(c)
	}
	start := time.Now()
	rows, affected, err = r.wireCall(c)
	r.tr.stmt(c.sql, start, time.Now())
	return rows, affected, err
}

func (r *run) query(c call) ([][]val.Value, error) {
	rows, _, err := r.call(c)
	return rows, err
}

func (r *run) exec(c call) (int64, error) {
	_, n, err := r.call(c)
	return n, err
}

// doOp runs one op, counts it, and returns its latency and whether its
// answer was verified. A failed op still occupies its time in the slice.
func (r *run) doOp() (time.Duration, bool) {
	start := time.Now()
	if r.tr.on {
		r.tr.beginOp(start)
	}
	err := r.spec.op(r)
	end := time.Now()
	if r.tr.on {
		r.tr.endOp(end)
	}
	r.attempted++
	if err != nil {
		r.failed++
		if r.firstErr == nil {
			r.firstErr = err
		}
	}
	return end.Sub(start), err == nil
}

// runSlice drives the closed loop for one slice. Counter readings are
// taken outside the timed window.
func (r *run) runSlice(d time.Duration, traced bool) sliceStat {
	st := sliceStat{traced: traced}
	if traced {
		r.tr.start(r.db)
	}
	st.before = readCounters(r.db)
	start := time.Now()
	for time.Since(start) < d {
		lat, ok := r.doOp()
		if ok {
			st.ops++
			st.latencyU = append(st.latencyU, float64(lat.Nanoseconds())/1e3)
		}
	}
	st.wallS = time.Since(start).Seconds()
	st.after = readCounters(r.db)
	if traced {
		r.tr.stop()
	}
	st.p50US = median(st.latencyU)
	return st
}

// finish stops the server, runs the durability check where the workload
// writes, and measures the space the database takes. The caller removes
// the directory.
func (r *run) finish() error {
	if r.cli != nil {
		r.cli.Close()
	}
	if r.srv != nil {
		r.srv.Close() // abrupt: no drain checkpoint may paper over a lost commit
	}
	if r.db == nil {
		return nil
	}
	liveRows := int64(r.spec.rows)
	if r.spec.durable != nil {
		r.db.Crash()
		start := time.Now()
		db, err := core.Open(core.Options{Dir: r.dir})
		if err != nil {
			return fmt.Errorf("%s: reopen after crash: %w", r.spec.name, err)
		}
		r.recoveryS = time.Since(start).Seconds()
		r.db = db
		c, err := db.Connect()
		if err != nil {
			return err
		}
		err = r.spec.durable(r, c)
		c.Close()
		if err != nil {
			return err
		}
		liveRows += int64(len(r.ackedIDs))
	}
	if err := r.db.Close(); err != nil {
		return err
	}
	bytes, err := dirBytes(r.dir)
	if err != nil {
		return err
	}
	r.fileBytesPerRow = ratio(float64(bytes), float64(liveRows))
	return nil
}

func dirBytes(dir string) (int64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var total int64
	for _, e := range ents {
		info, err := e.Info()
		if err != nil {
			return 0, err
		}
		total += info.Size()
	}
	return total, nil
}
