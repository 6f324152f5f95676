package experiments

import (
	"fmt"
	"math/rand"
	"os"
	"strings"
	"sync"
	"time"

	"anywheredb/internal/core"
	"anywheredb/internal/faultinject"
	"anywheredb/internal/val"
)

// Commit throughput (E20) and multi-writer group-commit torture. Both
// exercise the WAL's leader/follower flush batching under a concurrent
// commit load: E20 measures it (commits/sec and fsyncs/commit), the torture
// breaks it (transient, permanent and torn flush faults plus crashes while
// K writers commit concurrently) and then checks the recovery invariants
// writer by writer.

// commitStats is one throughput run's outcome.
type commitStats struct {
	CommitsPerSec   float64
	FsyncsPerCommit float64
	GroupCommits    uint64
}

// commitThroughput runs writers concurrent connections, each committing
// txnsPerWriter small single-row write transactions against its own key
// range, and reports commit throughput plus the fsync amplification taken
// from the engine's own wal.flushes counter. The caller's opts (minus Dir,
// which is always a fresh temp directory) select the engine configuration
// under test — E21 toggles DisableFlightRecorder.
func commitThroughput(writers, txnsPerWriter int, opts core.Options) (*commitStats, error) {
	dir, err := os.MkdirTemp("", "anywheredb-commit-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	opts.Dir = dir

	db, err := core.Open(opts)
	if err != nil {
		return nil, err
	}
	defer db.Close()

	setup, err := db.Connect()
	if err != nil {
		return nil, err
	}
	if _, err := setup.Exec("CREATE TABLE kv (k INT, v INT)"); err != nil {
		return nil, err
	}
	setup.Close()

	conns := make([]*core.Conn, writers)
	for w := range conns {
		if conns[w], err = db.Connect(); err != nil {
			return nil, err
		}
		defer conns[w].Close()
	}

	flushesBefore, _ := db.Telemetry().Value("wal.flushes")
	groupsBefore, _ := db.Telemetry().Value("wal.group_commits")

	var wg sync.WaitGroup
	errs := make([]error, writers)
	start := time.Now()
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			conn := conns[w]
			base := int64(w) * 1_000_000
			for i := 0; i < txnsPerWriter; i++ {
				if _, err := conn.Exec("BEGIN"); err != nil {
					errs[w] = err
					return
				}
				if _, err := conn.Exec("INSERT INTO kv VALUES (?, ?)",
					val.NewInt(base+int64(i)), val.NewInt(int64(i))); err != nil {
					errs[w] = err
					return
				}
				if _, err := conn.Exec("COMMIT"); err != nil {
					errs[w] = err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)
	for _, e := range errs {
		if e != nil {
			return nil, e
		}
	}

	flushesAfter, _ := db.Telemetry().Value("wal.flushes")
	groupsAfter, _ := db.Telemetry().Value("wal.group_commits")
	commits := float64(writers * txnsPerWriter)
	return &commitStats{
		CommitsPerSec:   commits / elapsed.Seconds(),
		FsyncsPerCommit: float64(flushesAfter-flushesBefore) / commits,
		GroupCommits:    uint64(groupsAfter - groupsBefore),
	}, nil
}

// E20CommitThroughput: group-commit throughput. The paper's self-managing
// story (§2.1) assumes the engine keeps transaction throughput up without
// a DBA tuning a "commit delay" knob; the measured claim here is that
// leader/follower flush batching alone — no gather window configured —
// turns N concurrent committers into far fewer than N fsyncs. The
// flush-under-mutex path it replaced paid one fsync per commit; that
// comparison is a recorded result in EXPERIMENTS.md, not a live code path.
func E20CommitThroughput() (*Report, error) {
	const txnsPerWriter = 200
	var sb strings.Builder
	sb.WriteString("writers  commits/s  fsync/commit  batched flushes\n")

	metrics := map[string]float64{}
	for _, writers := range []int{1, 4, 16} {
		group, err := commitThroughput(writers, txnsPerWriter, core.Options{})
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(&sb, "%7d  %9.0f  %12.3f  %15d\n",
			writers, group.CommitsPerSec, group.FsyncsPerCommit, group.GroupCommits)
		metrics[fmt.Sprintf("group_fsyncs_per_commit_%dw", writers)] = group.FsyncsPerCommit
		metrics[fmt.Sprintf("group_commits_per_sec_%dw", writers)] = group.CommitsPerSec
	}
	return &Report{
		ID:      "E20",
		Title:   "Group commit: concurrent commit throughput and fsyncs per commit",
		Table:   sb.String(),
		Metrics: metrics,
	}, nil
}

// CommitTortureConfig parameterizes one multi-writer torture run.
type CommitTortureConfig struct {
	// Cycles is the number of crash/recover cycles (default 30).
	Cycles int
	// Writers is the number of concurrent committers per cycle (default 4).
	// Each writer owns a disjoint key range, so recovery is verifiable
	// writer by writer even though commit interleaving is nondeterministic.
	Writers int
	// TxnsPerWriter is the number of transactions each writer attempts per
	// cycle (default 5).
	TxnsPerWriter int
	// Seed drives the workload and every fault schedule.
	Seed int64
	// Dir is the database directory (required: crashes need real files).
	Dir string
}

// CommitTortureResult summarizes a run.
type CommitTortureResult struct {
	Cycles        int // cycles completed
	Crashes       int // scheduled crashes that fired
	Commits       int // transactions acknowledged committed
	Rollbacks     int // transactions rolled back after a statement error
	Indeterminate int // commits with unknown fate (flush failed or crashed)

	// GroupCommits counts flushes that retired more than one committer,
	// summed across all cycles — proof the faults landed on real groups.
	GroupCommits uint64
	// Engine fault counters accumulated across all cycles.
	Injected, Retried, GaveUp uint64
}

// writerKey returns writer w's i-th key. Ranges are disjoint by
// construction, so each writer's rows partition the table.
func writerKey(w int, i int64) int64 { return int64(w)*1_000_000 + i }

// CommitTorture is the group-commit acceptance torture: K writers commit
// concurrently while a deterministic schedule injects transient, permanent
// and torn WAL-flush faults and crashes the machine around the commit
// flush. It verifies, after every cycle:
//
//   - durability: every acknowledged commit is present after recovery;
//   - atomicity: no rolled-back transaction is visible, in full or part;
//   - group failure: a commit that was never acknowledged must not be
//     durable unless it is the writer's single indeterminate transaction
//     (its COMMIT returned an error, so the fate is legitimately unknown —
//     but all-or-nothing still applies).
//
// Because each writer stops at its first failed COMMIT and a writer's WAL
// records are sequential, at most one transaction per writer per cycle is
// indeterminate; the verifier accepts either fate for exactly that one.
func CommitTorture(cfg CommitTortureConfig) (*CommitTortureResult, error) {
	if cfg.Dir == "" {
		return nil, fmt.Errorf("experiments: CommitTorture needs a directory")
	}
	if cfg.Cycles <= 0 {
		cfg.Cycles = 30
	}
	if cfg.Writers <= 0 {
		cfg.Writers = 4
	}
	if cfg.TxnsPerWriter <= 0 {
		cfg.TxnsPerWriter = 5
	}

	res := &CommitTortureResult{}
	master := rand.New(rand.NewSource(cfg.Seed))
	// Per-writer committed state and key allocator, disjoint by range.
	models := make([]map[int64]int64, cfg.Writers)
	nextKey := make([]int64, cfg.Writers)
	for w := range models {
		models[w] = map[int64]int64{}
	}

	// Seed the schema, checkpointed durably before torture begins.
	{
		db, err := core.Open(core.Options{Dir: cfg.Dir})
		if err != nil {
			return nil, err
		}
		conn, err := db.Connect()
		if err != nil {
			return nil, err
		}
		if _, err := conn.Exec("CREATE TABLE kv (k INT, v INT)"); err != nil {
			return nil, err
		}
		if _, err := conn.Exec("CREATE UNIQUE INDEX kv_k ON kv (k)"); err != nil {
			return nil, err
		}
		conn.Close()
		if err := db.Close(); err != nil {
			return nil, err
		}
	}

	harvest := func(db *core.DB) {
		if v, ok := db.Telemetry().Value("fault.injected"); ok {
			res.Injected += uint64(v)
		}
		if v, ok := db.Telemetry().Value("fault.retried"); ok {
			res.Retried += uint64(v)
		}
		if v, ok := db.Telemetry().Value("fault.gaveup"); ok {
			res.GaveUp += uint64(v)
		}
		if v, ok := db.Telemetry().Value("wal.group_commits"); ok {
			res.GroupCommits += uint64(v)
		}
	}

	// verify reopens cleanly (paranoid recovery) and checks each writer's
	// key range against that writer's model, allowing exactly the writer's
	// indeterminate transaction to have gone either way.
	verify := func(cycle int, indets [][]kvOp) error {
		db, err := core.Open(core.Options{Dir: cfg.Dir, ParanoidRecovery: true})
		if err != nil {
			return fmt.Errorf("cycle %d: clean recovery failed: %w", cycle, err)
		}
		defer db.Close()
		conn, err := db.Connect()
		if err != nil {
			return err
		}
		defer conn.Close()
		rows, err := conn.Query("SELECT k, v FROM kv")
		if err != nil {
			return fmt.Errorf("cycle %d: post-recovery read failed: %w", cycle, err)
		}
		got := make([]map[int64]int64, cfg.Writers)
		for w := range got {
			got[w] = map[int64]int64{}
		}
		for _, r := range rows.All() {
			w := int(r[0].I / 1_000_000)
			if w < 0 || w >= cfg.Writers {
				return fmt.Errorf("cycle %d: recovered key %d outside every writer's range", cycle, r[0].I)
			}
			got[w][r[0].I] = r[1].I
		}
		for w := 0; w < cfg.Writers; w++ {
			switch {
			case kvEqual(got[w], models[w]):
				// Writer's indeterminate commit (if any) did not survive.
			case indets[w] != nil && kvEqual(got[w], applyOps(models[w], indets[w])):
				// It proved durable: adopt it.
				models[w] = applyOps(models[w], indets[w])
			default:
				return fmt.Errorf("cycle %d: writer %d recovery invariant violation: %d rows recovered, want %d (indeterminate txn: %v)",
					cycle, w, len(got[w]), len(models[w]), indets[w] != nil)
			}
		}
		return nil
	}

	for cycle := 0; cycle < cfg.Cycles; cycle++ {
		// Fault schedule aimed squarely at the commit flush: frequent
		// transient flush faults (exercising retry under a live group) plus,
		// in most cycles, a crash on the flush itself or at a commit
		// crashpoint — landing torn groups whose members span writers.
		fcfg := faultinject.Config{
			Seed: master.Int63(),
			TransientProb: map[faultinject.Op]float64{
				faultinject.OpWALFlush: 0.05,
				faultinject.OpWrite:    0.005,
			},
		}
		switch master.Intn(5) {
		case 0:
			fcfg.CrashOps = map[faultinject.Op]int{faultinject.OpWALFlush: 1 + master.Intn(8)}
		case 1:
			fcfg.Crashpoints = map[string]int{"commit.before_flush": 1 + master.Intn(2*cfg.Writers)}
		case 2:
			fcfg.Crashpoints = map[string]int{"commit.after_flush": 1 + master.Intn(2*cfg.Writers)}
		case 3:
			fcfg.CrashOps = map[faultinject.Op]int{faultinject.OpWrite: 1 + master.Intn(20)}
		case 4:
			// No scheduled crash: transient faults against live groups only.
		}
		sched := faultinject.NewSchedule(fcfg)

		db, err := core.Open(core.Options{
			Dir:      cfg.Dir,
			Injector: sched,
			// A small gather window widens every group so flush faults land
			// on multi-member groups routinely, not just by lucky timing.
			CommitFlushDelay: 200 * time.Microsecond,
			ParanoidRecovery: true,
		})
		indets := make([][]kvOp, cfg.Writers)
		if err != nil {
			// The schedule crashed the open itself (recovery of the previous
			// cycle's torn tail).
			if sched.Crashed() {
				res.Crashes++
			}
		} else {
			type outcome struct{ commits, rollbacks, indet int }
			outs := make([]outcome, cfg.Writers)
			seeds := make([]int64, cfg.Writers)
			for w := range seeds {
				seeds[w] = master.Int63()
			}
			var wg sync.WaitGroup
			for w := 0; w < cfg.Writers; w++ {
				conn, cerr := db.Connect()
				if cerr != nil {
					break
				}
				wg.Add(1)
				go func(w int, conn *core.Conn) {
					defer wg.Done()
					defer conn.Close()
					wl := rand.New(rand.NewSource(seeds[w]))
					for t := 0; t < cfg.TxnsPerWriter; t++ {
						if _, err := conn.Exec("BEGIN"); err != nil {
							return
						}
						work := applyOps(models[w], nil)
						var ops []kvOp
						failed := false
						nops := 1 + wl.Intn(2)
						for j := 0; j < nops; j++ {
							keys := kvKeys(work)
							var op kvOp
							r := wl.Float64()
							switch {
							case len(keys) == 0 || r < 0.5:
								op = kvOp{kind: 'i', k: writerKey(w, nextKey[w]), v: wl.Int63n(1_000_000)}
								nextKey[w]++
							case r < 0.8:
								op = kvOp{kind: 'u', k: keys[wl.Intn(len(keys))], v: wl.Int63n(1_000_000)}
							default:
								op = kvOp{kind: 'd', k: keys[wl.Intn(len(keys))]}
							}
							var err error
							switch op.kind {
							case 'i':
								_, err = conn.Exec("INSERT INTO kv VALUES (?, ?)", val.NewInt(op.k), val.NewInt(op.v))
							case 'u':
								_, err = conn.Exec("UPDATE kv SET v = ? WHERE k = ?", val.NewInt(op.v), val.NewInt(op.k))
							case 'd':
								_, err = conn.Exec("DELETE FROM kv WHERE k = ?", val.NewInt(op.k))
							}
							if err != nil {
								_, _ = conn.Exec("ROLLBACK")
								outs[w].rollbacks++
								failed = true
								break
							}
							work = applyOps(work, []kvOp{op})
							ops = append(ops, op)
						}
						if failed {
							if sched.Crashed() {
								return
							}
							continue
						}
						if _, err := conn.Exec("COMMIT"); err != nil {
							// Fate unknown: the group flush failed (every
							// member sees the error) or the machine crashed
							// around the flush. One indeterminate per writer:
							// stop here.
							indets[w] = ops
							outs[w].indet++
							return
						}
						outs[w].commits++
						models[w] = work
					}
				}(w, conn)
			}
			wg.Wait()
			for w := range outs {
				res.Commits += outs[w].commits
				res.Rollbacks += outs[w].rollbacks
				res.Indeterminate += outs[w].indet
			}
			harvest(db)
			if sched.Crashed() {
				res.Crashes++
				db.Crash()
			} else if err := db.Close(); err != nil {
				if sched.Crashed() {
					res.Crashes++
				}
				db.Crash()
			}
		}

		if err := verify(cycle, indets); err != nil {
			return res, err
		}
		res.Cycles++
	}
	return res, nil
}
