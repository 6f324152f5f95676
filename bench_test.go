// Benchmarks regenerating every table and figure of the paper's
// evaluation. Each BenchmarkE<n> drives the corresponding experiment from
// internal/experiments (see DESIGN.md for the per-experiment index and
// EXPERIMENTS.md for paper-vs-measured results); custom metrics surface the
// numbers the paper reports. Micro-benchmarks for the core data paths
// follow.
package anywheredb

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"anywheredb/internal/buffer"
	"anywheredb/internal/exec"
	"anywheredb/internal/experiments"
	"anywheredb/internal/page"
	"anywheredb/internal/store"
	"anywheredb/internal/val"
	"anywheredb/internal/vclock"
)

// runExp runs one experiment per benchmark iteration, reporting its key
// metrics through the testing.B metric channel.
func runExp(b *testing.B, id string) {
	b.Helper()
	var last *experiments.Report
	for i := 0; i < b.N; i++ {
		r, err := experiments.ByID(id)
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	for k, v := range last.Metrics {
		b.ReportMetric(v, k)
	}
}

func BenchmarkE1CacheGovernor(b *testing.B)     { runExp(b, "E1") }
func BenchmarkE2DefaultDTT(b *testing.B)        { runExp(b, "E2") }
func BenchmarkE3CalibrateHDD(b *testing.B)      { runExp(b, "E3") }
func BenchmarkE4CalibrateSD(b *testing.B)       { runExp(b, "E4") }
func BenchmarkE5RankPreservation(b *testing.B)  { runExp(b, "E5") }
func BenchmarkE6HundredWayJoin(b *testing.B)    { runExp(b, "E6") }
func BenchmarkE7DampingAblation(b *testing.B)   { runExp(b, "E7") }
func BenchmarkE8GovernorQuota(b *testing.B)     { runExp(b, "E8") }
func BenchmarkE9HistogramFeedback(b *testing.B) { runExp(b, "E9") }
func BenchmarkE10AdaptiveHashJoin(b *testing.B) { runExp(b, "E10") }
func BenchmarkE11LowMemory(b *testing.B)        { runExp(b, "E11") }
func BenchmarkE13Replacement(b *testing.B)      { runExp(b, "E13") }
func BenchmarkE14PlanCache(b *testing.B)        { runExp(b, "E14") }
func BenchmarkE15IndexConsultant(b *testing.B)  { runExp(b, "E15") }
func BenchmarkE16CEMode(b *testing.B)           { runExp(b, "E16") }
func BenchmarkE17PoolScalability(b *testing.B)  { runExp(b, "E17") }
func BenchmarkE18ExecThroughput(b *testing.B)   { runExp(b, "E18") }
func BenchmarkE20CommitThroughput(b *testing.B) { runExp(b, "E20") }

// BenchmarkE21ObservabilityOverhead reports the always-on flight
// recorder's cost against a disabled-recorder baseline on the E18-style
// scan+filter stream and the E20-style 16-writer commit storm
// (scan_overhead_pct / commit_overhead_pct; budget ≤5%).
func BenchmarkE21ObservabilityOverhead(b *testing.B) { runExp(b, "E21") }

// BenchmarkE22ColumnarScan reports the 10M-row scan+filter comparison of
// columnar segments (with and without zone-map skipping) against the row
// heap, plus the differential bit-identity verdict
// (speedup_zone / speedup_decode / skip_frac / differential_ok).
func BenchmarkE22ColumnarScan(b *testing.B) { runExp(b, "E22") }

// BenchmarkE23SnapshotReads reports paced-reader throughput against 1..16
// transfer-writers on the snapshot-read engine vs the LockingReads 2PL
// baseline (snap_reads_per_sec_* / lock_reads_per_sec_* /
// snap_retention_16w / lock_retention_16w; the snapshot reader must
// accrue zero lock-wait time, enforced inside the experiment).
func BenchmarkE23SnapshotReads(b *testing.B) { runExp(b, "E23") }

// --- Micro-benchmarks over the public API ---------------------------------

func benchDB(b *testing.B) (*DB, *Conn) {
	b.Helper()
	db, err := Open(Options{PoolInitPages: 1024, PoolMaxPages: 2048})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { db.Close() })
	conn, err := db.Connect()
	if err != nil {
		b.Fatal(err)
	}
	return db, conn
}

// BenchmarkCommitGroup measures end-to-end commit cost of small write
// transactions against a real on-disk database as committer concurrency
// scales. With group commit, concurrent writers share each fsync, so
// per-commit cost at 16 writers drops well below the single-writer fsync
// floor; fsyncs/commit makes the batching visible.
func BenchmarkCommitGroup(b *testing.B) {
	for _, writers := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("writers=%d", writers), func(b *testing.B) {
			db, err := Open(Options{Dir: b.TempDir()})
			if err != nil {
				b.Fatal(err)
			}
			defer db.Close()
			setup, err := db.Connect()
			if err != nil {
				b.Fatal(err)
			}
			if _, err := setup.Exec("CREATE TABLE bench_commit (k INT, v INT)"); err != nil {
				b.Fatal(err)
			}
			setup.Close()
			conns := make([]*Conn, writers)
			for w := range conns {
				if conns[w], err = db.Connect(); err != nil {
					b.Fatal(err)
				}
				defer conns[w].Close()
			}
			flushesBefore, _ := db.Telemetry().Value("wal.flushes")
			var next atomic.Int64
			errs := make([]error, writers)
			b.ResetTimer()
			var wg sync.WaitGroup
			for w := 0; w < writers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					conn := conns[w]
					for {
						i := next.Add(1)
						if i > int64(b.N) {
							return
						}
						if _, err := conn.Exec("BEGIN"); err != nil {
							errs[w] = err
							return
						}
						if _, err := conn.Exec("INSERT INTO bench_commit VALUES (?, ?)",
							val.NewInt(i), val.NewInt(i)); err != nil {
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
			b.StopTimer()
			for _, e := range errs {
				if e != nil {
					b.Fatal(e)
				}
			}
			flushesAfter, _ := db.Telemetry().Value("wal.flushes")
			b.ReportMetric(float64(flushesAfter-flushesBefore)/float64(b.N), "fsyncs/commit")
		})
	}
}

func BenchmarkInsert(b *testing.B) {
	_, conn := benchDB(b)
	if _, err := conn.Exec("CREATE TABLE t (a INT, s VARCHAR(20))"); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := conn.Exec("INSERT INTO t VALUES (?, 'bench')", Int(int64(i))); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPointQueryIndexed(b *testing.B) {
	_, conn := benchDB(b)
	conn.Exec("CREATE TABLE t (a INT, s VARCHAR(20))")
	for i := 0; i < 2000; i += 400 {
		var sb []byte
		sb = append(sb, "INSERT INTO t VALUES "...)
		for j := i; j < i+400; j++ {
			if j > i {
				sb = append(sb, ", "...)
			}
			sb = append(sb, fmt.Sprintf("(%d, 'r%d')", j, j)...)
		}
		if _, err := conn.Exec(string(sb)); err != nil {
			b.Fatal(err)
		}
	}
	conn.Exec("CREATE UNIQUE INDEX t_a ON t (a)")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := conn.Query("SELECT s FROM t WHERE a = ?", Int(int64(i%2000)))
		if err != nil || rows.Count() != 1 {
			b.Fatalf("rows=%v err=%v", rows.Count(), err)
		}
	}
}

func BenchmarkTwoWayJoin(b *testing.B) {
	_, conn := benchDB(b)
	conn.Exec("CREATE TABLE r (k INT, v INT)")
	conn.Exec("CREATE TABLE s (k INT, v INT)")
	for _, tbl := range []string{"r", "s"} {
		var sb []byte
		sb = append(sb, ("INSERT INTO " + tbl + " VALUES ")...)
		for j := 0; j < 400; j++ {
			if j > 0 {
				sb = append(sb, ", "...)
			}
			sb = append(sb, fmt.Sprintf("(%d, %d)", j%50, j)...)
		}
		conn.Exec(string(sb))
	}
	conn.Exec("CREATE STATISTICS r")
	conn.Exec("CREATE STATISTICS s")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := conn.Query("SELECT COUNT(*) FROM r, s WHERE r.k = s.k")
		if err != nil {
			b.Fatal(err)
		}
		if rows.All()[0][0].I != 400*8 {
			b.Fatalf("join count %v", rows.All()[0][0])
		}
	}
}

func BenchmarkValueEncodeDecode(b *testing.B) {
	row := []val.Value{val.NewInt(42), val.NewStr("hello world"), val.NewDouble(3.14), val.Null}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		enc := val.EncodeRow(row)
		if _, err := val.DecodeRow(enc); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Vectored-executor benchmarks -----------------------------------------

// BenchmarkExecBatch measures the batch protocol on four operator
// pipelines at batch sizes 1 (the pre-refactor Volcano row path: one
// interface call and one CPU charge per row), 64, and the default 1024.
// rows/s counts source rows processed. The acceptance bar for the batch
// refactor is ≥2× rows/s on scan+filter between batch=1 and batch=1024.
func BenchmarkExecBatch(b *testing.B) {
	const srcN = 100000
	src := make([]exec.Row, srcN)
	for i := range src {
		src[i] = exec.Row{val.NewInt(int64(i)), val.NewInt(int64(i % 1000))}
	}
	build := make([]exec.Row, 2000)
	for i := range build {
		build[i] = exec.Row{val.NewInt(int64(i)), val.NewInt(int64(i % 7))}
	}
	pipelines := []struct {
		name string
		mk   func() exec.Operator
	}{
		{"scan", func() exec.Operator {
			return &exec.Materialized{RowsData: src}
		}},
		{"filter", func() exec.Operator {
			return &exec.Filter{
				Input: &exec.Materialized{RowsData: src},
				Pred:  exec.Cmp{Op: "<", L: exec.Col{Idx: 0}, R: exec.Const{V: val.NewInt(srcN / 2)}},
			}
		}},
		{"join", func() exec.Operator {
			return &exec.HashJoin{
				Left:     &exec.Materialized{RowsData: build},
				Right:    &exec.Materialized{RowsData: src},
				LeftKeys: []exec.Expr{exec.Col{Idx: 1}}, RightKeys: []exec.Expr{exec.Col{Idx: 1}},
			}
		}},
		{"agg", func() exec.Operator {
			return &exec.HashGroupBy{
				Input: &exec.Materialized{RowsData: src},
				Keys:  []exec.Expr{exec.Col{Idx: 1}},
				Aggs:  []exec.AggSpec{{Fn: exec.AggCountStar}},
			}
		}},
	}
	for _, p := range pipelines {
		for _, size := range []int{1, 64, 1024} {
			b.Run(fmt.Sprintf("%s/batch=%d", p.name, size), func(b *testing.B) {
				st, err := store.Open(store.Options{})
				if err != nil {
					b.Fatal(err)
				}
				b.Cleanup(func() { st.Close() })
				pool := buffer.New(st, 8, 1024, 2048)
				ctx := &exec.Ctx{
					Pool: pool, St: st, Clk: vclock.New(),
					CPURowCost: 1, ForceBatchSize: size,
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					// Counting consumer: materializing every result row would
					// bury the protocol cost under allocator/GC noise that is
					// identical at every batch size.
					op := p.mk()
					if err := op.Open(ctx); err != nil {
						b.Fatal(err)
					}
					var bt exec.Batch
					for {
						if err := op.NextBatch(ctx, &bt); err != nil {
							b.Fatal(err)
						}
						if bt.Len() == 0 {
							break
						}
					}
					if err := op.Close(ctx); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(srcN)*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
			})
		}
	}
}

// --- Buffer-pool latch-path benchmarks ------------------------------------

// poolBench builds a pool with the given shard count, creates npages pages,
// and warms them so the hit-heavy variant runs entirely on the latch path.
func poolBench(b *testing.B, shards, frames, npages int) (*buffer.Pool, []store.PageID) {
	b.Helper()
	st, err := store.Open(store.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { st.Close() })
	p := buffer.NewWithShards(st, frames, frames, frames, shards)
	ids := make([]store.PageID, npages)
	for i := range ids {
		f, err := p.NewPage(store.MainFile, page.TypeTable)
		if err != nil {
			b.Fatal(err)
		}
		ids[i] = f.ID
		p.Unpin(f, true)
	}
	for _, id := range ids {
		f, err := p.Get(id)
		if err != nil {
			b.Fatal(err)
		}
		p.Unpin(f, false)
	}
	return p, ids
}

// BenchmarkPoolGetParallel measures Get/Unpin throughput on the sharded pool
// (16 shards, fixed for cross-host comparability) against the single-shard
// configuration that matches the pre-striping global-mutex pool, at fixed
// goroutine counts. RunParallel cannot pin a goroutine count, so workers are
// hand-rolled; ns/op is per Get/Unpin cycle. hit: working set resident;
// miss: frames ≪ pages, so most Gets evict and read through the store.
func BenchmarkPoolGetParallel(b *testing.B) {
	workloads := []struct {
		name           string
		frames, npages int
	}{
		{"hit", 512, 256},
		{"miss", 64, 1024},
	}
	for _, wl := range workloads {
		for _, sh := range []struct {
			name   string
			shards int
		}{{"sharded16", 16}, {"single", 1}} {
			for _, g := range []int{1, 4, 16} {
				b.Run(fmt.Sprintf("%s/%s/g=%d", wl.name, sh.name, g), func(b *testing.B) {
					p, ids := poolBench(b, sh.shards, wl.frames, wl.npages)
					per := b.N/g + 1
					b.ResetTimer()
					var wg sync.WaitGroup
					for w := 0; w < g; w++ {
						wg.Add(1)
						go func(w int) {
							defer wg.Done()
							i := w * 7919
							for n := 0; n < per; n++ {
								f, err := p.Get(ids[i%len(ids)])
								if err != nil {
									b.Error(err)
									return
								}
								p.Unpin(f, false)
								i++
							}
						}(w)
					}
					wg.Wait()
				})
			}
		}
	}
}
