// Command bench is anywheredb's standing benchmark: four workloads driven
// over the wire protocol from one closed-loop connection each, measured in
// slices, every answer verified, with exact cost counts beside the timings.
// See README.md for how to run it and how to read it; BENCHMARK.json at the
// repository root is its contract with the driver.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// metric is one reported number.
type metric struct {
	name  string
	unit  string
	value float64
}

// result is one workload's outcome in an invocation.
type result struct {
	workload  string
	correct   bool
	attempted int
	failed    int
	problems  []string
	endToEnd  []metric
	perLayer  []metric
	header    []string
}

func main() {
	var (
		workload  = flag.String("workload", "all", "workload to run: point_hot, insert_commit, rmw_cold, scan_agg, or all (interleaved slices)")
		seed      = flag.Int64("seed", 1, "workload seed: keys, parameters and pad bytes are drawn from it")
		seconds   = flag.Int("seconds", 10, "measured seconds per workload = measured rounds of one 1 s slice each (a warm-up slice precedes them)")
		trace     = flag.Int("trace", 0, "1 = trace pass: spans, layer probes and per-layer metrics instead of end-to-end metrics")
		traceOut  = flag.String("trace-out", "", "span file of the trace pass (default: trace-<workload>.jsonl in the work directory)")
		selfcheck = flag.Int("selfcheck", 0, "run N invocations per workload with seeds seed…seed+N−1 and print the spread of every end-to-end metric")
	)
	flag.Parse()
	all := specs(1)
	chosen := all
	if *workload != "all" {
		s := specByName(all, *workload)
		if s == nil {
			fatal(fmt.Errorf("unknown workload %q", *workload))
		}
		chosen = []*spec{s}
	}
	if *selfcheck > 0 {
		if err := selfCheck(chosen, *selfcheck, *seed, *seconds); err != nil {
			fatal(err)
		}
		return
	}
	cfg := &config{
		seed: *seed, slice: sliceLen, rounds: max(*seconds, 1),
		trace: *trace != 0, workDir: ".bench_work",
		probeCalls: 1000, probeBudget: time.Second,
	}
	results, err := runBench(cfg, chosen, *traceOut)
	if err != nil {
		fatal(err)
	}
	ok := true
	for _, res := range results {
		printReport(res, cfg)
		ok = ok && res.correct
	}
	// The driver reads the last line of standard output.
	for _, res := range results {
		fmt.Println(res.jsonLine(cfg.trace, len(results) > 1))
	}
	if !ok {
		os.Exit(1)
	}
}

// sliceLen is the length of one measured slice. It is fixed: the spread
// tables in README.md hold for this run shape only.
const sliceLen = time.Second

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

// runBench sets every chosen workload up, then cuts time into rounds: a
// round runs one slice of each workload in fixed order, so every workload
// samples the same stretches of host weather. A warm-up slice per workload
// comes first and is discarded. In the trace pass odd rounds are traced and
// even rounds are not, which makes the tracing overhead a same-run
// comparison.
func runBench(cfg *config, chosen []*spec, traceOut string) ([]*result, error) {
	if err := os.MkdirAll(cfg.workDir, 0o755); err != nil {
		return nil, err
	}
	runs := make([]*run, len(chosen))
	for i, s := range chosen {
		runs[i] = newRun(s, cfg)
	}
	// Whatever happens, stop servers and remove the databases.
	defer func() {
		for _, r := range runs {
			if r.db != nil && !r.db.Closed() {
				if r.srv != nil {
					r.srv.Close()
				}
				r.db.Crash()
			}
			os.RemoveAll(r.dir)
		}
	}()
	results := make([]*result, len(runs))
	for i, r := range runs {
		if err := r.setUp(); err != nil {
			return nil, err
		}
		size, err := dirBytes(r.dir)
		if err != nil {
			return nil, err
		}
		results[i] = &result{workload: r.spec.name, header: []string{
			fmt.Sprintf("table %s: %d rows, database files %.2f MB, buffer pool %d pages (%.2f MB, pinned)",
				r.spec.table, r.spec.rows, float64(size)/(1<<20), r.spec.pool, float64(r.spec.pool)*4096/(1<<20)),
		}}
	}
	for _, r := range runs {
		r.runSlice(cfg.slice/2, false) // warm-up, discarded
		if err := r.explainPlans(); err != nil {
			return nil, fmt.Errorf("%s: %w", r.spec.name, err)
		}
	}
	for round := 0; round < cfg.rounds; round++ {
		for _, r := range runs {
			r.slices = append(r.slices, r.runSlice(cfg.slice, cfg.trace && round%2 == 1))
		}
	}
	for i, r := range runs {
		res := results[i]
		if cfg.trace {
			if err := r.runProbes(); err != nil {
				res.problems = append(res.problems, "probe: "+err.Error())
			}
		}
		if err := r.finish(); err != nil {
			res.problems = append(res.problems, err.Error())
		}
		var ts traceSummary
		if cfg.trace {
			path := traceOut
			if path == "" || len(runs) > 1 {
				path = filepath.Join(cfg.workDir, "trace-"+r.spec.name+".jsonl")
			}
			var err error
			if ts, err = r.tr.summarize(r.openedAt, path); err != nil {
				return nil, err
			}
			res.header = append(res.header, fmt.Sprintf("trace: %d ops traced, %d statements without an engine span, spans written to %s", ts.ops, ts.lost, path))
		}
		res.attempted, res.failed = r.attempted, r.failed
		if r.failed > 0 {
			res.problems = append(res.problems, fmt.Sprintf("%d of %d ops failed, first: %v", r.failed, r.attempted, r.firstErr))
		}
		res.endToEnd = r.endToEnd()
		res.perLayer = r.perLayer(ts)
		res.problems = append(res.problems, r.sizeAsserts()...)
		res.correct = len(res.problems) == 0
		res.header = append(res.header, r.plan.lines...)
	}
	return results, nil
}

// untraced selects the measured slices that ran without tracing.
func (r *run) untraced() []sliceStat {
	var out []sliceStat
	for _, s := range r.slices {
		if !s.traced {
			out = append(out, s)
		}
	}
	return out
}

// telPerOp is one telemetry counter's delta over every measured slice,
// divided by the verified ops in them.
func (r *run) telPerOp(name string) float64 {
	var delta, ops float64
	for i := range r.slices {
		delta += r.slices[i].tel(name)
		ops += float64(r.slices[i].ops)
	}
	return ratio(delta, ops)
}

// endToEnd reports each metric as the median over the untraced slices.
// These are the gated metrics: cost counts that repeat from run to run, and
// set-up time. Throughput and latency are not among them (see timings).
//
// The two WAL counts are the price of a durable commit, the reason
// insert_commit exists, but they are 0 on the read workloads and the
// contract has one metric list for all workloads and forbids a metric that
// can read 0. They are therefore gated as 1 + count: exactly 1 where nothing
// is logged, and where something is, a doubled sync or log volume still
// moves the value by far more than its bound.
func (r *run) endToEnd() []metric {
	var alloc, mallocs, pages, walBytes, syncs []float64
	for _, s := range r.untraced() {
		ops := float64(s.ops)
		alloc = append(alloc, ratio(float64(s.after.allocBytes-s.before.allocBytes), ops))
		mallocs = append(mallocs, ratio(float64(s.after.mallocs-s.before.mallocs), ops))
		pages = append(pages, ratio(s.tel("buffer.hits")+s.tel("buffer.misses"), ops))
		walBytes = append(walBytes, 1+ratio(s.tel("wal.bytes_appended"), ops))
		syncs = append(syncs, 1+ratio(s.tel("wal.flushes"), ops))
	}
	return []metric{
		{"alloc_bytes_per_op", "B", median(alloc)},
		{"allocs_per_op", "count", median(mallocs)},
		{"page_reads_per_op", "count", median(pages)},
		{"wal_bytes_per_op_plus1", "B", median(walBytes)},
		{"syncs_per_op_plus1", "count", median(syncs)},
		{"setup_s", "s", r.setupS},
	}
}

// timings reports throughput and median latency, each the median over the
// untraced slices. On the shared 2-vCPU host this benchmark is judged on,
// ten invocations of the same binary spread by up to 0.32 (IQR/median) in
// both, more than the largest bound a gated metric may have, so they are
// per-layer metrics: reported by every pass, gated by none.
func (r *run) timings() []metric {
	var tput, p50 []float64
	for _, s := range r.untraced() {
		tput = append(tput, s.throughput())
		p50 = append(p50, s.p50US)
	}
	return []metric{
		{"client.throughput_ops_s", "1/s", median(tput)},
		{"client.latency_p50_us", "us", median(p50)},
	}
}

// perLayer reports the per-layer metrics: counts are totals over every
// measured slice divided by the ops in them, client-side costs come from
// the untraced slices only, times come from the trace summary and probes.
func (r *run) perLayer(ts traceSummary) []metric {
	var ops, plainOps float64
	var cpuUS, gcs float64
	var lat, plainTput, tracedTput []float64
	for i := range r.slices {
		s := &r.slices[i]
		ops += float64(s.ops)
		if s.traced {
			tracedTput = append(tracedTput, s.throughput())
			continue
		}
		plainOps += float64(s.ops)
		plainTput = append(plainTput, s.throughput())
		lat = append(lat, s.latencyU...)
		cpuUS += float64(s.after.cpuUS - s.before.cpuUS)
		gcs += float64(s.after.gcCycles - s.before.gcCycles)
	}
	perOp := r.telPerOp
	overhead := 0.0
	if len(tracedTput) > 0 {
		overhead = 1 - ratio(median(tracedTput), median(plainTput))
	}
	out := append(r.timings(),
		metric{"client.latency_p95_us", "us", quantile(lat, 0.95)},
		metric{"client.latency_p99_us", "us", quantile(lat, 0.99)},
		metric{"client.latency_samples", "count", float64(len(lat))},
		metric{"client.cpu_us_per_op", "us", ratio(cpuUS, plainOps)},
		metric{"client.gc_cycles_per_kop", "count", 1000 * ratio(gcs, plainOps)},
		metric{"client.slice_spread", "share", iqrShare(plainTput)},
		metric{"client.trace_overhead_share", "share", overhead},
		metric{"client.traced_ops", "count", float64(ts.ops)},
		metric{"client.op_span_us", "us", ts.opSpanUS},
	)
	for _, name := range budgetLayers {
		out = append(out, metric{name, "us", ts.layerUS[name]})
	}
	out = append(out,
		metric{"server.bytes_sent_per_op", "B", perOp("server.bytes_sent")},
		metric{"server.queue_us_per_op", "us", perOp("server.queue_us.sum")},
		metric{"server.shed", "count", perOp("server.shed") * ops},
		metric{"opt.visits_per_op", "count", perOp("opt.visits")},
		metric{"opt.plancache_hit_share", "share", ratio(perOp("opt.plancache.hits"), perOp("opt.plancache.hits")+perOp("opt.plancache.misses"))},
		metric{"opt.index_plan_share", "share", r.plan.indexShare()},
		metric{"exec.batches_per_op", "count", perOp("exec.batches")},
		metric{"exec.rows_examined_per_result", "count", r.plan.rowsExamined},
		metric{"buffer.hit_share", "share", ratio(perOp("buffer.hits"), perOp("buffer.hits")+perOp("buffer.misses"))},
		metric{"buffer.misses_per_op", "count", perOp("buffer.misses")},
		metric{"buffer.evictions_per_op", "count", perOp("buffer.evictions")},
		metric{"buffer.writebacks_per_op", "count", perOp("buffer.writebacks")},
		metric{"store.file_bytes_per_row", "B", r.fileBytesPerRow},
		metric{"core.recovery_s", "s", r.recoveryS},
		metric{"lock.acquires_per_op", "count", perOp("lock.acquires")},
		metric{"lock.waits_per_op", "count", perOp("lock.waits")},
		metric{"mvcc.versions_reclaimed_per_op", "count", perOp("txn.versions_reclaimed")},
		metric{"wal.bytes_per_op", "B", perOp("wal.bytes_appended")},
		metric{"wal.syncs_per_op", "count", perOp("wal.flushes")},
		metric{"wal.records_per_op", "count", perOp("wal.records")},
		metric{"wal.commits_per_flush", "count", ratio(perOp("wal.commits_per_flush.sum"), perOp("wal.commits_per_flush.count"))},
		metric{"colseg.decode_rows_per_op", "count", perOp("colseg.decode_rows")},
		metric{"colseg.segments_skipped_share", "share", ratio(perOp("colseg.segments_skipped"), float64(r.plan.segments))},
	)
	for _, name := range probeNames {
		out = append(out, metric{name, "us", r.probes[name]})
	}
	return out
}

var probeNames = []string{"core.embedded_op_us", "server.codec_probe_us", "sqlparse.parse_probe_us",
	"btree.search_probe_us", "wal.append_flush_probe_us"}

// sizeAsserts checks that the workload that should fit the cache does and
// the one that should not does not.
func (r *run) sizeAsserts() []string {
	misses := r.telPerOp("buffer.misses")
	switch {
	case r.spec.mustFit && misses != 0:
		return []string{fmt.Sprintf("%s must fit the cache after warm-up, but buffer.misses_per_op = %g", r.spec.name, misses)}
	case r.spec.mustNotFit && !(misses > 1):
		return []string{fmt.Sprintf("%s must not fit the cache, but buffer.misses_per_op = %g", r.spec.name, misses)}
	}
	return nil
}

func printReport(res *result, cfg *config) {
	fmt.Printf("== %s  seed %d  %d rounds x %v  flush policy: fsync per commit group, no commit delay  closed loop, 1 connection\n",
		res.workload, cfg.seed, cfg.rounds, cfg.slice)
	for _, h := range res.header {
		fmt.Println("   " + h)
	}
	fmt.Printf("   ops attempted %d, failed %d, correct %v\n", res.attempted, res.failed, res.correct)
	for _, p := range res.problems {
		fmt.Println("   PROBLEM: " + p)
	}
	show := func(kind string, ms []metric) {
		for _, m := range ms {
			fmt.Printf("   %-10s %-34s %16.4f %s\n", kind, m.name, m.value, m.unit)
		}
	}
	show("end-to-end", res.endToEnd)
	if cfg.trace {
		show("layer", res.perLayer)
	} else {
		show("layer", res.perLayer[:2]) // the timings: every pass reports them
	}
}

// jsonLine is the result in the driver's form: end-to-end metrics from an
// untraced pass, per-layer metrics from a trace pass.
func (res *result) jsonLine(trace, withName bool) string {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := res.endToEnd
	if trace {
		ms = res.perLayer
	}
	out := map[string]any{"correct": res.correct, "attempted": res.attempted, "failed": res.failed}
	metrics := map[string]mv{}
	for _, m := range ms {
		metrics[m.name] = mv{m.value, m.unit}
	}
	out["metrics"] = metrics
	if withName {
		out["workload"] = res.workload
	}
	b, err := json.Marshal(out)
	if err != nil {
		fatal(err) // a NaN or Inf metric: a bug in the benchmark
	}
	return string(b)
}

// --- selfcheck ----------------------------------------------------------------

// Regression-bound floors by metric: timings on a shared host need room,
// set-up most of all, counts almost none.
var boundFloor = map[string]float64{
	"client.throughput_ops_s": 0.10, "client.latency_p50_us": 0.10, "setup_s": 0.25,
	"alloc_bytes_per_op": 0.03, "allocs_per_op": 0.03, "page_reads_per_op": 0.03,
	"wal_bytes_per_op_plus1": 0.03, "syncs_per_op_plus1": 0.03,
}

// selfCheck runs n invocations of this binary per workload, seeds
// seed…seed+n−1, interleaving the workloads, and prints per workload and
// per metric of the untraced report (the gated metrics and the timings): the
// values, (max − min)/median, the gap between the medians of the odd and the
// even invocations, the quartile spread the driver computes, and the bound
// that would follow: max(floor, range) rounded up to 0.01. A metric that
// would need more than 0.25 cannot be gated.
func selfCheck(chosen []*spec, n int, seed int64, seconds int) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	values := map[string]map[string][]float64{} // workload → metric → per-invocation value
	for i := 0; i < n; i++ {
		for _, s := range chosen {
			cmd := exec.Command(exe, "-workload", s.name, "-seed", fmt.Sprint(seed+int64(i)),
				"-seconds", fmt.Sprint(seconds), "-trace", "0")
			cmd.Stderr = os.Stderr
			out, err := cmd.Output()
			if err != nil {
				return fmt.Errorf("selfcheck: %s seed %d: %w\n%s", s.name, seed+int64(i), err, out)
			}
			lines := strings.Split(strings.TrimSpace(string(out)), "\n")
			var got struct{ Correct bool }
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &got); err != nil {
				return fmt.Errorf("selfcheck: %s: last line is not the result: %w", s.name, err)
			}
			if !got.Correct {
				return fmt.Errorf("selfcheck: %s seed %d reported correct=false", s.name, seed+int64(i))
			}
			if values[s.name] == nil {
				values[s.name] = map[string][]float64{}
			}
			// Every metric the report prints: the gated ones and the timings.
			for _, line := range lines {
				var kind, name, unit string
				var v float64
				if n, _ := fmt.Sscanf(line, "%s %s %g %s", &kind, &name, &v, &unit); n == 4 && (kind == "end-to-end" || kind == "layer") {
					values[s.name][name] = append(values[s.name][name], v)
				}
			}
			fmt.Fprintf(os.Stderr, "selfcheck: %s seed %d done\n", s.name, seed+int64(i))
		}
	}
	fmt.Printf("| workload | metric | values | (max-min)/median | odd-even median gap | IQR/median | bound |\n|---|---|---|---|---|---|---|\n")
	for _, s := range chosen {
		names := make([]string, 0, len(values[s.name]))
		for name := range values[s.name] {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			v := values[s.name][name]
			var strs []string
			var oddV, evenV []float64
			for i, x := range v {
				strs = append(strs, fmt.Sprintf("%.4g", x))
				if i%2 == 0 {
					oddV = append(oddV, x) // invocations are numbered from 1
				} else {
					evenV = append(evenV, x)
				}
			}
			gap := 0.0
			if len(evenV) > 0 {
				gap = math.Abs(median(oddV)-median(evenV)) / median(v)
			}
			bound := math.Ceil(math.Max(boundFloor[name], rangeShare(v))*100-1e-9) / 100
			note := fmt.Sprintf("%.2f", bound)
			if bound > 0.25 {
				note += " (above 0.25: cannot be gated)"
			}
			fmt.Printf("| %s | %s | %s | %.4f | %.4f | %.4f | %s |\n", s.name, name, strings.Join(strs, " "),
				rangeShare(v), gap, iqrShare(v), note)
		}
	}
	return nil
}
