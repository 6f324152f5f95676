// Package experiments regenerates every figure and quantitative claim of
// the paper's evaluation: the cache-sizing feedback traces (Fig. 1 /
// E1/E7/E16), the DTT models (Fig. 2a, 2b, 3 / E2–E4), the cost-model
// rank-preservation property (Eq. 3 / E5), the 100-way join claim (E6),
// the optimizer-governor ablations (E8), histogram feedback (E9), adaptive
// hash join (E10), the memory governor and low-memory fallbacks (E11),
// page replacement (E13), the plan cache (E14), the Index Consultant
// (E15), the CE-mode governor (E16), sharded
// buffer-pool scalability (E17), vectored-executor throughput (E18),
// crash-recovery torture under fault injection (E19), group-commit
// throughput (E20), the always-on flight recorder's overhead and fidelity
// (E21), columnar segment scans with
// zone-map predicate skipping vs the row heap (E22), MVCC snapshot
// reads vs the locking-read baseline under write churn (E23), the
// network server's admission control under 4× overload (E24), and
// WAL-shipping replication — zero lost acks through a primary kill plus
// autonomic read-replica scaling (E25). There is no E12: the paper's
// adaptive intra-query parallelism (§4.4) is not reproduced.
//
// Each experiment returns a Report: a paper-shaped table plus the key
// metrics asserted by the benchmarks in bench_test.go and summarized in
// EXPERIMENTS.md.
package experiments

import (
	"fmt"
	"strings"

	"anywheredb/internal/telemetry"
)

// Report is one experiment's outcome.
type Report struct {
	ID      string
	Title   string
	Table   string // formatted rows/series, as the paper reports them
	Metrics map[string]float64
	// Telemetry is the engine counter movement the experiment caused
	// (registry deltas), printed alongside the paper-shaped table.
	Telemetry []telemetry.Sample
	// Acceptance maps each of the experiment's acceptance criteria to a
	// pass/fail note; experiments that hard-fail their criteria in Run fill
	// this only on success. Emitted in cmd/repro's -json artifact.
	Acceptance map[string]string
	// Notes is free-form context for the -json artifact (host caveats,
	// measurement methodology).
	Notes string
}

func (r *Report) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "== %s: %s ==\n%s\n", r.ID, r.Title, r.Table)
	if len(r.Metrics) > 0 {
		sb.WriteString("metrics:")
		for _, k := range sortedKeys(r.Metrics) {
			fmt.Fprintf(&sb, " %s=%.4g", k, r.Metrics[k])
		}
		sb.WriteString("\n")
	}
	if len(r.Telemetry) > 0 {
		sb.WriteString("telemetry:\n")
		for _, s := range r.Telemetry {
			if s.Kind == telemetry.KindHistogram {
				fmt.Fprintf(&sb, "  %-40s %+d (p50=%dus p95=%dus p99=%dus)\n",
					s.Name, s.Value, s.P50, s.P95, s.P99)
				continue
			}
			fmt.Fprintf(&sb, "  %-40s %+d\n", s.Name, s.Value)
		}
	}
	return sb.String()
}

func sortedKeys(m map[string]float64) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// Entry is one registered experiment.
type Entry struct {
	ID    string
	Title string // short label for listings
	Run   func() (*Report, error)
}

// Registry is the single ordered list of every experiment. All, ByID,
// IDRange, and cmd/repro all derive from it, so adding an experiment means
// adding exactly one entry here.
var Registry = []Entry{
	{"E1", "cache governor", E1CacheGovernor},
	{"E2", "default DTT", E2DefaultDTT},
	{"E3", "calibrated HDD DTT", E3CalibrateHDD},
	{"E4", "calibrated SD DTT", E4CalibrateSD},
	{"E5", "cost-model rank preservation", E5RankPreservation},
	{"E6", "100-way join", E6HundredWayJoin},
	{"E7", "damping ablation", E7DampingAblation},
	{"E8", "optimizer governor quota", E8GovernorQuota},
	{"E9", "histogram feedback", E9HistogramFeedback},
	{"E10", "adaptive hash join", E10AdaptiveHashJoin},
	{"E11", "low-memory fallbacks", E11LowMemory},
	{"E13", "page replacement", E13Replacement},
	{"E14", "plan cache", E14PlanCache},
	{"E15", "Index Consultant", E15IndexConsultant},
	{"E16", "CE-mode governor", E16CEMode},
	{"E17", "buffer-pool scalability", E17PoolScalability},
	{"E18", "vectored-executor throughput", E18ExecThroughput},
	{"E19", "crash-recovery torture", E19CrashRecovery},
	{"E20", "group-commit throughput", E20CommitThroughput},
	{"E21", "observability overhead", E21ObservabilityOverhead},
	{"E22", "columnar scan with zone-map skipping", E22ColumnarScan},
	{"E23", "MVCC snapshot reads vs locking reads", E23SnapshotReads},
	{"E24", "network server admission control under overload", E24ServerOverload},
	{"E25", "WAL-shipping replication: lost-ack kill test, read-replica scaling", E25Replication},
}

// IDRange describes the registered id span ("E1..E22") for usage strings.
func IDRange() string {
	if len(Registry) == 0 {
		return ""
	}
	return Registry[0].ID + ".." + Registry[len(Registry)-1].ID
}

// All runs every experiment in registry order.
func All() ([]*Report, error) {
	var out []*Report
	for _, e := range Registry {
		r, err := e.Run()
		if err != nil {
			return out, err
		}
		out = append(out, r)
	}
	return out, nil
}

// ByID runs one experiment by id.
func ByID(id string) (*Report, error) {
	id = strings.ToUpper(id)
	for _, e := range Registry {
		if e.ID == id {
			return e.Run()
		}
	}
	return nil, fmt.Errorf("experiments: unknown id %q (have %s)", id, IDRange())
}
