package main

import (
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
	"time"

	"anywheredb/internal/core"
	"anywheredb/internal/flightrec"
	"anywheredb/internal/server"
)

func TestQuantileMatchesPythonExclusive(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	v := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	for q, want := range map[float64]float64{0.25: 2.75, 0.5: 5.5, 0.75: 8.25} {
		if got := quantile(v, q); math.Abs(got-want) > 1e-12 {
			t.Errorf("quantile(%v) = %v, want %v", q, got, want)
		}
	}
	if got := iqrShare(v); math.Abs(got-1) > 1e-12 {
		t.Errorf("iqrShare = %v, want 1", got)
	}
	if got := rangeShare(v); math.Abs(got-9/5.5) > 1e-12 {
		t.Errorf("rangeShare = %v, want %v", got, 9/5.5)
	}
	// Extreme quantiles clamp to the sample instead of extrapolating.
	if got := quantile([]float64{1, 2, 3}, 0.99); got != 3 {
		t.Errorf("quantile(0.99) of three values = %v, want 3", got)
	}
	if got := median([]float64{7}); got != 7 {
		t.Errorf("median of one value = %v", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median of nothing = %v", got)
	}
}

func TestSelfTimesCountOverlappingChildrenOnce(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: 0, Name: "op", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 50},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 70},  // overlaps a by 20
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 130}, // sticks out of the parent
		{ID: 5, Parent: 2, Name: "d", Start: 10, End: 20},
	}
	self := selfTimes(spans)
	want := map[int]int64{1: 100 - 60 - 10, 2: 30, 3: 40, 4: 40, 5: 10}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self[%d] = %d, want %d", id, self[id], w)
		}
	}
}

// engineSpan fabricates a flight-recorder span the way the engine fills it.
func engineSpan(sql string, startUS, totalUS int64, phases map[flightrec.Phase]int64, waits map[flightrec.WaitKind]int64) *flightrec.Span {
	sp := &flightrec.Span{SQL: sql, StartUS: startUS, TotalUS: totalUS}
	for p, us := range phases {
		sp.AddPhase(p, us)
	}
	for k, us := range waits {
		sp.AddWait(k, us)
	}
	return sp
}

func budgetOf(t *testing.T, op *opRec, origin time.Time) (map[string]int64, int64) {
	t.Helper()
	id := 0
	spans := buildSpans(1, op, origin, &id)
	self := selfTimes(spans)
	layers := map[string]int64{}
	var sum int64
	for _, s := range spans {
		if self[s.ID] < 0 {
			t.Errorf("span %s has negative self time %d", s.Name, self[s.ID])
		}
		layers[layerOf[s.Name]] += self[s.ID]
		sum += self[s.ID]
	}
	return layers, sum
}

func TestTraceBudgetSumsToOpSpan(t *testing.T) {
	origin := time.Now()
	at := func(us int64) time.Time { return origin.Add(time.Duration(us) * time.Microsecond) }
	op := &opRec{start: at(1000), end: at(2000), stmts: []stmtRec{
		{sql: "a", start: at(1010), end: at(1500), eng: engineSpan("a", 1100, 300,
			map[flightrec.Phase]int64{flightrec.PhaseParse: 10, flightrec.PhaseOptimize: 20, flightrec.PhaseExecute: 200, flightrec.PhaseCommit: 50},
			map[flightrec.WaitKind]int64{flightrec.WaitBufferIO: 40, flightrec.WaitLock: 5, flightrec.WaitWALFlush: 30, flightrec.WaitSnapshot: 1})},
		// No engine span was found for this statement: all of it is wire.
		{sql: "b", start: at(1600), end: at(1900)},
	}}
	layers, sum := budgetOf(t, op, origin)
	if sum != 1000_000 {
		t.Fatalf("self times sum to %d ns, want the op span 1000000", sum)
	}
	want := map[string]int64{
		layerParse: 10, layerOptimize: 20, layerSnapshot: 1,
		layerExecute: 200 - 45, layerLock: 5, layerRead: 40,
		layerCommit: 20, layerFlush: 30,
		layerCore: 300 - 281,
		layerWire: 1000 - 300,
	}
	for name, us := range want {
		if layers[name] != us*1000 {
			t.Errorf("%s = %d ns, want %d", name, layers[name], us*1000)
		}
	}
}

func TestTraceClipsEngineSpanIntoItsStatement(t *testing.T) {
	origin := time.Now()
	at := func(us int64) time.Time { return origin.Add(time.Duration(us) * time.Microsecond) }
	// The engine says it started before the statement was sent and its
	// phases claim more than its total: neither may break the budget.
	op := &opRec{start: at(0), end: at(100), stmts: []stmtRec{
		{sql: "a", start: at(10), end: at(90), eng: engineSpan("a", 0, 60,
			map[flightrec.Phase]int64{flightrec.PhaseParse: 50, flightrec.PhaseExecute: 50},
			map[flightrec.WaitKind]int64{flightrec.WaitLock: 70})},
	}}
	layers, sum := budgetOf(t, op, origin)
	if sum != 100_000 {
		t.Fatalf("self times sum to %d ns, want 100000", sum)
	}
	if got := layers[layerWire]; got != 40_000 {
		t.Errorf("wire = %d ns, want 40000 (op 100 − engine 60)", got)
	}
	if got := layers[layerParse] + layers[layerExecute] + layers[layerLock] + layers[layerCore]; got != 60_000 {
		t.Errorf("engine layers = %d ns, want 60000", got)
	}
}

func TestPairInOrderLeavesLostStatementsUnpaired(t *testing.T) {
	ops := []*opRec{
		{stmts: []stmtRec{{sql: "BEGIN"}, {sql: "SELECT 1"}}},
		{stmts: []stmtRec{{sql: "COMMIT"}}},
	}
	// The engine span of "SELECT 1" fell out of the ring.
	eng := []*flightrec.Span{{Seq: 1, SQL: "BEGIN"}, {Seq: 3, SQL: "COMMIT"}}
	if lost := pairInOrder(ops, eng); lost != 1 {
		t.Fatalf("lost = %d, want 1", lost)
	}
	if ops[0].stmts[0].eng != eng[0] || ops[0].stmts[1].eng != nil || ops[1].stmts[0].eng != eng[1] {
		t.Fatalf("wrong pairing: %+v %+v", ops[0].stmts, ops[1].stmts)
	}
}

// A run killed during set-up leaves its database behind. The next set-up must
// start from an empty directory, and a build that does fail (here: on top of
// the stale database, where CREATE TABLE is refused) must return the error.
func TestSetUpReplacesAStaleDatabase(t *testing.T) {
	s := specs(0.01)[0]
	cfg := &config{seed: 1, workDir: t.TempDir()}
	stop := func(r *run) {
		r.cli.Close()
		r.srv.Close()
		r.db.Crash()
	}
	r := newRun(s, cfg)
	if err := r.setUp(); err != nil {
		t.Fatal(err)
	}
	stop(r)
	if _, _, err := buildDB(r.dir, s, r.padBase); err == nil {
		t.Fatal("buildDB on top of an existing database reported no error")
	}
	again := newRun(s, cfg)
	if err := again.setUp(); err != nil {
		t.Fatalf("set-up over a stale database: %v", err)
	}
	stop(again)
}

// The server's counters exist only once a server runs on the database, so a
// bare database is one on which some names the benchmark reads are missing.
func TestCheckTelemetryRejectsAMissingCounter(t *testing.T) {
	db, err := core.Open(core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := checkTelemetry(db); err == nil || !strings.Contains(err.Error(), "server.") {
		t.Fatalf("checkTelemetry without a server = %v, want a missing server.* counter", err)
	}
	srv, err := server.Start(db, server.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if err := checkTelemetry(db); err != nil {
		t.Fatalf("checkTelemetry with a server: %v", err)
	}
}

// contract mirrors the parts of BENCHMARK.json the smoke test checks.
type contract struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

// TestSmokeEmitsEveryContractMetric runs every workload for one short round,
// untraced and traced, at a twentieth of the real size, and requires every
// metric BENCHMARK.json names to be emitted, finite and in its unit.
func TestSmokeEmitsEveryContractMetric(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var want contract
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	small := specs(0.05)
	if len(want.Workloads) != len(small) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark has %d", len(want.Workloads), len(small))
	}
	for _, w := range want.Workloads {
		if specByName(small, w.Name) == nil {
			t.Errorf("BENCHMARK.json workload %q does not exist", w.Name)
		}
	}
	for _, trace := range []bool{false, true} {
		cfg := &config{seed: 7, slice: 200 * time.Millisecond, rounds: 2, trace: trace,
			workDir: t.TempDir(), probeCalls: 50, probeBudget: 100 * time.Millisecond}
		results, err := runBench(cfg, small, "")
		if err != nil {
			t.Fatal(err)
		}
		for _, res := range results {
			if !res.correct || res.attempted == 0 || res.failed != 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d problems=%v",
					res.workload, trace, res.correct, res.attempted, res.failed, res.problems)
			}
			got, names := res.endToEnd, want.EndToEnd
			if trace {
				got, names = res.perLayer, want.PerLayer
			}
			if len(got) != len(names) {
				t.Errorf("%s trace=%v: %d metrics emitted, BENCHMARK.json names %d", res.workload, trace, len(got), len(names))
			}
			for _, n := range names {
				found := false
				for _, m := range got {
					if m.name != n.Name {
						continue
					}
					found = true
					if m.unit != n.Unit {
						t.Errorf("%s %s: unit %q, BENCHMARK.json says %q", res.workload, m.name, m.unit, n.Unit)
					}
					if math.IsNaN(m.value) || math.IsInf(m.value, 0) || m.value < 0 && m.name != "client.trace_overhead_share" {
						t.Errorf("%s %s = %v", res.workload, m.name, m.value)
					}
					if !trace && m.value == 0 {
						t.Errorf("%s %s is 0: an end-to-end metric must never be", res.workload, m.name)
					}
				}
				if !found {
					t.Errorf("%s trace=%v: metric %s not emitted", res.workload, trace, n.Name)
				}
			}
			var line struct {
				Correct   bool
				Attempted int
				Metrics   map[string]struct {
					Value float64
					Unit  string
				}
			}
			if err := json.Unmarshal([]byte(res.jsonLine(trace, false)), &line); err != nil {
				t.Errorf("%s: result line does not parse: %v", res.workload, err)
			} else if len(line.Metrics) != len(names) || line.Attempted != res.attempted {
				t.Errorf("%s: result line carries %d metrics and attempted=%d", res.workload, len(line.Metrics), line.Attempted)
			}
		}
	}
}
