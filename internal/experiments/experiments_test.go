package experiments

import "testing"

// The cheap experiments run in every test pass and their headline metrics
// are asserted directionally; the expensive ones (E1, E5, E6, E8, E14)
// are exercised by the benchmarks and by `cmd/repro`, and here only when
// not in -short mode.

func metrics(t *testing.T, run func() (*Report, error)) map[string]float64 {
	t.Helper()
	r, err := run()
	if err != nil {
		t.Fatal(err)
	}
	if r.Table == "" {
		t.Fatal("empty report table")
	}
	return r.Metrics
}

func TestE2Shape(t *testing.T) {
	m := metrics(t, E2DefaultDTT)
	if m["read4k_band3500"] <= 50*m["read4k_band1"] {
		t.Fatalf("default DTT should rise steeply with band size: %v", m)
	}
	if m["write4k_band3500"] >= m["read4k_band3500"] {
		t.Fatal("writes should amortize below reads at large bands (Fig. 2a)")
	}
	if m["read8k_band3500"] <= m["read4k_band3500"] {
		t.Fatal("8K reads should cost more than 4K reads")
	}
}

func TestE3HDDBandDependence(t *testing.T) {
	m := metrics(t, E3CalibrateHDD)
	if m["rand_seq_ratio"] < 5 {
		t.Fatalf("calibrated HDD should show strong band dependence: %v", m)
	}
}

func TestE4FlashUniform(t *testing.T) {
	m := metrics(t, E4CalibrateSD)
	if m["uniformity"] < 0.9 || m["uniformity"] > 1.1 {
		t.Fatalf("flash DTT must be uniform (Fig. 3): %v", m)
	}
	if m["write_read"] <= 1 {
		t.Fatal("flash writes must cost more than reads")
	}
}

func TestE7DampingKnob(t *testing.T) {
	m := metrics(t, E7DampingAblation)
	if m["osc_damped05_mb"] >= m["osc_undamped_mb"] {
		t.Fatalf("damping must reduce pool movement: %v", m)
	}
	if m["osc_damped09_mb"] > m["osc_undamped_mb"]*1.05 {
		t.Fatalf("Eq.2 damping must not increase movement: %v", m)
	}
}

func TestE9FeedbackImproves(t *testing.T) {
	m := metrics(t, E9HistogramFeedback)
	if m["improvement"] < 2 {
		t.Fatalf("feedback should cut q-error at least 2x: %v", m)
	}
}

func TestE10AdaptiveSwitch(t *testing.T) {
	m := metrics(t, E10AdaptiveHashJoin)
	if m["switched_small"] != 1 || m["stayed_hash_large"] != 1 {
		t.Fatalf("adaptive hash join crossover broken: %v", m)
	}
}

func TestE11Correctness(t *testing.T) {
	m := metrics(t, E11LowMemory)
	if m["results_correct"] != 1 {
		t.Fatalf("results must be correct under memory pressure: %v", m)
	}
	if m["spills_at_4_pages"] == 0 {
		t.Fatalf("tight soft limit must evict partitions: %v", m)
	}
}

func TestE13ClockBeatsLRU(t *testing.T) {
	m := metrics(t, E13Replacement)
	if m["clock_hit_rate"] <= m["lru_hit_rate"] {
		t.Fatalf("clock-with-scores should beat LRU on scan pollution: %v", m)
	}
	if m["lookaside_hits"] == 0 {
		t.Fatal("lookaside queue unused")
	}
}

func TestE16CEBehaviour(t *testing.T) {
	m := metrics(t, E16CEMode)
	if m["pool_mb_grown"] < 2 {
		t.Fatalf("CE pool should grow with free memory: %v", m)
	}
	if m["pool_mb_shrunk"] >= m["pool_mb_grown"] {
		t.Fatalf("CE pool should shrink under external allocation: %v", m)
	}
}

func TestExpensiveExperiments(t *testing.T) {
	if testing.Short() {
		t.Skip("expensive experiments: run without -short or via cmd/repro")
	}
	for _, id := range []string{"E1", "E5", "E6", "E8", "E14", "E15", "E17", "E21", "E23", "E24", "E25"} {
		r, err := ByID(id)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		switch id {
		case "E5":
			if r.Metrics["decisive_concordance"] < 0.6 {
				t.Fatalf("E5 decisive concordance too low: %v", r.Metrics)
			}
		case "E6":
			if r.Metrics["count"] != 3 {
				t.Fatalf("E6 wrong result: %v", r.Metrics)
			}
		case "E8":
			if r.Metrics["nopruning_visits"] <= r.Metrics["exhaustive_visits"] {
				t.Fatalf("E8 pruning ineffective: %v", r.Metrics)
			}
		case "E14":
			if r.Metrics["visits_cached"] >= r.Metrics["visits_always"] {
				t.Fatalf("E14 cache ineffective: %v", r.Metrics)
			}
		case "E15":
			if r.Metrics["client_side_join"] != 1 || r.Metrics["recommendations"] < 1 {
				t.Fatalf("E15 detection failed: %v", r.Metrics)
			}
		case "E17":
			// Wall-clock speedup depends on host cores; assert only the
			// host-agnostic invariant that throughput was measured.
			if r.Metrics["hit_heavy_tput_16g"] <= 0 || r.Metrics["miss_heavy_tput_16g"] <= 0 {
				t.Fatalf("E17 measured no throughput: %v", r.Metrics)
			}
		case "E21":
			// Fidelity (digest collapse, 3-way wait attribution) is enforced
			// inside the experiment — it errors out on failure. Here assert
			// the collapse arithmetic: 3 passes × 300 literal-varying
			// statements into one digest row.
			if r.Metrics["digest_calls"] != 900 {
				t.Fatalf("E21 digest collapse wrong: %v", r.Metrics)
			}
		case "E23":
			// Zero snapshot-reader lock waits and aggregate consistency are
			// enforced inside the experiment. Here assert the acceptance:
			// the reader keeps at least 80% of its 1-writer rate at 16
			// writers.
			if r.Metrics["snap_retention_16w"] < 0.8 {
				t.Fatalf("E23 snapshot read retention below 0.8: %v", r.Metrics)
			}
		case "E24":
			// Differential identity, the 3× p99 bound and shed cleanliness
			// are enforced inside the experiment (it errors out on
			// violation). Here assert the shape survived into the metrics:
			// the soak acked every insert and every shed was retryable.
			if r.Metrics["soak_acked"] != r.Metrics["soak_conns"]*6 {
				t.Fatalf("E24 soak lost inserts: %v", r.Metrics)
			}
			if r.Metrics["storm_sheds"] <= 0 || r.Metrics["non_retryable_errors"] != 0 {
				t.Fatalf("E24 shed behavior wrong: %v", r.Metrics)
			}
		case "E25":
			// Lost-ack detection, promotion writability, and the speedup
			// floor are enforced inside the experiment (it errors out on
			// violation). Here assert the shape survived into the metrics:
			// writes really flowed before the kill, nothing degraded, and
			// the replicas carried the scaled read load.
			if r.Metrics["acked_inserts"] <= 0 || r.Metrics["lost_acks"] != 0 {
				t.Fatalf("E25 kill test shape wrong: %v", r.Metrics)
			}
			if r.Metrics["sync_degraded"] != 0 {
				t.Fatalf("E25 synchronous commits degraded: %v", r.Metrics)
			}
			if r.Metrics["read_speedup"] < r.Metrics["min_speedup"] {
				t.Fatalf("E25 read scaling below floor: %v", r.Metrics)
			}
			if r.Metrics["routed_scans"] <= 0 {
				t.Fatalf("E25 router never used the replicas: %v", r.Metrics)
			}
		}
	}
}

// TestE22ColumnarScaled drives the E22 harness at a reduced size: the
// speedup and skip-fraction acceptance gates plus full differential
// bit-identity (filters, join, aggregate, non-empty delta tail). The
// full-size (10M-row) run is exercised by BenchmarkExperiments/E22 and
// cmd/repro.
func TestE22ColumnarScaled(t *testing.T) {
	if testing.Short() {
		t.Skip("columnar scan experiment: run without -short or via cmd/repro")
	}
	r, err := e22Run(120_000, 2_000)
	if err != nil {
		t.Fatal(err)
	}
	m := r.Metrics
	if m["differential_ok"] != 1 {
		t.Fatalf("columnar and heap paths diverged:\n%s", r.Table)
	}
	if m["skip_frac"] < 0.9 {
		t.Fatalf("zone maps should skip >=90%% of segments on a point predicate: %v", m)
	}
	if m["speedup_zone"] < 3 {
		t.Fatalf("columnar+zone scan should be >=3x the heap scan: %v", m)
	}
	if m["telemetry_skipped"] <= 0 {
		t.Fatalf("colseg.segments_skipped telemetry did not move: %v", m)
	}
}

func TestByIDUnknown(t *testing.T) {
	if _, err := ByID("E99"); err == nil {
		t.Fatal("unknown id should error")
	}
}
