package profile

import (
	"testing"

	"anywheredb/internal/telemetry"
)

func TestAnalyzeTelemetry(t *testing.T) {
	if got := AnalyzeTelemetry(nil); got != nil {
		t.Fatalf("nil registry: got %v", got)
	}
	reg := telemetry.NewRegistry()
	if got := AnalyzeTelemetry(reg); len(got) != 0 {
		t.Fatalf("empty registry: got %v", got)
	}

	reg.Counter("lock.deadlocks").Add(3)
	reg.Counter("mem.denials").Add(2)
	reg.Counter("opt.quota_exhausted").Inc()
	reg.Counter("buffer.hits").Add(100)
	reg.Counter("buffer.misses").Add(900)

	findings := AnalyzeTelemetry(reg)
	kinds := map[string]int{}
	for _, f := range findings {
		kinds[f.Kind] = f.Count
	}
	if kinds["locks"] != 3 {
		t.Errorf("locks finding count = %d, want 3", kinds["locks"])
	}
	if kinds["memory"] != 2 {
		t.Errorf("memory finding count = %d, want 2", kinds["memory"])
	}
	if _, ok := kinds["optimizer"]; !ok {
		t.Error("missing optimizer finding")
	}
	if kinds["buffer"] != 900 {
		t.Errorf("buffer finding count = %d, want 900", kinds["buffer"])
	}
}
