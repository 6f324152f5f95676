package profile

import (
	"fmt"

	"anywheredb/internal/telemetry"
)

// AnalyzeTelemetry inspects an engine telemetry registry for server-side
// symptoms the statement trace alone cannot show: deadlocked transactions,
// the memory governor refusing quota, the optimizer abandoning enumeration,
// and a buffer pool thrashing under its working set. It complements
// Analyze, which looks only at the application's statement stream (§5).
func AnalyzeTelemetry(reg *telemetry.Registry) []Finding {
	if reg == nil {
		return nil
	}
	v := func(name string) int64 {
		n, _ := reg.Value(name)
		return n
	}
	var out []Finding

	if d := v("lock.deadlocks"); d > 0 {
		out = append(out, Finding{
			Kind:   "locks",
			Detail: fmt.Sprintf("%d statements were deadlock victims; look for transactions that write the same rows in different orders", d),
			Count:  int(d),
		})
	}
	if d := v("mem.denials"); d > 0 {
		out = append(out, Finding{
			Kind:   "memory",
			Detail: fmt.Sprintf("%d memory-governor requests hit the hard limit; statements were terminated (Eq. 5)", d),
			Count:  int(d),
		})
	}
	if q := v("opt.quota_exhausted"); q > 0 {
		out = append(out, Finding{
			Kind:   "optimizer",
			Detail: fmt.Sprintf("%d optimizations exhausted their enumeration quota; plans may be far from optimal", q),
			Count:  int(q),
		})
	}
	hits, misses := v("buffer.hits"), v("buffer.misses")
	if total := hits + misses; total >= 1000 && hits*2 < total {
		out = append(out, Finding{
			Kind: "buffer",
			Detail: fmt.Sprintf("buffer pool hit rate %.0f%% over %d lookups; the working set exceeds the cache",
				100*float64(hits)/float64(total), total),
			Count: int(misses),
		})
	}
	return out
}
