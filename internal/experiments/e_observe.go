package experiments

import (
	"fmt"
	"slices"
	"strings"
	"time"

	"anywheredb/internal/core"
	"anywheredb/internal/flightrec"
	"anywheredb/internal/repl"
	"anywheredb/internal/val"
)

// E21: the flight recorder's overhead and fidelity. The paper's
// self-management loop (§2) only works if the engine can afford to watch
// itself all the time — observability that must be switched on after the
// incident explains nothing. E21 measures the always-on span/digest/wait
// pipeline two ways (a scan+filter statement stream and the E20-style
// 16-writer commit storm), each against an engine built with the recorder
// compiled in but disabled, and then checks fidelity: same-shape
// statements collapse into one digest row, and a contended run attributes
// wait time to every wait class in the taxonomy (locks, WAL flush, buffer
// reads, snapshot acquisition, and the network server's send path).

// observeScanRun is one statement-stream measurement.
type observeScanRun struct {
	StmtsPerSec float64
	// SelectDigest is the digest row for the scan+filter fingerprint
	// (nil when the recorder is disabled or the digest is missing).
	SelectDigest *flightrec.DigestStat
}

// observeScanRate loads a small table and measures statements/sec for a
// literal-varying scan+filter query — the executor path E18 isolates, but
// driven through the full SQL front door so the span lifecycle (Begin,
// phase stamps, pool deltas, digest observe, ring publish) is on the
// measured path. Best of 3 passes; wall-clock, as the recorder's cost is
// real CPU the virtual clock does not model.
func observeScanRate(disable bool) (*observeScanRun, error) {
	r, err := openRig(core.Options{
		PoolInitPages: 1024,
		PoolMaxPages:  2048,
	}, false)
	if err != nil {
		return nil, err
	}
	defer r.close()
	r.db.FlightRecorder().SetEnabled(!disable)

	if err := r.exec("CREATE TABLE t (a INT, b INT)"); err != nil {
		return nil, err
	}
	if err := r.load("t", 20000, 500, func(j int) string {
		return fmt.Sprintf("(%d, %d)", j, j%1000)
	}); err != nil {
		return nil, err
	}

	const stmts = 300
	const scan = "SELECT COUNT(*) FROM t WHERE b < %d"
	best := 0.0
	for rep := 0; rep < 3; rep++ {
		start := time.Now()
		for i := 0; i < stmts; i++ {
			// Literals vary per statement so the digest-collapse check below
			// is exercised by the measured workload itself.
			rs, err := r.conn.Query(fmt.Sprintf(scan, 1+i%999))
			if err != nil {
				return nil, err
			}
			if rs.Count() != 1 {
				return nil, fmt.Errorf("E21: scan returned %d rows", rs.Count())
			}
		}
		if rate := stmts / time.Since(start).Seconds(); rate > best {
			best = rate
		}
	}

	run := &observeScanRun{StmtsPerSec: best}
	if d, ok := r.digest(fmt.Sprintf(scan, 1)); ok {
		run.SelectDigest = &d
	}
	return run, nil
}

// observeWaits reruns the contended workload from the core integration
// tests — a tiny pool, padded rows so table scans overflow it, and eight
// writers colliding on one hot key — and returns the engine-wide wait
// aggregates. Every class must move: lock.acquire from the hot-row
// conflict, wal.flush from the concurrent commits, buffer.read from the
// pool-overflow scans.
func observeWaits() ([]flightrec.WaitStat, error) {
	r, err := openRig(core.Options{
		PoolMinPages:  16,
		PoolInitPages: 24,
		PoolMaxPages:  32,
	}, true)
	if err != nil {
		return nil, err
	}
	defer r.close()

	if err := r.exec("CREATE TABLE t (a INT, b INT, pad TEXT)"); err != nil {
		return nil, err
	}
	pad := val.NewStr(strings.Repeat("p", 400))
	for i := 0; i < 600; i++ {
		if _, err := r.conn.Exec("INSERT INTO t VALUES (?, ?, ?)",
			val.NewInt(int64(i)), val.NewInt(int64(i%7)), pad); err != nil {
			return nil, err
		}
	}

	// Eight writers on the hot row, and one reader alongside the writer
	// storm: its queries acquire MVCC snapshots, exercising the
	// txn.snapshot wait event.
	const writers = 8
	if err := drive(writers+1, nil, func(w int, _ func() bool) error {
		c, err := r.db.Connect()
		if err != nil {
			return err
		}
		defer c.Close()
		for i := 0; i < 25; i++ {
			if w == writers {
				rows, err := c.Query("SELECT COUNT(*) FROM t WHERE b = 0")
				if err != nil {
					return err
				}
				rows.Close()
			} else if _, err := c.Exec("UPDATE t SET b = ? WHERE a = 0", val.NewInt(int64(i))); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return nil, err
	}

	// The network server's send path is part of the wait taxonomy too
	// (net.send accrues on every result-frame flush): attach an in-proc
	// server and pull one result set through a real socket.
	if err := r.serve(); err != nil {
		return nil, err
	}
	if _, err := r.admin.Query("SELECT COUNT(*) FROM t"); err != nil {
		return nil, err
	}

	// So is the replication shipper's (net.ship accrues on every frame the
	// primary pushes): attach a log-shipping replica and let it sync over
	// the WAL the writer storm produced.
	if err := r.ship(repl.PrimaryOptions{}); err != nil {
		return nil, err
	}
	if _, _, err := r.replica("e21-witness", core.Options{}, 30*time.Second); err != nil {
		return nil, fmt.Errorf("E21: %w", err)
	}

	return r.db.FlightRecorder().Waits().Snapshot(), nil
}

// overheadPairs is how many recorder-off/recorder-on pairs E21 runs of each
// workload.
const overheadPairs = 5

// overheadArm is one workload's paired overhead readings.
type overheadArm struct {
	off, on, pct []float64 // rate per pair with the recorder off and on, and the overhead %
}

// measure runs the arm's pair number pair: rate with the recorder off and
// with it on, the off run first in even pairs and second in odd ones.
func (a *overheadArm) measure(pair int, rate func(disable bool) (float64, error)) error {
	var r [2]float64 // off, on
	for i := range 2 {
		on := (pair + i) % 2
		x, err := rate(on == 0)
		if err != nil {
			return err
		}
		r[on] = x
	}
	a.off, a.on = append(a.off, r[0]), append(a.on, r[1])
	a.pct = append(a.pct, (r[0]-r[1])/r[0]*100)
	return nil
}

// row is the arm's line of the report: median rates, and the median
// overhead with the range of the pairs' overheads.
func (a *overheadArm) row(name string) string {
	return fmt.Sprintf("%-26s %12.0f %12.0f  %8.2f  %7.2f … %.2f\n",
		name, median(a.off), median(a.on), median(a.pct), slices.Min(a.pct), slices.Max(a.pct))
}

// median is the middle value of xs (the mean of the two middle ones for an
// even count).
func median(xs []float64) float64 {
	s := slices.Sorted(slices.Values(xs))
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// E21ObservabilityOverhead measures what the always-on flight recorder
// costs (enabled vs compiled-in-but-disabled; budget ≤5% on both the
// scan+filter stream and the 16-writer commit storm) and what it buys
// (digest collapse across literals, full wait attribution under
// contention). Each workload's arms run alternately, overheadPairs times
// each, the arm that goes first swapping from pair to pair so that drift
// in the host's speed falls on both; the overhead reported is the median
// of the pairs', with their range.
func E21ObservabilityOverhead() (*Report, error) {
	var onScan *observeScanRun
	scanRate := func(disable bool) (float64, error) {
		run, err := observeScanRate(disable)
		if err != nil {
			return 0, err
		}
		if disable && run.SelectDigest != nil {
			return 0, fmt.Errorf("E21: disabled recorder still collected digests")
		}
		if !disable {
			onScan = run
		}
		return run.StmtsPerSec, nil
	}
	const writers, txnsPerWriter = 16, 200
	commitRate := func(disable bool) (float64, error) {
		st, err := commitThroughput(writers, txnsPerWriter, disable)
		if err != nil {
			return 0, err
		}
		return st.CommitsPerSec, nil
	}
	var scan, commit overheadArm
	for pair := 0; pair < overheadPairs; pair++ {
		if err := scan.measure(pair, scanRate); err != nil {
			return nil, err
		}
		if err := commit.measure(pair, commitRate); err != nil {
			return nil, err
		}
	}

	waits, err := observeWaits()
	if err != nil {
		return nil, err
	}

	var sb strings.Builder
	fmt.Fprintf(&sb, "median of %d alternating pairs\n", overheadPairs)
	sb.WriteString("workload                      disabled/s    enabled/s  overhead%  range of pairs\n")
	sb.WriteString(scan.row("scan+filter statements"))
	sb.WriteString(commit.row("16-writer commits"))

	metrics := map[string]float64{
		"scan_overhead_pct":   median(scan.pct),
		"commit_overhead_pct": median(commit.pct),
	}

	d := onScan.SelectDigest
	if d == nil {
		return nil, fmt.Errorf("E21: scan+filter digest missing with recorder enabled")
	}
	// 3 passes x 300 literal-varying statements, one digest row.
	fmt.Fprintf(&sb, "\ndigest collapse: %d calls -> 1 row (%q), p50=%dus p95=%dus p99=%dus\n",
		d.Calls, d.Fingerprint, d.P50US, d.P95US, d.P99US)
	metrics["digest_calls"] = float64(d.Calls)

	sb.WriteString("\ncontended waits:\n")
	for _, ws := range waits {
		fmt.Fprintf(&sb, "  %-14s count=%-8d total=%dus p99=%dus\n",
			ws.Name, ws.Count, ws.TotalUS, ws.P99US)
		metrics["waits_"+strings.NewReplacer(".", "_").Replace(ws.Name)+"_count"] = float64(ws.Count)
		if ws.Count <= 0 {
			return nil, fmt.Errorf("E21: wait event %s not attributed under contention", ws.Name)
		}
	}

	return &Report{
		ID:      "E21",
		Title:   "Always-on observability: overhead vs disabled recorder, digest collapse, wait attribution",
		Table:   sb.String(),
		Metrics: metrics,
	}, nil
}
