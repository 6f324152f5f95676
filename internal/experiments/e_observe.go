package experiments

import (
	"fmt"
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

// E21ObservabilityOverhead measures what the always-on flight recorder
// costs (enabled vs compiled-in-but-disabled; budget ≤5% on both the
// scan+filter stream and the 16-writer commit storm) and what it buys
// (digest collapse across literals, full wait attribution under
// contention).
func E21ObservabilityOverhead() (*Report, error) {
	offScan, err := observeScanRate(true)
	if err != nil {
		return nil, err
	}
	onScan, err := observeScanRate(false)
	if err != nil {
		return nil, err
	}

	const writers, txnsPerWriter = 16, 200
	offCommit, err := commitThroughput(writers, txnsPerWriter, true)
	if err != nil {
		return nil, err
	}
	onCommit, err := commitThroughput(writers, txnsPerWriter, false)
	if err != nil {
		return nil, err
	}

	waits, err := observeWaits()
	if err != nil {
		return nil, err
	}

	overhead := func(off, on float64) float64 { return (off - on) / off * 100 }
	scanOv := overhead(offScan.StmtsPerSec, onScan.StmtsPerSec)
	commitOv := overhead(offCommit.CommitsPerSec, onCommit.CommitsPerSec)

	var sb strings.Builder
	sb.WriteString("workload                      disabled/s    enabled/s  overhead%\n")
	fmt.Fprintf(&sb, "scan+filter statements     %12.0f %12.0f  %8.2f\n",
		offScan.StmtsPerSec, onScan.StmtsPerSec, scanOv)
	fmt.Fprintf(&sb, "16-writer commits          %12.0f %12.0f  %8.2f\n",
		offCommit.CommitsPerSec, onCommit.CommitsPerSec, commitOv)

	metrics := map[string]float64{
		"scan_overhead_pct":   scanOv,
		"commit_overhead_pct": commitOv,
	}

	if offScan.SelectDigest != nil {
		return nil, fmt.Errorf("E21: disabled recorder still collected digests")
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
