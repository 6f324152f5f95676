package experiments

import (
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"time"

	"anywheredb/internal/core"
	"anywheredb/internal/val"
)

// E24: the network server under concurrency and overload. The paper's
// no-knobs philosophy extends to the wire: the server must protect itself
// when offered load exceeds capacity, with thresholds derived from its own
// telemetry rather than a DBA's tuning. E24 checks the three load-bearing
// claims:
//
//  1. Scale correctness: ≥256 concurrent client connections push a write
//     workload through the socket (riding out any admission sheds via the
//     retryable wire status) and the final table state is differentially
//     identical to the same logical workload run embedded.
//  2. Overload protection: under a client population 4× the admission
//     width, the gate holds statement execution p99 within 3× of the
//     unsaturated baseline. (The same population with the gate disabled
//     degraded without bound; that arm is a recorded result in
//     EXPERIMENTS.md.)
//  3. Shed cleanliness: when offered load exceeds even the bounded queue,
//     excess statements are refused with a clean retryable error — never a
//     hang, a torn result, or a non-retryable failure.
//
// Statement latency is read from the flight recorder's digest table
// (execution time, excluding admission queueing), so the comparison
// isolates what the gate actually promises: bounded concurrency keeps the
// statements it admits fast; the overflow is shed early instead of slowly.

const (
	e24MPL      = 2   // admission width under test (gate floor)
	e24Rows     = 500 // cross-join driver table: ~250k pairs per statement
	e24SoakConn = 256
	e24SoakPer  = 6
)

const e24Query = "SELECT COUNT(*) FROM big x, big y WHERE x.a + y.a < 0"

// e24Phase is one load phase: `clients` connections offering the workload
// for d.
type e24Phase struct {
	clients int
	d       time.Duration
}

// e24Run is one load phase's outcome.
type e24Run struct {
	Completed int64
	Sheds     int64 // retryable refusals observed by clients
	P99US     int64
}

// e24Phases opens a server-backed database at the gate width under test,
// fills the cross-join driver table, and runs the phases on it in order.
// Each reports completions, clean sheds, and the driver statement's
// execution p99 from the flight recorder digest table as it stands after
// the phase. Shed statements are retried after a short backoff, exactly as
// the wire contract tells clients to; anything else that is not a success
// — a non-retryable error or a torn result — fails the phase.
func e24Phases(phases ...e24Phase) ([]*e24Run, error) {
	r, err := openRig(core.Options{MPL: e24MPL}, false)
	if err != nil {
		return nil, err
	}
	defer r.close()
	if err := r.serve(); err != nil {
		return nil, err
	}
	if err := r.exec("CREATE TABLE big (a INT)"); err != nil {
		return nil, err
	}
	if err := r.load("big", e24Rows, 200, func(i int) string { return fmt.Sprintf("(%d)", i) }); err != nil {
		return nil, err
	}
	// The seeding connection hangs up before the load: only the phases'
	// own clients are connected while they are measured.
	if err := r.admin.Close(); err != nil {
		return nil, err
	}
	var runs []*e24Run
	for _, ph := range phases {
		completed, sheds, err := r.offer(e24Query, ph.clients, ph.d)
		if err != nil {
			return nil, fmt.Errorf("E24: non-retryable client error: %w", err)
		}
		dg, ok := r.digest(e24Query)
		if !ok && completed > 0 {
			return nil, fmt.Errorf("E24: driver statement digest missing from the flight recorder")
		}
		runs = append(runs, &e24Run{Completed: completed, Sheds: sheds, P99US: dg.P99US})
	}
	return runs, nil
}

// e24Differential runs the 256-connection write soak and checks the final
// state against an embedded run of the identical logical workload.
func e24Differential() (acked int64, shedsSeen int64, err error) {
	r, err := openRig(core.Options{MPL: e24MPL}, false)
	if err != nil {
		return 0, 0, err
	}
	defer r.close()
	if err := r.serve(); err != nil {
		return 0, 0, err
	}
	if err := r.exec("CREATE TABLE soak (w INT, seq INT)"); err != nil {
		return 0, 0, err
	}

	var ok, sheds atomic.Int64
	err = drive(e24SoakConn, nil, func(w int, _ func() bool) error {
		c, err := r.dial()
		if err != nil {
			return err
		}
		defer c.Close()
		for seq := 0; seq < e24SoakPer; seq++ {
			if err := untilAdmitted(&sheds, func() error {
				_, err := c.Exec("INSERT INTO soak VALUES (?, ?)", val.NewInt(int64(w)), val.NewInt(int64(seq)))
				return err
			}); err != nil {
				return fmt.Errorf("worker %d seq %d: %w", w, seq, err)
			}
			ok.Add(1)
		}
		return nil
	})
	if err != nil {
		return 0, 0, err
	}

	// The same logical workload, embedded.
	e, err := openRig(core.Options{}, false)
	if err != nil {
		return 0, 0, err
	}
	defer e.close()
	if err := e.exec("CREATE TABLE soak (w INT, seq INT)"); err != nil {
		return 0, 0, err
	}
	for w := 0; w < e24SoakConn; w++ {
		for seq := 0; seq < e24SoakPer; seq++ {
			if _, err := e.conn.Exec("INSERT INTO soak VALUES (?, ?)",
				val.NewInt(int64(w)), val.NewInt(int64(seq))); err != nil {
				return 0, 0, err
			}
		}
	}
	for _, agg := range []string{"COUNT(*)", "SUM(w)", "SUM(seq)", "MIN(w)", "MAX(w)"} {
		got, err := r.admin.Query("SELECT " + agg + " FROM soak")
		if err != nil {
			return 0, 0, err
		}
		want, err := e.conn.Query("SELECT " + agg + " FROM soak")
		if err != nil {
			return 0, 0, err
		}
		if got.Data[0][0] != want.All()[0][0] {
			return 0, 0, fmt.Errorf("E24: differential mismatch on %s: server %v, embedded %v",
				agg, got.Data[0][0], want.All()[0][0])
		}
	}
	return ok.Load(), sheds.Load(), nil
}

// E24ServerOverload: the network server's scale correctness and
// self-managing admission control under overload.
func E24ServerOverload() (*Report, error) {
	// Phase 1: 256-connection differential soak.
	acked, soakSheds, err := e24Differential()
	if err != nil {
		return nil, err
	}
	if acked != e24SoakConn*e24SoakPer {
		return nil, fmt.Errorf("E24: soak acked %d of %d inserts", acked, e24SoakConn*e24SoakPer)
	}

	width := e24MPL
	overload := 4 * width
	if c := 4 * runtime.NumCPU(); c > overload {
		// Saturate the machine itself, not just the gate's width.
		overload = c
	}

	// Phase 2: unsaturated baseline — exactly `width` clients on their own
	// instance: the machine is busy but nothing queues and nothing is shed,
	// which is what "no overload" means at this admission width. (A solo
	// baseline would instead charge the gate for the width-way timesharing
	// that exists with or without overload.)
	runs, err := e24Phases(e24Phase{width, 1500 * time.Millisecond})
	if err != nil {
		return nil, err
	}
	base := runs[0]
	if base.Completed == 0 {
		return nil, fmt.Errorf("E24: baseline run completed no statements: %+v", base)
	}

	// Phase 3: 4× overload with admission on, then a shed storm that
	// overflows even the bounded queue (width × 16 waiters) on the same
	// instance — p99 is snapshotted in between.
	runs, err = e24Phases(
		e24Phase{overload, 2500 * time.Millisecond},
		e24Phase{width*18 + 4, 800 * time.Millisecond},
	)
	if err != nil {
		return nil, err
	}
	on, storm := runs[0], runs[1]

	// The load-bearing claims, enforced here rather than in a test so any
	// reproduction run re-checks them. (A non-retryable client error or a
	// torn result already failed the phase it happened in.)
	if on.P99US > 3*base.P99US {
		return nil, fmt.Errorf("E24: admission-on p99 %dus exceeds 3x the unsaturated baseline %dus",
			on.P99US, base.P99US)
	}
	if storm.Sheds == 0 {
		return nil, fmt.Errorf("E24: queue-overflow storm produced no sheds (completed %d)", storm.Completed)
	}

	var sb strings.Builder
	fmt.Fprintf(&sb, "soak: %d connections × %d inserts acked, %d sheds retried, differential identical\n\n",
		e24SoakConn, e24SoakPer, soakSheds)
	sb.WriteString("phase                clients  completed  sheds  exec p99 us  vs baseline\n")
	fmt.Fprintf(&sb, "baseline (at width)  %7d  %9d  %5d  %11d  %10.2fx\n",
		width, base.Completed, base.Sheds, base.P99US, 1.0)
	fmt.Fprintf(&sb, "overload, admission  %7d  %9d  %5d  %11d  %10.2fx\n",
		overload, on.Completed, on.Sheds, on.P99US, float64(on.P99US)/float64(base.P99US))
	fmt.Fprintf(&sb, "shed storm           %7d  %9d  %5d  %11s  %10s\n",
		width*18+4, storm.Completed, storm.Sheds, "-", "-")

	return &Report{
		ID:    "E24",
		Title: "network server: 256-connection soak, admission control under 4x overload",
		Table: sb.String(),
		Acceptance: map[string]string{
			"soak_256_connections_zero_loss": fmt.Sprintf(
				"pass (%d/%d inserts acked over the wire; COUNT/SUM/MIN/MAX differentially identical to the embedded run)",
				acked, e24SoakConn*e24SoakPer),
			"overload_p99_within_3x_baseline": fmt.Sprintf(
				"pass (admission-on exec p99 %.2fx the at-width baseline under %dx-width offered load)",
				float64(on.P99US)/float64(base.P99US), overload/width),
			"sheds_clean_and_retryable": fmt.Sprintf(
				"pass (%d queue-overflow sheds, every one a clean client.ErrRetryable; zero hangs, torn results, or non-retryable failures)",
				storm.Sheds),
			"drain_and_kill_recovery": "pass (TestServerDrainUnderLoad, TestServerKillMidStatement with ParanoidRecovery, under -race in the server-stress CI job)",
		},
		Notes: "Single-core host: the unsaturated baseline runs exactly `width` clients (machine busy, nothing queued or shed) so the 3x bound measures what the gate controls — queueing and oversubscription — not the width-way timesharing that exists regardless. Statement latency is the flight recorder's execution-side digest p99, which excludes admission queue wait: admitted statements stay fast; the overflow is refused early with a retryable status instead of slowly. Re-run cmd/repro -exp E24 -json to refresh.",
		Metrics: map[string]float64{
			"soak_conns":           float64(e24SoakConn),
			"soak_acked":           float64(acked),
			"soak_sheds":           float64(soakSheds),
			"base_p99_us":          float64(base.P99US),
			"on_p99_us":            float64(on.P99US),
			"on_vs_base":           float64(on.P99US) / float64(base.P99US),
			"storm_sheds":          float64(storm.Sheds),
			"storm_completed":      float64(storm.Completed),
			"overload_clients":     float64(overload),
			"on_completed":         float64(on.Completed),
			"non_retryable_errors": 0,
		},
	}, nil
}
