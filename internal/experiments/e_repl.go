package experiments

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"anywheredb/internal/core"
	"anywheredb/internal/repl"
	"anywheredb/internal/val"
	"anywheredb/internal/vclock"
)

// E25: WAL-shipping replication with autonomic read replicas. The paper's
// self-management thesis applied across processes: read capacity should
// scale by starting replica processes — no placement, routing, or
// consistency knobs — and synchronous commit acknowledgements must mean
// what they say even when the primary dies mid-load. Two claims:
//
//  1. Zero lost acks: with synchronous commit, clients hammer the primary
//     over the wire and the primary is then killed without ceremony (SQL
//     server, shipper, and database all torn down abruptly, mid-load).
//     Promoting the surviving replica must yield a database containing
//     every insert a client saw acknowledged — an acknowledgement was only
//     sent after the replica held the commit durably.
//  2. Read scaling: on a read workload bounded by storage latency (a
//     deliberately slow simulated device and a buffer pool far smaller
//     than the table), three self-registered replicas behind the primary's
//     automatic read router deliver ≥2.5× the single-node read throughput.
//     The router learns each replica's lag and load from the stream's own
//     acks; nothing is configured.

const (
	e25Writers    = 8
	e25WriteFor   = 1200 * time.Millisecond
	e25ReadFor    = 5 * time.Second
	e25ReadConns  = 9
	e25Replicas   = 3
	e25SeedRows   = 1000
	e25PadCols    = 1900
	e25ReadLat    = time.Millisecond
	e25MinSpeedup = 2.5
)

const e25ScanQuery = "SELECT COUNT(*) FROM big WHERE a < 0"

// e25SleepDevice is a storage simulator whose reads cost real wall time
// and serialize on a mutex: one spindle, one arm, one outstanding I/O —
// piling more connections onto a single node cannot make its disk faster.
// The repo's stock devices charge a virtual clock (no sleeping, no
// queueing), which makes every workload CPU-bound on a small host; the
// read-scaling claim needs the single node to be I/O-capped so that each
// replica's independent device is what adds capacity, exactly as adding
// machines adds spindles.
type e25SleepDevice struct {
	mu  sync.Mutex
	lat time.Duration
}

func (d *e25SleepDevice) Read(off int64, n int) vclock.Micros {
	d.mu.Lock()
	time.Sleep(d.lat)
	d.mu.Unlock()
	return d.lat.Microseconds()
}
func (d *e25SleepDevice) Write(off int64, n int) vclock.Micros { return 0 }
func (d *e25SleepDevice) Flush() vclock.Micros                 { return 0 }
func (d *e25SleepDevice) Name() string                         { return "sleepy-hdd" }

// e25ZeroLostAcks runs claim 1 and returns the number of client-acked
// inserts, the rows found after promotion, and the primary's
// repl.sync_degraded count at kill time. A writer that fails for any reason
// before the kill — it cannot dial, or an insert fails with anything but a
// shed — fails the run: a retired writer would leave the claim tested by
// fewer writers than it states.
func e25ZeroLostAcks() (acked int64, promoted int64, degraded int64, err error) {
	r, err := openRig(core.Options{VacuumInterval: -1}, true)
	if err != nil {
		return 0, 0, 0, err
	}
	defer r.close()
	if err := r.ship(repl.PrimaryOptions{
		SyncCommit:  true,
		SyncTimeout: 10 * time.Second, // far beyond the run: a degrade would be a real bug
	}); err != nil {
		return 0, 0, 0, err
	}
	if err := r.serve(); err != nil {
		return 0, 0, 0, err
	}
	if err := r.exec("CREATE TABLE soak (w INT, seq INT)"); err != nil {
		return 0, 0, 0, err
	}
	rep, replDir, err := r.replica("e25", core.Options{VacuumInterval: -1}, 30*time.Second)
	if err != nil {
		return 0, 0, 0, fmt.Errorf("E25: %w", err)
	}

	// Writers record an insert as acked only after Exec returns success:
	// with synchronous commit, that success implies the replica already
	// held the commit durably.
	type pair struct{ w, seq int64 }
	var mu sync.Mutex
	ackedSet := map[pair]bool{}
	var killed atomic.Bool
	// Kill the primary mid-load, with no checkpoint and no drain. Order
	// matters for the claim: the SQL server dies first, so no client can
	// receive an acknowledgement after this point; then the shipper; then
	// the database, abruptly.
	kill := func() {
		time.Sleep(e25WriteFor)
		killed.Store(true)
		r.srv.Close()
		r.prim.Close()
		degraded, _ = r.db.Telemetry().Value("repl.sync_degraded")
		r.db.Crash()
	}
	err = drive(e25Writers, kill, func(w int, _ func() bool) error {
		c, err := r.dial()
		if err == nil {
			defer c.Close()
		}
		for seq := int64(0); err == nil; seq++ {
			err = untilAdmitted(nil, func() error {
				_, err := c.Exec("INSERT INTO soak VALUES (?, ?)", val.NewInt(int64(w)), val.NewInt(seq))
				return err
			})
			if err == nil {
				mu.Lock()
				ackedSet[pair{int64(w), seq}] = true
				mu.Unlock()
			}
		}
		if killed.Load() {
			return nil // the kill: no ack, no record
		}
		return fmt.Errorf("E25: writer %d failed before the kill: %w", w, err)
	})
	if err != nil {
		return 0, 0, 0, err
	}

	rep.Stop()
	pdb, err := repl.Promote(replDir, core.Options{ParanoidRecovery: true, VacuumInterval: -1})
	if err != nil {
		return 0, 0, 0, fmt.Errorf("E25: promotion failed: %w", err)
	}
	r.push(pdb.Close)
	conn, err := pdb.Connect()
	if err != nil {
		return 0, 0, 0, err
	}
	r.push(conn.Close)
	rows, err := conn.Query("SELECT w, seq FROM soak")
	if err != nil {
		return 0, 0, 0, err
	}
	have := map[pair]bool{}
	for _, row := range rows.All() {
		have[pair{row[0].I, row[1].I}] = true
	}
	for p := range ackedSet {
		if !have[p] {
			return 0, 0, 0, fmt.Errorf("E25: LOST ACK: insert (%d,%d) was acknowledged to a client but is missing after promotion", p.w, p.seq)
		}
	}
	// The promoted database must be writable (it is a primary now).
	if _, err := conn.Exec("INSERT INTO soak VALUES (-1, -1)"); err != nil {
		return 0, 0, 0, fmt.Errorf("E25: promoted database refused a write: %w", err)
	}
	return int64(len(ackedSet)), int64(len(have)), degraded, nil
}

// e25CoreOpts builds the storage-bound instance template: a pool ~5x
// smaller than the table and a single-spindle device whose reads cost
// real time — every scan misses hundreds of pages and queues on the arm
// for each. MPL 1 hands each statement the full memory quota; the
// spindle, not memory, is the limiter.
func e25CoreOpts() core.Options {
	return core.Options{
		MPL:            1,
		PoolMinPages:   32,
		PoolInitPages:  64,
		PoolMaxPages:   96,
		Device:         &e25SleepDevice{lat: e25ReadLat},
		VacuumInterval: -1,
	}
}

// e25Read opens a primary with `nReplicas` routed read replicas (0 = the
// single-node baseline; reads then run on the primary itself), fills the
// scan table — padded rows, so the heap spans ~500 pages against a 96-page
// pool — and offers the scan from `conns` wire clients for `d`. It counts
// completions, and how many of them the replicas served.
func e25Read(nReplicas, conns int, d time.Duration) (completed, routed int64, err error) {
	r, err := openRig(e25CoreOpts(), true)
	if err != nil {
		return 0, 0, err
	}
	defer r.close()
	if err := r.ship(repl.PrimaryOptions{}); err != nil {
		return 0, 0, err
	}
	if err := r.serve(); err != nil {
		return 0, 0, err
	}
	if err := r.exec("CREATE TABLE big (a INT, pad TEXT)"); err != nil {
		return 0, 0, err
	}
	pad := strings.Repeat("x", e25PadCols)
	if err := r.load("big", e25SeedRows, 100, func(i int) string {
		return fmt.Sprintf("(%d, '%s')", i, pad)
	}); err != nil {
		return 0, 0, err
	}
	for i := 0; i < nReplicas; i++ {
		if _, _, err := r.replica(fmt.Sprintf("read%d", i), e25CoreOpts(), 60*time.Second); err != nil {
			return 0, 0, fmt.Errorf("E25: %w", err)
		}
	}

	routedSince := r.moved("repl.reads_routed")
	if completed, _, err = r.offer(e25ScanQuery, conns, d); err != nil {
		return 0, 0, fmt.Errorf("E25: scan client error: %w", err)
	}
	return completed, routedSince(), nil
}

// E25Replication: synchronous WAL shipping survives a primary kill with
// zero lost acks; three autonomic read replicas scale a wait-bound read
// workload.
func E25Replication() (*Report, error) {
	// Claim 1: kill the primary mid-load, promote, verify every ack.
	acked, promoted, degraded, err := e25ZeroLostAcks()
	if err != nil {
		return nil, err
	}
	if degraded != 0 {
		return nil, fmt.Errorf("E25: %d synchronous commits degraded to async during the load window", degraded)
	}
	if acked == 0 {
		return nil, fmt.Errorf("E25: no writes were acknowledged before the kill")
	}

	// Claim 2 baseline: the same wait-bound workload on a single node.
	baseDone, baseRouted, err := e25Read(0, e25ReadConns, e25ReadFor)
	if err != nil {
		return nil, err
	}
	if baseDone == 0 {
		return nil, fmt.Errorf("E25: baseline completed no scans")
	}
	if baseRouted != 0 {
		return nil, fmt.Errorf("E25: baseline routed %d reads with no replicas attached", baseRouted)
	}

	// Claim 2: three replicas behind the automatic router.
	fleetDone, fleetRouted, err := e25Read(e25Replicas, e25ReadConns, e25ReadFor)
	if err != nil {
		return nil, err
	}
	speedup := float64(fleetDone) / float64(baseDone)
	if speedup < e25MinSpeedup {
		return nil, fmt.Errorf("E25: 3-replica read throughput only %.2fx the single node (%d vs %d scans), need >=%.1fx",
			speedup, fleetDone, baseDone, e25MinSpeedup)
	}
	if fleetRouted == 0 {
		return nil, fmt.Errorf("E25: no reads were routed to the replicas")
	}

	var sb strings.Builder
	fmt.Fprintf(&sb, "kill test: %d writers, %d acked inserts, primary killed mid-load, 0 sync degrades\n", e25Writers, acked)
	fmt.Fprintf(&sb, "promotion: replica recovered %d rows — every acked insert present, database writable\n\n", promoted)
	sb.WriteString("deployment        clients  scans completed  routed to replicas  scans/s\n")
	fmt.Fprintf(&sb, "single node       %7d  %15d  %18d  %7.1f\n",
		e25ReadConns, baseDone, baseRouted, float64(baseDone)/e25ReadFor.Seconds())
	fmt.Fprintf(&sb, "1 primary + %d     %7d  %15d  %18d  %7.1f\n",
		e25Replicas, e25ReadConns, fleetDone, fleetRouted, float64(fleetDone)/e25ReadFor.Seconds())
	fmt.Fprintf(&sb, "\nread speedup: %.2fx (floor %.1fx)\n", speedup, e25MinSpeedup)

	return &Report{
		ID:    "E25",
		Title: "WAL-shipping replication: zero lost acks through a primary kill, 3-replica read scaling",
		Table: sb.String(),
		Acceptance: map[string]string{
			"zero_lost_acks_through_kill": fmt.Sprintf(
				"pass (%d client-acked inserts under synchronous commit; primary SQL server, shipper, and engine killed abruptly mid-load; every acked insert present after promoting the replica under ParanoidRecovery; repl.sync_degraded = 0)",
				acked),
			"read_scaling_2_5x": fmt.Sprintf(
				"pass (%d replicas: %.2fx the single-node scan throughput on a storage-wait-bound workload, %d of %d scans served by replicas via the automatic router)",
				e25Replicas, speedup, fleetRouted, fleetDone),
			"promoted_database_writable": "pass (post-promotion INSERT succeeds; ReplicaMode write refusal lifted, indexes rebuilt from the shipped catalog)",
			"no_routing_knobs":           "pass (replicas self-register over the stream; the router balances on apply-lag and in-flight counts learned from acks — nothing configured)",
		},
		Notes: "Single-core host: the scan workload is made storage-bound by a single-spindle device simulator (reads sleep for real wall time and serialize on one arm) against a pool ~5x smaller than the heap, so the single node is I/O-capped no matter how many client connections pile on — and each replica brings its own spindle, which is exactly how adding machines adds I/O capacity. Read scaling therefore measures added storage bandwidth plus routed-read overlap, not CPU parallelism a 1-CPU machine cannot grant. The kill ordering (SQL server first, then shipper, then engine) guarantees no client can observe an ack the replica does not hold. Re-run cmd/repro -exp E25 -json to refresh.",
		Metrics: map[string]float64{
			"acked_inserts":   float64(acked),
			"lost_acks":       0,
			"sync_degraded":   float64(degraded),
			"promoted_rows":   float64(promoted),
			"replicas":        float64(e25Replicas),
			"base_scans":      float64(baseDone),
			"fleet_scans":     float64(fleetDone),
			"routed_scans":    float64(fleetRouted),
			"read_speedup":    speedup,
			"min_speedup":     e25MinSpeedup,
			"read_latency_us": float64(e25ReadLat.Microseconds()),
		},
	}, nil
}
