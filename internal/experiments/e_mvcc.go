package experiments

import (
	"fmt"
	"math/rand"
	"strings"
	"sync/atomic"
	"time"

	"anywheredb/internal/core"
	"anywheredb/internal/flightrec"
	"anywheredb/internal/val"
)

// E23: MVCC snapshot reads under write churn. The paper's
// self-management story assumes reporting and monitoring queries can run
// against a live OLTP workload without a DBA carving out a maintenance
// window; that only holds if readers never block behind writers. E23 pins
// one aggregate reader against a grid of paced writer populations (1..16)
// and reports completed reads/sec, the reader's lock-wait time from the
// flight recorder's digest table, and the consistency of every observed
// aggregate. The locking-read (pre-MVCC table-S) baseline it was first
// measured against is a recorded result (EXPERIMENTS.md).
//
// Writer transactions carry think time — a short sleep between the two
// transfer legs, with a longer pause between transactions — so the grid
// measures blocking, not single-core CPU sharing: the sleep inside the
// transaction yields while the writer's table-IX and row locks are held,
// which is the window a reader that took locks would stall in. At 16
// writers some transaction is nearly always inside that window. Snapshot
// readers take zero lock-manager calls and shouldn't care how many writers
// exist.
//
// Every writer transaction is a balance transfer (-1 one row, +1
// another), so any consistent read of SUM(bal) must see exactly the
// seeded total — a torn read through a half-applied transfer is an
// isolation violation, and the experiment hard-fails on it, as it does
// on any lock-wait time attributed to the reader's digest.

const (
	mvccRows    = 200
	mvccSeedBal = 100
	mvccQuery   = "SELECT SUM(bal), COUNT(*) FROM acct"
)

// mvccRun is one grid point's outcome.
type mvccRun struct {
	ReadsPerSec    float64
	ReadErrors     int   // reader statements that failed
	ReadLockWaitUS int64 // lock-wait time attributed to the reader digest
	WriterCommits  int64
}

// mvccReadRate runs writers paced transfer-writers plus one paced
// aggregate reader for a fixed window and returns the reader's completed
// statements/sec, its digest-attributed lock-wait time, and the writer
// commit count.
//
// The reader is open-loop: it issues a statement every readerPace and
// sleeps the rest, like a monitoring dashboard polling on a timer. On
// one core a busy-loop reader would instead measure "CPU the writers
// left over", which falls with writer count no matter the read
// protocol; a paced reader holds its offered load fixed, so the
// achieved rate moves only when reads block.
func mvccReadRate(writers int) (*mvccRun, error) {
	r, err := openRig(core.Options{PoolInitPages: 512, PoolMaxPages: 1024}, true)
	if err != nil {
		return nil, err
	}
	defer r.close()
	if err := r.exec("CREATE TABLE acct (id INT, bal INT)", "CREATE UNIQUE INDEX acct_pk ON acct (id)"); err != nil {
		return nil, err
	}
	if err := r.load("acct", mvccRows, mvccRows, func(i int) string {
		return fmt.Sprintf("(%d, %d)", i, mvccSeedBal)
	}); err != nil {
		return nil, err
	}

	const window = 700 * time.Millisecond
	var commits atomic.Int64
	writer := func(w int, stop func() bool) error {
		wc, err := r.db.Connect()
		if err != nil {
			return err
		}
		defer wc.Close()
		rng := rand.New(rand.NewSource(int64(23*1000 + w)))
		for !stop() {
			a := rng.Intn(mvccRows)
			b := (a + 1 + rng.Intn(mvccRows-1)) % mvccRows
			if _, err := wc.Exec("BEGIN"); err != nil {
				continue
			}
			_, err := wc.Exec("UPDATE acct SET bal = bal - 1 WHERE id = ?", val.NewInt(int64(a)))
			if err == nil {
				time.Sleep(500 * time.Microsecond) // think time, IX held
				_, err = wc.Exec("UPDATE acct SET bal = bal + 1 WHERE id = ?", val.NewInt(int64(b)))
			}
			if err == nil {
				_, err = wc.Exec("COMMIT")
			}
			if err != nil {
				// A deadlock victim against a peer: shed and retry.
				_, _ = wc.Exec("ROLLBACK")
				continue
			}
			commits.Add(1)
			time.Sleep(4 * time.Millisecond)
		}
		return nil
	}

	// The reader runs on this goroutine while the writers work; a torn
	// read ends the window early.
	run := &mvccRun{}
	reads := 0
	var elapsed time.Duration
	var torn error
	reader := func() {
		const wantSum = mvccRows * mvccSeedBal
		const readerPace = 1500 * time.Microsecond
		start := time.Now()
		deadline := start.Add(window)
		for time.Now().Before(deadline) {
			next := time.Now().Add(readerPace)
			rows, err := r.conn.Query(mvccQuery)
			if d := time.Until(next); d > 0 {
				time.Sleep(d)
			}
			if err != nil {
				run.ReadErrors++
				continue
			}
			if got := rows.All(); len(got) != 1 || got[0][0].I != wantSum || got[0][1].I != mvccRows {
				torn = fmt.Errorf("E23: torn read at %d writers: got %v, want one row [%d %d]",
					writers, got, wantSum, mvccRows)
				return
			}
			reads++
		}
		// A slow read can overrun the deadline, so the rate divides by the
		// time actually spent, not the nominal window.
		elapsed = time.Since(start)
	}
	if err := drive(writers, reader, writer); err != nil {
		return nil, err
	}
	if torn != nil {
		return nil, torn
	}
	run.ReadsPerSec = float64(reads) / elapsed.Seconds()
	run.WriterCommits = commits.Load()
	d, found := r.digest(mvccQuery)
	if !found && reads > 0 {
		return nil, fmt.Errorf("E23: reader digest for %q missing from the flight recorder", mvccQuery)
	}
	run.ReadLockWaitUS = d.WaitUS[flightrec.WaitLock]
	return run, nil
}

// E23SnapshotReads: reader throughput under write churn across a writer
// grid.
func E23SnapshotReads() (*Report, error) {
	var sb strings.Builder
	sb.WriteString("writers  snapshot reads/s  lock-wait us  commits\n")

	metrics := map[string]float64{}
	var first, last float64
	for _, writers := range []int{1, 4, 8, 16} {
		snap, err := mvccReadRate(writers)
		if err != nil {
			return nil, err
		}
		// The load-bearing claim: a snapshot reader never touches the lock
		// manager, so its digest can have no lock-wait time and no failed
		// statements, at any writer count.
		if snap.ReadLockWaitUS != 0 {
			return nil, fmt.Errorf("E23: snapshot reader accrued %dus of lock waits at %d writers",
				snap.ReadLockWaitUS, writers)
		}
		if snap.ReadErrors != 0 {
			return nil, fmt.Errorf("E23: snapshot reader failed %d statements at %d writers",
				snap.ReadErrors, writers)
		}
		fmt.Fprintf(&sb, "%7d  %16.0f  %12d  %7d\n",
			writers, snap.ReadsPerSec, snap.ReadLockWaitUS, snap.WriterCommits)
		metrics[fmt.Sprintf("snap_reads_per_sec_%dw", writers)] = snap.ReadsPerSec
		metrics[fmt.Sprintf("snap_reader_wait_us_%dw", writers)] = float64(snap.ReadLockWaitUS)
		if writers == 1 {
			first = snap.ReadsPerSec
		}
		last = snap.ReadsPerSec
	}

	// Retention: reads/sec at 16 writers as a fraction of reads/sec at 1
	// writer (the acceptance bar is ≥0.8).
	metrics["snap_retention_16w"] = last / first
	fmt.Fprintf(&sb, "\nread-rate retention 1->16 writers: %.2f\n", last/first)

	return &Report{
		ID:      "E23",
		Title:   "MVCC snapshot reads: reader throughput under write churn",
		Table:   sb.String(),
		Metrics: metrics,
	}, nil
}
