package faultinject_test

// Crash-recovery torture: the acceptance test for the fault-injection
// subsystem. It lives in package faultinject_test so it can drive the
// whole engine through internal/experiments without an import cycle.

import (
	"testing"

	"anywheredb/internal/experiments"
)

// TestCrashTorture runs 500+ seeded crash/recover cycles and asserts,
// after every single cycle, the three recovery invariants:
//
//  1. durability — every acknowledged commit is present after recovery;
//  2. atomicity — no uncommitted (or rolled-back) transaction is visible,
//     in full or in part;
//  3. idempotency — replaying the same WAL again leaves the database
//     bit-identical at the logical page level (ParanoidRecovery re-applies
//     the recovery plan and compares).
//
// CrashTorture returns an error on the first violation, so a pass means
// all three held for every cycle.
//
// The small-pool arm pins a 16-page pool under a table many times its
// size, so the cycles steal dirty pages: write-backs deferred until a
// commit's flush makes their images durable, frames imaged and then
// changed again, the sweep's own syncs when nothing is covered yet, and
// torn page writes and WAL flush faults all land between and inside them.
func TestCrashTorture(t *testing.T) {
	arms := []struct {
		name          string
		cycles, short int
		pool          int
		mustWriteBack bool
	}{
		{name: "default_pool", cycles: 520, short: 60},
		{name: "pool_16_pages", cycles: 150, short: 30, pool: 16, mustWriteBack: true},
	}
	for _, arm := range arms {
		t.Run(arm.name, func(t *testing.T) {
			cycles := arm.cycles
			if testing.Short() {
				cycles = arm.short
			}
			res, err := experiments.CrashTorture(experiments.CrashTortureConfig{
				Cycles:             cycles,
				Seed:               0xDB,
				Dir:                t.TempDir(),
				OpsPerCycle:        6,
				RecoveryCrashEvery: 5,
				PoolPages:          arm.pool,
			})
			if err != nil {
				t.Fatalf("torture failed after %d cycles: %v", res.Cycles, err)
			}
			if res.Cycles != cycles {
				t.Fatalf("completed %d cycles, want %d", res.Cycles, cycles)
			}
			// The schedule must actually have exercised the machinery: crashes
			// fired, commits were acknowledged and survived, and at least some
			// transient faults were injected and retried.
			if res.Crashes == 0 {
				t.Error("no crashes fired: schedule is not reaching the engine")
			}
			if res.Commits == 0 {
				t.Error("no commits acknowledged")
			}
			if res.Injected == 0 {
				t.Error("no faults injected")
			}
			if res.Retried == 0 {
				t.Error("no transient faults retried")
			}
			if res.SnapshotChecks == 0 {
				t.Error("no snapshot repeatable-read checks ran: version chains were never live at a crash")
			}
			// Write-backs outnumbering the pool's own syncs is the deferral:
			// the rest rode a flush somebody else paid for.
			if arm.mustWriteBack && (res.ImagesLogged == 0 || res.Writebacks <= res.WritebackSyncs) {
				t.Errorf("the steal path did not run: %d write-backs, %d images, %d pool-forced syncs",
					res.Writebacks, res.ImagesLogged, res.WritebackSyncs)
			}
			t.Logf("cycles=%d crashes=%d recoveryCrashes=%d commits=%d rollbacks=%d indeterminate=%d snapshotChecks=%d injected=%d retried=%d gaveup=%d writebacks=%d images=%d poolSyncs=%d",
				res.Cycles, res.Crashes, res.RecoveryCrashes, res.Commits,
				res.Rollbacks, res.Indeterminate, res.SnapshotChecks, res.Injected, res.Retried, res.GaveUp,
				res.Writebacks, res.ImagesLogged, res.WritebackSyncs)
		})
	}
}

// TestCommitTortureMultiWriter runs the group-commit torture: several
// writers commit concurrently on disjoint key ranges while the schedule
// injects transient, permanent and torn WAL-flush faults and crashes the
// machine around the commit flush. The harness asserts, per writer and
// after every cycle:
//
//   - every acknowledged commit is present after recovery;
//   - no rolled-back transaction is visible, in full or in part;
//   - at most the writer's single unacknowledged (COMMIT-errored)
//     transaction is allowed either fate — all-or-nothing still applies.
//
// A failed group flush fails every member, so a writer whose commit was
// silently dropped (error swallowed, transaction reported durable) would
// trip the durability check here.
func TestCommitTortureMultiWriter(t *testing.T) {
	cycles := 120
	if testing.Short() {
		cycles = 25
	}
	res, err := experiments.CommitTorture(experiments.CommitTortureConfig{
		Cycles:        cycles,
		Writers:       4,
		TxnsPerWriter: 5,
		Seed:          0xC0,
		Dir:           t.TempDir(),
	})
	if err != nil {
		t.Fatalf("torture failed after %d cycles: %v", res.Cycles, err)
	}
	if res.Cycles != cycles {
		t.Fatalf("completed %d cycles, want %d", res.Cycles, cycles)
	}
	if res.Crashes == 0 {
		t.Error("no crashes fired: schedule is not reaching the engine")
	}
	if res.Commits == 0 {
		t.Error("no commits acknowledged")
	}
	if res.Injected == 0 {
		t.Error("no faults injected")
	}
	if res.GroupCommits == 0 {
		t.Error("no multi-member flush groups formed: the faults never hit a real group")
	}
	t.Logf("cycles=%d crashes=%d commits=%d rollbacks=%d indeterminate=%d groupCommits=%d injected=%d retried=%d gaveup=%d",
		res.Cycles, res.Crashes, res.Commits, res.Rollbacks,
		res.Indeterminate, res.GroupCommits, res.Injected, res.Retried, res.GaveUp)
}

// TestCrashTortureDeterministic re-runs a short torture with the same seed
// twice and asserts the outcome is identical — the whole point of a seeded
// fault schedule is that a failure reproduces.
func TestCrashTortureDeterministic(t *testing.T) {
	run := func() *experiments.CrashTortureResult {
		res, err := experiments.CrashTorture(experiments.CrashTortureConfig{
			Cycles:      25,
			Seed:        7,
			Dir:         t.TempDir(),
			OpsPerCycle: 6,
		})
		if err != nil {
			t.Fatalf("torture failed: %v", err)
		}
		return res
	}
	a, b := run(), run()
	if a.Crashes != b.Crashes || a.Commits != b.Commits ||
		a.Rollbacks != b.Rollbacks || a.Indeterminate != b.Indeterminate ||
		a.RecoveryCrashes != b.RecoveryCrashes || a.SnapshotChecks != b.SnapshotChecks {
		t.Fatalf("same seed diverged:\n  run1: %+v\n  run2: %+v", a, b)
	}
}
