package experiments

import "testing"

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
	res, err := commitTorture(commitTortureConfig{
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
