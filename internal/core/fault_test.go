package core

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"anywheredb/internal/faultinject"
	"anywheredb/internal/table"
	"anywheredb/internal/val"
	"anywheredb/internal/wal"
)

// TestCrashRecoveryAtomicAndIdempotent crashes with a committed and an
// uncommitted transaction in flight, then recovers with ParanoidRecovery
// (which re-applies the whole recovery plan and fails if the second pass
// changes anything — the replay-idempotency invariant). The log's
// group-size histogram counts the replay's flushes from the start.
func TestCrashRecoveryAtomicAndIdempotent(t *testing.T) {
	dir := t.TempDir()
	// Schema first, checkpointed durably by the clean close (DDL lives in
	// catalog pages, made durable at checkpoints, not via the WAL).
	{
		db := openDB(t, Options{Dir: dir})
		c := conn(t, db)
		mustExec(t, c, "CREATE TABLE t (id INT, v INT)")
		mustExec(t, c, "INSERT INTO t VALUES (1, 10), (2, 20)")
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
	}
	db := openDB(t, Options{Dir: dir})
	c := conn(t, db)
	mustExec(t, c, "BEGIN")
	mustExec(t, c, "INSERT INTO t VALUES (3, 30)")
	mustExec(t, c, "COMMIT")
	// A loser: never committed, must be invisible after recovery.
	mustExec(t, c, "BEGIN")
	mustExec(t, c, "INSERT INTO t VALUES (4, 40)")
	mustExec(t, c, "UPDATE t SET v = 99 WHERE id = 1")
	db.Crash()

	db2 := openDB(t, Options{Dir: dir, ParanoidRecovery: true})
	// The group-size histogram sees every flush, the replay's own included.
	if flushes, n := counter(t, db2, "wal.flushes"), counter(t, db2, "wal.commits_per_flush.count"); flushes == 0 || n != flushes {
		t.Errorf("after the replay: wal.commits_per_flush.count = %d, want wal.flushes = %d (> 0)", n, flushes)
	}
	c2 := conn(t, db2)
	rows := mustQuery(t, c2, "SELECT id, v FROM t")
	got := map[int64]int64{}
	for _, r := range rows.All() {
		got[r[0].I] = r[1].I
	}
	want := map[int64]int64{1: 10, 2: 20, 3: 30}
	if len(got) != len(want) {
		t.Fatalf("recovered %v, want %v", got, want)
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("recovered %v, want %v", got, want)
		}
	}
	// Recovery checkpointed: a further reopen must find an empty log and
	// the same contents (the recovered state is a stable fixpoint).
	if err := db2.Close(); err != nil {
		t.Fatal(err)
	}
	db3 := openDB(t, Options{Dir: dir, ParanoidRecovery: true})
	c3 := conn(t, db3)
	if n := mustQuery(t, c3, "SELECT id FROM t").Count(); n != 3 {
		t.Fatalf("after second reopen: %d rows, want 3", n)
	}
}

// TestRecoveryLeavesNothingAdopted: recovery replays the log under
// transactions adopted for the logged ones, a loser among them. When Open
// returns they have all settled — no version-chain entry is left — and the
// next transaction the engine begins has an id none of them had.
func TestRecoveryLeavesNothingAdopted(t *testing.T) {
	dir := t.TempDir()
	db := openDB(t, Options{Dir: dir})
	c := conn(t, db)
	mustExec(t, c, "CREATE TABLE t (id INT, v INT)")
	for i := int64(0); i < 5; i++ {
		mustExec(t, c, "INSERT INTO t VALUES (?, ?)", val.NewInt(i), val.NewInt(i))
	}
	loser := conn(t, db)
	mustExec(t, loser, "BEGIN")
	mustExec(t, loser, "INSERT INTO t VALUES (100, 100)")
	mustExec(t, loser, "UPDATE t SET v = v + 1 WHERE id < 3")
	mustExec(t, c, "INSERT INTO t VALUES (5, 5)") // its commit flushes the loser's records too
	db.Crash()

	var logged uint64
	log, err := wal.Open(filepath.Join(dir, "anywhere.log"))
	if err != nil {
		t.Fatal(err)
	}
	if err := log.Scan(func(_ wal.LSN, r *wal.Record) error { logged = max(logged, r.Txn); return nil }); err != nil {
		t.Fatal(err)
	}
	log.CloseNoFlush()

	db2 := openDB(t, Options{Dir: dir, ParanoidRecovery: true})
	if n := counter(t, db2, "txn.version_entries"); n != 0 {
		t.Errorf("%d version-chain entries left when Open returned, want 0", n)
	}
	tx := db2.txns.Begin()
	defer tx.Rollback()
	if tx.ID() <= logged {
		t.Errorf("the first transaction after recovery has id %d; the log it replayed holds ids up to %d", tx.ID(), logged)
	}
	got := mustQuery(t, conn(t, db2), "SELECT COUNT(*), SUM(v) FROM t").All()[0]
	if got[0].I != 6 || got[1].I != 15 {
		t.Fatalf("after recovery COUNT, SUM(v) = %v, want 6, 15", got)
	}
}

// TestTornPageWriteRepaired crashes mid-checkpoint so an in-place data-page
// write lands torn, then verifies recovery restores the page from its
// logged full image: rows committed before the previous checkpoint — whose
// log records are long truncated — must survive the tear.
func TestTornPageWriteRepaired(t *testing.T) {
	dir := t.TempDir()
	db := openDB(t, Options{Dir: dir})
	c := conn(t, db)
	mustExec(t, c, "CREATE TABLE t (id INT, v INT)")
	for i := 0; i < 40; i++ {
		mustExec(t, c, "INSERT INTO t VALUES (?, ?)", val.NewInt(int64(i)), val.NewInt(int64(i*10)))
	}
	if err := db.Close(); err != nil { // checkpoint: log truncated
		t.Fatal(err)
	}

	// Reopen with a schedule that crashes (tearing the page) on the second
	// data-page write — i.e. during the close-time checkpoint below.
	sched := faultinject.NewSchedule(faultinject.Config{
		Seed:     42,
		CrashOps: map[faultinject.Op]int{faultinject.OpWrite: 2},
	})
	db2, err := Open(Options{Dir: dir, Injector: sched})
	if err != nil {
		t.Fatal(err)
	}
	c2, err := db2.Connect()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c2.Exec("UPDATE t SET v = 1 WHERE id = 5"); err != nil {
		t.Fatalf("update before crash: %v", err)
	}
	if err := db2.Close(); err == nil {
		t.Fatal("close should have crashed mid-checkpoint")
	}
	if !sched.Crashed() {
		t.Fatal("schedule did not crash")
	}
	db2.Crash()

	db3 := openDB(t, Options{Dir: dir, ParanoidRecovery: true})
	c3 := conn(t, db3)
	rows := mustQuery(t, c3, "SELECT id, v FROM t")
	if rows.Count() != 40 {
		t.Fatalf("torn write lost rows: %d recovered, want 40", rows.Count())
	}
	for _, r := range rows.All() {
		want := r[0].I * 10
		if r[0].I == 5 {
			want = 1
		}
		if r[1].I != want {
			t.Fatalf("row %d: v=%d, want %d", r[0].I, r[1].I, want)
		}
	}
}

// TestDegradedModeReadOnly fails the WAL device permanently and checks the
// taxonomy end to end: the failing write surfaces ErrPermanent, the engine
// latches read-only degraded mode, later writes are refused with
// ErrReadOnly, and reads keep working.
func TestDegradedModeReadOnly(t *testing.T) {
	dir := t.TempDir()
	sched := faultinject.NewSchedule(faultinject.Config{
		Seed:           1,
		PermanentAfter: map[faultinject.Op]int{faultinject.OpWALFlush: 2},
	})
	// The table is created before the device starts failing: CREATE TABLE
	// checkpoints, which flushes the log more than once.
	seed, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, conn(t, seed), "CREATE TABLE t (id INT)")
	if err := seed.Close(); err != nil {
		t.Fatal(err)
	}
	db := openDB(t, Options{Dir: dir, Injector: sched})
	c := conn(t, db)
	mustExec(t, c, "INSERT INTO t VALUES (1)") // flush 1: succeeds
	for i := 0; i < 5 && err == nil; i++ {
		_, err = c.Exec("INSERT INTO t VALUES (2)")
	}
	if err == nil {
		t.Fatal("writes kept succeeding on a dead WAL device")
	}
	if !errors.Is(err, faultinject.ErrPermanent) {
		t.Fatalf("want ErrPermanent, got %v", err)
	}
	if !db.Degraded() {
		t.Fatal("permanent WAL failure did not latch degraded mode")
	}
	for _, write := range []string{"INSERT INTO t VALUES (3)", "EXPLAIN ANALYZE DELETE FROM t WHERE id = 1"} {
		if _, err := c.Exec(write); !errors.Is(err, ErrReadOnly) {
			t.Fatalf("degraded %q: want ErrReadOnly, got %v", write, err)
		}
	}
	if n := mustQuery(t, c, "SELECT id FROM t").Count(); n != 1 {
		t.Fatalf("degraded read returned %d rows, want 1", n)
	}
	if v, ok := db.Telemetry().Value("core.degraded"); !ok || v != 1 {
		t.Fatalf("core.degraded gauge = %d, %v", v, ok)
	}
}

// TestTransientFaultsRetriedTransparently injects low-probability transient
// faults on every op and checks the workload succeeds anyway, with the
// retry counters showing the machinery absorbed real faults.
func TestTransientFaultsRetriedTransparently(t *testing.T) {
	dir := t.TempDir()
	sched := faultinject.NewSchedule(faultinject.Config{
		Seed: 3,
		TransientProb: map[faultinject.Op]float64{
			faultinject.OpRead:     0.2,
			faultinject.OpWrite:    0.2,
			faultinject.OpWALFlush: 0.2,
		},
	})
	db := openDB(t, Options{Dir: dir, Injector: sched})
	c := conn(t, db)
	mustExec(t, c, "CREATE TABLE t (id INT)")
	for i := 0; i < 50; i++ {
		mustExec(t, c, "INSERT INTO t VALUES (?)", val.NewInt(int64(i)))
	}
	if n := mustQuery(t, c, "SELECT id FROM t").Count(); n != 50 {
		t.Fatalf("%d rows, want 50", n)
	}
	inj, _ := db.Telemetry().Value("fault.injected")
	ret, _ := db.Telemetry().Value("fault.retried")
	if inj == 0 || ret == 0 {
		t.Fatalf("fault.injected=%d fault.retried=%d, want both > 0", inj, ret)
	}
	if gu, _ := db.Telemetry().Value("fault.gaveup"); gu != 0 {
		t.Fatalf("fault.gaveup=%d: retries should have absorbed every fault", gu)
	}
}

// TestStatementCancellation covers both cancellation shapes: a context
// cancelled before the statement starts, and one cancelled while a
// multi-join scan is running. Either way the statement must return
// context.Canceled and release every buffer-pool pin.
func TestStatementCancellation(t *testing.T) {
	db := openDB(t, Options{})
	c := conn(t, db)
	seedEmp(t, c, 2000)

	pre, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.QueryContext(pre, "SELECT eid FROM emp"); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled query: want context.Canceled, got %v", err)
	}

	// Mid-flight: a cross-join large enough to outlive the 1ms deadline.
	ctx, cancel2 := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel2()
	_, err := c.QueryContext(ctx,
		"SELECT e1.eid FROM emp e1, emp e2, emp e3 WHERE e1.did = e2.did AND e2.did = e3.did")
	if !errors.Is(err, context.DeadlineExceeded) && !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-flight cancel: want context error, got %v", err)
	}
	if n := db.pool.PinnedCount(); n != 0 {
		t.Fatalf("cancelled statement leaked %d pinned frames", n)
	}
	// The connection stays usable.
	if n := mustQuery(t, c, "SELECT eid FROM emp WHERE eid = 7").Count(); n != 1 {
		t.Fatalf("connection unusable after cancel: %d rows", n)
	}
}

// TestStatementTimeoutOption checks Options.StatementTimeout bounds every
// statement that does not carry its own deadline.
func TestStatementTimeoutOption(t *testing.T) {
	db := openDB(t, Options{StatementTimeout: time.Millisecond})
	c := conn(t, db)
	// Seed under an explicit (generous) deadline: the DB-wide statement
	// timeout only wraps statements that carry no deadline of their own.
	seedCtx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if _, err := c.ExecContext(seedCtx, "CREATE TABLE emp (eid INT, ename VARCHAR(40), did INT, salary DOUBLE)"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2000; i += 100 {
		var sb strings.Builder
		sb.WriteString("INSERT INTO emp VALUES ")
		for j := i; j < i+100; j++ {
			if j > i {
				sb.WriteString(", ")
			}
			fmt.Fprintf(&sb, "(%d, 'emp-%d', %d, %d.5)", j, j, j%5, 1000+j)
		}
		if _, err := c.ExecContext(seedCtx, sb.String()); err != nil {
			t.Fatal(err)
		}
	}
	_, err := c.Query(
		"SELECT e1.eid FROM emp e1, emp e2, emp e3 WHERE e1.did = e2.did AND e2.did = e3.did")
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want DeadlineExceeded, got %v", err)
	}
	if n := db.pool.PinnedCount(); n != 0 {
		t.Fatalf("timed-out statement leaked %d pinned frames", n)
	}
}

// TestConcurrentCrashDurability crashes while writers are actively
// committing and checks the WAL's contract at its sharpest edge: every
// commit acknowledged before (or during) the crash must survive recovery.
// Regression test for the close-vs-flush race where a commit racing
// Crash() fell into the WAL's memory-backed write path (l.f == nil looks
// exactly like mem mode), "succeeded", and acknowledged a commit whose
// bytes never reached disk — worse, the doomed flush could also let an
// unprotected in-place page write land on the real file between the log
// close and the store close.
func TestConcurrentCrashDurability(t *testing.T) {
	dir := t.TempDir()
	db := openDB(t, Options{Dir: dir})
	c := conn(t, db)
	mustExec(t, c, "CREATE TABLE k (w INT, seq INT)")
	// DDL lives in catalog pages made durable at checkpoints, not via the
	// WAL: checkpoint before the crash window opens.
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	const writers = 8
	type ack struct{ w, seq int64 }
	var mu sync.Mutex
	acked := map[ack]bool{}
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			wc, err := db.Connect()
			if err != nil {
				return
			}
			defer wc.Close()
			for seq := 0; ; seq++ {
				if _, err := wc.Exec("INSERT INTO k VALUES (?, ?)",
					val.NewInt(int64(w)), val.NewInt(int64(seq))); err != nil {
					return // the crash reached us
				}
				mu.Lock()
				acked[ack{int64(w), int64(seq)}] = true
				mu.Unlock()
			}
		}(w)
	}
	time.Sleep(100 * time.Millisecond) // commits in flight
	db.Crash()
	wg.Wait()

	re := openDB(t, Options{Dir: dir, ParanoidRecovery: true})
	rc := conn(t, re)
	present := map[ack]bool{}
	for _, r := range mustQuery(t, rc, "SELECT w, seq FROM k").All() {
		present[ack{r[0].I, r[1].I}] = true
	}
	mu.Lock()
	defer mu.Unlock()
	if len(acked) == 0 {
		t.Fatal("no commit was acknowledged before the crash; test proves nothing")
	}
	for a := range acked {
		if !present[a] {
			t.Fatalf("acknowledged commit (%d,%d) lost in recovery; %d acked, %d present",
				a.w, a.seq, len(acked), len(present))
		}
	}
}

// TestMovedUpdateRollbackSurvivesCrash rolls back an UPDATE that moved its
// row (the new image outgrew the page), lets the rolled-back pages reach
// disk, crashes, and recovers. Live rollback must leave the pages exactly
// where recovery's undo of the logged delete/insert pair expects them — the
// row back at its original RID — or recovery restores a second copy.
func TestMovedUpdateRollbackSurvivesCrash(t *testing.T) {
	for _, paranoid := range []bool{false, true} {
		dir := t.TempDir()
		pad := strings.Repeat("p", 180)
		{
			db := openDB(t, Options{Dir: dir})
			c := conn(t, db)
			mustExec(t, c, "CREATE TABLE t (id INT, pad VARCHAR(2000))")
			for id := 1; id <= 40; id++ {
				mustExec(t, c, "INSERT INTO t VALUES (?, ?)", val.NewInt(int64(id)), val.NewStr(pad))
			}
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}
		}
		db := openDB(t, Options{Dir: dir})
		c := conn(t, db)
		tbl, _ := db.Table("t")
		ridOf := func() table.RID {
			var at table.RID
			if err := tbl.Scan(func(rid table.RID, row []val.Value) (bool, error) {
				if row[0].I == 1 {
					at = rid
				}
				return true, nil
			}); err != nil {
				t.Fatal(err)
			}
			return at
		}
		home := ridOf()
		mustExec(t, c, "BEGIN")
		mustExec(t, c, "UPDATE t SET pad = ? WHERE id = 1", val.NewStr(strings.Repeat("q", 1500)))
		if ridOf() == home {
			t.Fatal("the UPDATE did not move its row; test proves nothing")
		}
		mustExec(t, c, "ROLLBACK")
		if got := ridOf(); got != home {
			t.Errorf("paranoid=%v: rollback left the row at %v, not its original %v", paranoid, got, home)
		}
		if err := db.Pool().FlushAll(); err != nil {
			t.Fatal(err)
		}
		db.Crash()

		re := openDB(t, Options{Dir: dir, ParanoidRecovery: paranoid})
		rc := conn(t, re)
		if n := mustQuery(t, rc, "SELECT id FROM t").Count(); n != 40 {
			t.Errorf("paranoid=%v: %d rows after recovery, want 40", paranoid, n)
		}
		rows := mustQuery(t, rc, "SELECT pad FROM t WHERE id = 1").All()
		if len(rows) != 1 || rows[0][0].S != pad {
			t.Errorf("paranoid=%v: id 1 has %d copies after recovery, want 1 with the original pad", paranoid, len(rows))
		}
	}
}
