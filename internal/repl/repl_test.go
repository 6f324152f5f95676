package repl

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"anywheredb/internal/core"
	"anywheredb/internal/server"
	"anywheredb/internal/server/client"
	"anywheredb/internal/val"
)

// startPrimary opens a file-backed database with a replication listener.
func startPrimary(t *testing.T, opts PrimaryOptions) (*core.DB, *Primary) {
	t.Helper()
	db, err := core.Open(core.Options{Dir: t.TempDir(), VacuumInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	p, err := StartPrimary(db, opts)
	if err != nil {
		db.Close()
		t.Fatal(err)
	}
	return db, p
}

func startReplica(t *testing.T, p *Primary, name string) *Replica {
	t.Helper()
	r, err := StartReplica(ReplicaOptions{
		Dir:         t.TempDir(),
		PrimaryAddr: p.Addr().String(),
		Name:        name,
		Core:        core.Options{VacuumInterval: -1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !r.WaitReady(10 * time.Second) {
		t.Fatal("replica never became ready")
	}
	return r
}

func mustExec(t *testing.T, c *core.Conn, sql string, params ...val.Value) {
	t.Helper()
	if _, err := c.Exec(sql, params...); err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
}

// waitRows polls a query on the replica's own engine until it returns want
// rows (replication is asynchronous by default).
func waitRows(t *testing.T, db *core.DB, sql string, want int) [][]val.Value {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		c, err := db.Connect()
		if err != nil {
			t.Fatal(err)
		}
		rows, err := c.Query(sql)
		var all [][]val.Value
		if err == nil {
			all = rows.All()
		}
		c.Close()
		if err == nil && len(all) == want {
			return all
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s: got %d rows (err %v), want %d", sql, len(all), err, want)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestReplicaStreamsAndServesReads(t *testing.T) {
	db, p := startPrimary(t, PrimaryOptions{})
	defer db.Close()
	defer p.Close()

	c, err := db.Connect()
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	mustExec(t, c, "CREATE TABLE kv (k INT, v TEXT)")

	r := startReplica(t, p, "r1")
	defer r.Stop()

	for i := 0; i < 50; i++ {
		mustExec(t, c, "INSERT INTO kv VALUES (?, ?)", val.NewInt(int64(i)), val.NewStr(fmt.Sprintf("v%d", i)))
	}
	waitRows(t, r.DB(), "SELECT k FROM kv", 50)

	// The replica's SQL endpoint serves the same data over the wire.
	cl, err := client.Dial(r.ReadAddr(), client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	rows, err := cl.Query("SELECT v FROM kv WHERE k = ?", val.NewInt(7))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows.Data) != 1 || rows.Data[0][0].S != "v7" {
		t.Fatalf("replica read: got %v", rows.Data)
	}
	if r.Resyncs() != 1 {
		t.Fatalf("resyncs = %d, want 1", r.Resyncs())
	}
}

func TestReplicaRefusesWrites(t *testing.T) {
	db, p := startPrimary(t, PrimaryOptions{})
	defer db.Close()
	defer p.Close()
	c, _ := db.Connect()
	defer c.Close()
	mustExec(t, c, "CREATE TABLE kv (k INT)")

	r := startReplica(t, p, "r1")
	defer r.Stop()

	rc, err := r.DB().Connect()
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	if _, err := rc.Exec("INSERT INTO kv VALUES (1)"); !errors.Is(err, core.ErrReplica) {
		t.Fatalf("replica write: got %v, want ErrReplica", err)
	}
}

func TestLateJoinSnapshotsExistingData(t *testing.T) {
	db, p := startPrimary(t, PrimaryOptions{})
	defer db.Close()
	defer p.Close()
	c, _ := db.Connect()
	defer c.Close()
	mustExec(t, c, "CREATE TABLE kv (k INT)")
	for i := 0; i < 200; i++ {
		mustExec(t, c, "INSERT INTO kv VALUES (?)", val.NewInt(int64(i)))
	}
	// Checkpoint so the snapshot's content lives in the store files, not
	// the WAL prefix.
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	r := startReplica(t, p, "late")
	defer r.Stop()
	waitRows(t, r.DB(), "SELECT k FROM kv", 200)
}

// TestTruncateCrossedWithoutResync: across primary checkpoints that truncate
// its log, a caught-up replica reads on at the same LSN — no resync — and
// checkpoints at each shipped checkpoint, truncating its own log too.
func TestTruncateCrossedWithoutResync(t *testing.T) {
	db, p := startPrimary(t, PrimaryOptions{})
	defer db.Close()
	defer p.Close()
	c, _ := db.Connect()
	defer c.Close()
	mustExec(t, c, "CREATE TABLE kv (k INT)")

	r := startReplica(t, p, "r1")
	defer r.Stop()
	mustExec(t, c, "INSERT INTO kv VALUES (1)")
	waitRows(t, r.DB(), "SELECT k FROM kv", 1)
	truncates := func(db *core.DB) int64 { v, _ := db.Telemetry().Value("wal.truncates"); return v }
	primBefore, repBefore := truncates(db), truncates(r.DB())

	for i := 0; i < 3; i++ {
		if err := db.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		mustExec(t, c, "INSERT INTO kv VALUES (?)", val.NewInt(int64(100+i)))
		waitRows(t, r.DB(), "SELECT k FROM kv", 2+i)
	}
	if n := truncates(db) - primBefore; n != 3 {
		t.Fatalf("the primary truncated %d times, want 3", n)
	}
	if r.Resyncs() != 1 {
		t.Fatalf("resyncs = %d, want 1 (crossing a truncate must not resync)", r.Resyncs())
	}
	if truncates(r.DB()) == repBefore {
		t.Fatal("the replica never truncated its own log at a shipped checkpoint")
	}
}

// TestReplicaPositionsAreLSNs: a replica's acknowledged position is an LSN
// of the primary's log, so it never goes back across a checkpoint that
// truncates that log, and once the replica has caught up it is the
// primary's FlushedLSN.
func TestReplicaPositionsAreLSNs(t *testing.T) {
	db, p := startPrimary(t, PrimaryOptions{})
	defer db.Close()
	defer p.Close()
	c, _ := db.Connect()
	defer c.Close()
	mustExec(t, c, "CREATE TABLE kv (k INT)")

	r := startReplica(t, p, "r1")
	defer r.Stop()
	acked := func() int64 {
		t.Helper()
		rows, err := c.Query("SELECT acked_lsn FROM sys.replicas")
		if err != nil {
			t.Fatal(err)
		}
		all := rows.All()
		if len(all) != 1 {
			t.Fatalf("sys.replicas has %d rows, want 1", len(all))
		}
		return all[0][0].I
	}
	last := int64(0)
	for i := 0; i < 4; i++ {
		if i > 0 {
			if err := db.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
		mustExec(t, c, "INSERT INTO kv VALUES (?)", val.NewInt(int64(i)))
		for deadline := time.Now().Add(10 * time.Second); ; {
			a := acked()
			if a < last {
				t.Fatalf("round %d: acked_lsn went back from %d to %d", i, last, a)
			}
			last = a
			if uint64(a) == db.WAL().FlushedLSN() {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("round %d: acked_lsn %d never reached the primary's FlushedLSN %d", i, a, db.WAL().FlushedLSN())
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	if r.Resyncs() != 1 {
		t.Fatalf("resyncs = %d, want 1", r.Resyncs())
	}
}

// TestResumeOnlyWhileTheLogHoldsThePosition: the primary resumes a replica
// whose position its log still holds, and snapshots one that a truncate has
// left below the log's start (or that names another log) rather than skip
// the bytes in between.
func TestResumeOnlyWhileTheLogHoldsThePosition(t *testing.T) {
	db, p := startPrimary(t, PrimaryOptions{})
	defer db.Close()
	defer p.Close()
	c, _ := db.Connect()
	defer c.Close()
	mustExec(t, c, "CREATE TABLE kv (k INT)")
	mustExec(t, c, "INSERT INTO kv VALUES (1)")
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	mustExec(t, c, "INSERT INTO kv VALUES (2)")

	reply := func(logID uint64, lsn uint64) byte {
		t.Helper()
		nc, err := net.Dial("tcp", p.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer nc.Close()
		bw := bufio.NewWriter(nc)
		h := helloMsg{Version: replProtoVersion, Name: "probe", LogID: logID, LSN: lsn}
		if err := server.WriteFrame(bw, msgHello, h.encode()); err != nil {
			t.Fatal(err)
		}
		if err := bw.Flush(); err != nil {
			t.Fatal(err)
		}
		typ, _, err := server.ReadFrame(bufio.NewReader(nc))
		if err != nil {
			t.Fatal(err)
		}
		return typ
	}
	logID, tail := db.WAL().Position()
	start, _ := db.WAL().Bounds()
	if start == 0 || start > tail {
		t.Fatalf("log bounds [%d, %d]: the checkpoint did not truncate", start, tail)
	}
	if got := reply(logID, tail); got != msgResume {
		t.Fatalf("hello at the durable tail: reply 0x%02x, want resume", got)
	}
	if got := reply(logID, start); got != msgResume {
		t.Fatalf("hello at the log's start: reply 0x%02x, want resume", got)
	}
	if got := reply(logID, start-1); got != msgSnapBegin {
		t.Fatalf("hello below the log's start: reply 0x%02x, want a snapshot", got)
	}
	if got := reply(logID+2, tail); got != msgSnapBegin {
		t.Fatalf("hello naming another log: reply 0x%02x, want a snapshot", got)
	}
}

func TestRollbackNeverVisibleOnReplica(t *testing.T) {
	db, p := startPrimary(t, PrimaryOptions{})
	defer db.Close()
	defer p.Close()
	c, _ := db.Connect()
	defer c.Close()
	mustExec(t, c, "CREATE TABLE kv (k INT)")

	r := startReplica(t, p, "r1")
	defer r.Stop()

	mustExec(t, c, "BEGIN")
	mustExec(t, c, "INSERT INTO kv VALUES (1)")
	mustExec(t, c, "INSERT INTO kv VALUES (2)")
	mustExec(t, c, "ROLLBACK")
	mustExec(t, c, "INSERT INTO kv VALUES (3)")
	rows := waitRows(t, r.DB(), "SELECT k FROM kv", 1)
	if rows[0][0].I != 3 {
		t.Fatalf("replica shows %v, want only the committed row 3", rows)
	}
}

// TestMovedUpdateRollbackNoResync rolls back, on the primary, an UPDATE
// that moved its row (it outgrew the page) and then updates the row again.
// The replica undoes the shipped delete/insert pair exactly, so the row is
// back at its original RID there; the primary's live rollback must agree,
// or its next in-place update ships a RID the replica holds no row at and
// the replica can only resync.
func TestMovedUpdateRollbackNoResync(t *testing.T) {
	db, p := startPrimary(t, PrimaryOptions{})
	defer db.Close()
	defer p.Close()
	c, _ := db.Connect()
	defer c.Close()
	mustExec(t, c, "CREATE TABLE t (id INT, pad VARCHAR(2000))")
	for id := 1; id <= 40; id++ {
		mustExec(t, c, "INSERT INTO t VALUES (?, ?)", val.NewInt(int64(id)), val.NewStr(strings.Repeat("p", 180)))
	}

	r := startReplica(t, p, "r1")
	defer r.Stop()

	mustExec(t, c, "BEGIN")
	mustExec(t, c, "UPDATE t SET pad = ? WHERE id = 1", val.NewStr(strings.Repeat("q", 1500)))
	mustExec(t, c, "ROLLBACK")
	mustExec(t, c, "UPDATE t SET pad = 'again' WHERE id = 1")

	const all = "SELECT id, pad FROM t ORDER BY id"
	pc, err := db.Connect()
	if err != nil {
		t.Fatal(err)
	}
	defer pc.Close()
	prim, err := pc.Query(all)
	if err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprint(prim.All())
	deadline := time.Now().Add(10 * time.Second)
	for {
		// r.DB() afresh each round: a resync would replace the engine.
		got := fmt.Sprint(waitRows(t, r.DB(), all, 40))
		if got == want {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("replica rows never matched the primary's:\n got %s\nwant %s", got, want)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if r.Resyncs() != 1 {
		t.Fatalf("resyncs = %d, want 1 (a rolled-back move must not force a resync)", r.Resyncs())
	}
}

func TestSyncCommitAcksAndDegrades(t *testing.T) {
	db, p := startPrimary(t, PrimaryOptions{SyncCommit: true, SyncTimeout: 500 * time.Millisecond})
	defer db.Close()
	defer p.Close()
	c, _ := db.Connect()
	defer c.Close()
	// No replicas yet: commits must not block.
	mustExec(t, c, "CREATE TABLE kv (k INT)")

	r := startReplica(t, p, "r1")
	deadline := time.Now().Add(10 * time.Second)
	for {
		mustExec(t, c, "INSERT INTO kv VALUES (1)")
		if v, _ := db.Telemetry().Value("repl.sync_acked"); v > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("synchronous commit never acknowledged by the replica")
		}
	}

	// Replace the replica with one that syncs but never acknowledges:
	// commits degrade after the timeout instead of wedging the primary's
	// commit path. (A cleanly disconnected replica would not degrade —
	// with nobody streaming, commits are async by definition.)
	r.Stop()
	stopFake := startSilentReplica(t, p)
	defer stopFake()
	deadline = time.Now().Add(10 * time.Second)
	for {
		mustExec(t, c, "INSERT INTO kv VALUES (2)")
		if v, _ := db.Telemetry().Value("repl.sync_degraded"); v > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("commit never degraded with an unresponsive replica attached")
		}
	}
}

// startSilentReplica connects a protocol-correct replica that completes its
// snapshot and then reads the stream forever without ever acking.
func startSilentReplica(t *testing.T, p *Primary) (stop func()) {
	t.Helper()
	nc, err := net.Dial("tcp", p.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	bw := bufio.NewWriter(nc)
	h := helloMsg{Version: replProtoVersion, Name: "silent"}
	if err := server.WriteFrame(bw, msgHello, h.encode()); err != nil {
		t.Fatal(err)
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	go func() {
		br := bufio.NewReader(nc)
		for {
			if _, _, err := server.ReadFrame(br); err != nil {
				return
			}
		}
	}()
	return func() { nc.Close() }
}

func TestPromotionServesAckedCommits(t *testing.T) {
	db, p := startPrimary(t, PrimaryOptions{SyncCommit: true, SyncTimeout: 10 * time.Second})
	c, _ := db.Connect()
	mustExec(t, c, "CREATE TABLE kv (k INT)")

	r := startReplica(t, p, "r1")
	for i := 0; i < 25; i++ {
		// Every one of these commits was replica-acknowledged before Exec
		// returned (sync mode, generous timeout).
		mustExec(t, c, "INSERT INTO kv VALUES (?)", val.NewInt(int64(i)))
	}
	// Leave a transaction in flight on the primary: its records ship but
	// its commit never does — promotion must undo it.
	mustExec(t, c, "BEGIN")
	mustExec(t, c, "INSERT INTO kv VALUES (999)")
	waitRows(t, r.DB(), "SELECT k FROM kv", 25)
	if v, _ := db.Telemetry().Value("repl.sync_degraded"); v != 0 {
		t.Fatalf("sync_degraded = %d, want 0 (every ack must be real)", v)
	}

	// Primary dies without ceremony.
	p.Close()
	c.Close()
	db.Crash()

	dir := r.opts.Dir
	r.Stop()
	ndb, err := Promote(dir, core.Options{ParanoidRecovery: true, VacuumInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer ndb.Close()
	nc, err := ndb.Connect()
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	rows, err := nc.Query("SELECT k FROM kv")
	if err != nil {
		t.Fatal(err)
	}
	if got := len(rows.All()); got != 25 {
		t.Fatalf("promoted db has %d rows, want the 25 acked commits", got)
	}
	// The promoted database is writable.
	mustExec(t, nc, "INSERT INTO kv VALUES (25)")
}

func TestReadRoutingPicksReplicaAndFallsBack(t *testing.T) {
	db, p := startPrimary(t, PrimaryOptions{})
	defer db.Close()
	defer p.Close()
	c, _ := db.Connect()
	defer c.Close()
	mustExec(t, c, "CREATE TABLE kv (k INT)")
	mustExec(t, c, "INSERT INTO kv VALUES (42)")

	// Routing with no replicas: handled=false, statement runs locally.
	if _, handled := p.RouteRead(db.Prepare("SELECT k FROM kv"), nil); handled {
		t.Fatal("route with no replicas should fall through")
	}

	r := startReplica(t, p, "r1")
	defer r.Stop()
	waitRows(t, r.DB(), "SELECT k FROM kv", 1)

	waitRouted := time.Now().Add(5 * time.Second)
	for {
		if rr, handled := p.RouteRead(db.Prepare("SELECT k FROM kv"), nil); handled {
			if len(rr.Rows) != 1 || rr.Rows[0][0].I != 42 {
				t.Fatalf("routed read returned %v", rr.Rows)
			}
			break
		}
		if time.Now().After(waitRouted) {
			t.Fatal("read never routed to the caught-up replica")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if v, _ := db.Telemetry().Value("repl.reads_routed"); v == 0 {
		t.Fatal("repl.reads_routed not incremented")
	}

	// Writes and introspection never route.
	if _, handled := p.RouteRead(db.Prepare("INSERT INTO kv VALUES (1)"), nil); handled {
		t.Fatal("write statement routed")
	}
	if _, handled := p.RouteRead(db.Prepare("SELECT * FROM sys.replicas"), nil); handled {
		t.Fatal("sys.* statement routed")
	}
	if _, handled := p.RouteRead(db.Prepare("SELECT PROPERTY('CurrIO')"), nil); handled {
		t.Fatal("PROPERTY statement routed")
	}
}

func TestSysReplicasTable(t *testing.T) {
	db, p := startPrimary(t, PrimaryOptions{})
	defer db.Close()
	defer p.Close()
	c, _ := db.Connect()
	defer c.Close()
	mustExec(t, c, "CREATE TABLE kv (k INT)")

	r := startReplica(t, p, "watcher")
	defer r.Stop()
	mustExec(t, c, "INSERT INTO kv VALUES (1)")
	waitRows(t, r.DB(), "SELECT k FROM kv", 1)

	deadline := time.Now().Add(5 * time.Second)
	for {
		rows, err := c.Query("SELECT name, state FROM sys.replicas")
		if err != nil {
			t.Fatal(err)
		}
		all := rows.All()
		if len(all) == 1 && all[0][0].S == "watcher" && all[0][1].S == "streaming" {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("sys.replicas = %v", all)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestReplicaSurvivesPrimarySessionDrop(t *testing.T) {
	db, p := startPrimary(t, PrimaryOptions{})
	defer db.Close()
	defer p.Close()
	c, _ := db.Connect()
	defer c.Close()
	mustExec(t, c, "CREATE TABLE kv (k INT)")

	r := startReplica(t, p, "r1")
	defer r.Stop()
	mustExec(t, c, "INSERT INTO kv VALUES (1)")
	waitRows(t, r.DB(), "SELECT k FROM kv", 1)

	// Drop every replica session server-side; the replica reconnects and
	// resumes in place (same logID, a position the log still holds: no new
	// resync).
	p.mu.Lock()
	for _, rs := range p.replicas {
		rs.conn.Close()
	}
	p.mu.Unlock()

	mustExec(t, c, "INSERT INTO kv VALUES (2)")
	waitRows(t, r.DB(), "SELECT k FROM kv", 2)
	if r.Resyncs() != 1 {
		t.Fatalf("resyncs = %d, want 1 (session drop must resume, not resync)", r.Resyncs())
	}
}

// TestReplicaSoakKillPrimary is the CI replica-soak: concurrent wire
// writers under synchronous commit, the primary torn down abruptly
// mid-load (SQL server first so no late ack can reach a client, then
// shipper, then engine), and the surviving replica promoted under
// paranoid (replay-twice) recovery. Every insert a writer saw
// acknowledged must be present afterwards.
func TestReplicaSoakKillPrimary(t *testing.T) {
	db, p := startPrimary(t, PrimaryOptions{SyncCommit: true, SyncTimeout: 10 * time.Second})
	srv, err := server.Start(db, server.Options{RouteRead: p.RouteRead})
	if err != nil {
		t.Fatal(err)
	}
	admin, err := client.Dial(srv.Addr().String(), client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := admin.Exec("CREATE TABLE soak (w INT, seq INT)"); err != nil {
		t.Fatal(err)
	}
	admin.Close()
	r := startReplica(t, p, "soak")

	const writers = 4
	type pair struct{ w, seq int }
	var mu sync.Mutex
	acked := make(map[pair]bool)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c, err := client.Dial(srv.Addr().String(), client.Options{})
			if err != nil {
				return
			}
			defer c.Close()
			for seq := 0; ; seq++ {
				for {
					_, err = c.Exec("INSERT INTO soak VALUES (?, ?)",
						val.NewInt(int64(w)), val.NewInt(int64(seq)))
					if !errors.Is(err, client.ErrRetryable) {
						break
					}
					time.Sleep(time.Millisecond)
				}
				if err != nil {
					return // the kill: no ack, no record
				}
				mu.Lock()
				acked[pair{w, seq}] = true
				mu.Unlock()
			}
		}(w)
	}
	time.Sleep(800 * time.Millisecond)

	// The kill, in ack-freezing order.
	srv.Close()
	p.Close()
	if v, _ := db.Telemetry().Value("repl.sync_degraded"); v != 0 {
		t.Fatalf("sync_degraded = %d, want 0", v)
	}
	db.Crash()
	wg.Wait()

	dir := r.opts.Dir
	r.Stop()
	ndb, err := Promote(dir, core.Options{ParanoidRecovery: true, VacuumInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer ndb.Close()
	nc, err := ndb.Connect()
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	rows, err := nc.Query("SELECT w, seq FROM soak")
	if err != nil {
		t.Fatal(err)
	}
	have := make(map[pair]bool)
	for _, row := range rows.All() {
		have[pair{int(row[0].I), int(row[1].I)}] = true
	}
	mu.Lock()
	defer mu.Unlock()
	if len(acked) == 0 {
		t.Fatal("no writes were acknowledged before the kill")
	}
	for pr := range acked {
		if !have[pr] {
			t.Fatalf("LOST ACK: writer %d seq %d was acknowledged but is missing after promotion (%d acked, %d recovered)",
				pr.w, pr.seq, len(acked), len(have))
		}
	}
	mustExec(t, nc, "INSERT INTO soak VALUES (-1, -1)")
}

// TestReadRoutingJudgesTheStatementNotItsText: over the wire, against a
// primary with a caught-up replica, statements that read instance state
// stay home however they are spelled — the old substring test let
// "PROPERTY (" and "sys . properties" through, and never looked inside a CTE
// or a subquery for anything but the letters — while a user-table query
// whose literal merely mentions sys. is routed like any other.
func TestReadRoutingJudgesTheStatementNotItsText(t *testing.T) {
	db, p := startPrimary(t, PrimaryOptions{})
	defer db.Close()
	defer p.Close()
	srv, err := server.Start(db, server.Options{RouteRead: p.RouteRead})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := client.Dial(srv.Addr().String(), client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for _, sql := range []string{"CREATE TABLE kv (k INT, s VARCHAR(20))", "INSERT INTO kv VALUES (1, 'sys.x'), (2, 'kv')"} {
		if _, err := c.Exec(sql); err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
	}
	r := startReplica(t, p, "r1")
	defer r.Stop()
	waitRows(t, r.DB(), "SELECT k FROM kv", 2)

	routed := func() int64 { v, _ := db.Telemetry().Value("repl.reads_routed"); return v }
	query := func(sql string) [][]val.Value {
		t.Helper()
		rows, err := c.Query(sql)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		return rows.Data
	}
	for deadline := time.Now().Add(5 * time.Second); routed() == 0; {
		query("SELECT k FROM kv")
		if time.Now().After(deadline) {
			t.Fatal("no read was ever routed to the caught-up replica")
		}
	}

	// The first four are answered with the primary's own repl.reads_routed (a
	// replica routes nothing: its answer would be 0); the last counts the row
	// whose s names a table.
	for i, sql := range []string{
		"SELECT PROPERTY ('repl.reads_routed')",
		"SELECT value FROM sys . properties WHERE name = 'repl.reads_routed'",
		"WITH p (n, v) AS (SELECT name, value FROM sys.properties) SELECT v FROM p WHERE n = 'repl.reads_routed'",
		"SELECT value FROM sys.properties WHERE name = 'repl.reads_routed' AND 'kv' IN (SELECT s FROM kv, sys.tables)",
		"SELECT COUNT(*) FROM kv WHERE s IN (SELECT name FROM sys.tables)",
	} {
		before := routed()
		want := before
		if i == 4 {
			want = 1
		}
		got := query(sql)
		if n := routed() - before; n != 0 {
			t.Errorf("%q was answered by the replica", sql)
		}
		if len(got) != 1 || got[0][0].I != want {
			t.Errorf("%q = %v, want %d", sql, got, want)
		}
	}

	before := routed()
	if got := query("SELECT k FROM kv WHERE s = 'sys.x'"); len(got) != 1 || got[0][0].I != 1 {
		t.Errorf("literal 'sys.x': %v", got)
	}
	if n := routed() - before; n != 1 {
		t.Errorf("a user-table query with 'sys.x' in a literal was routed %d times, want 1", n)
	}
}

// TestRoutedReadsKeepTheirOwnLiterals: texts that differ only in a literal
// share one statement shape on the primary, but the replica is sent the text
// the client submitted (with the parameters the client bound), so each is
// answered with its own row.
func TestRoutedReadsKeepTheirOwnLiterals(t *testing.T) {
	db, p := startPrimary(t, PrimaryOptions{})
	defer db.Close()
	defer p.Close()
	srv, err := server.Start(db, server.Options{RouteRead: p.RouteRead})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := client.Dial(srv.Addr().String(), client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for _, sql := range []string{"CREATE TABLE kv (k INT, s VARCHAR(20))", "INSERT INTO kv VALUES (1, 'one'), (2, 'two'), (3, 'three')"} {
		if _, err := c.Exec(sql); err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
	}
	r := startReplica(t, p, "r1")
	defer r.Stop()
	waitRows(t, r.DB(), "SELECT k FROM kv", 3)

	routed := func() int64 { v, _ := db.Telemetry().Value("repl.reads_routed"); return v }
	for deadline := time.Now().Add(5 * time.Second); routed() == 0; {
		if _, err := c.Query("SELECT k FROM kv"); err != nil {
			t.Fatal(err)
		}
		if time.Now().After(deadline) {
			t.Fatal("no read was ever routed to the caught-up replica")
		}
	}
	before := routed()
	for round := 0; round < 2; round++ {
		for k, want := range map[int]string{1: "one", 2: "two", 3: "three"} {
			rows, err := c.Query(fmt.Sprintf("SELECT s FROM kv WHERE k = %d", k))
			if err != nil || len(rows.Data) != 1 || rows.Data[0][0].S != want {
				t.Errorf("k = %d: %v, %v; want %q", k, rows, err, want)
			}
			rows, err = c.Query(fmt.Sprintf("SELECT s FROM kv WHERE k = ? AND s <> 'not-%d'", k), val.NewInt(int64(k)))
			if err != nil || len(rows.Data) != 1 || rows.Data[0][0].S != want {
				t.Errorf("k = ? bound to %d: %v, %v; want %q", k, rows, err, want)
			}
		}
	}
	if n := routed() - before; n != 12 {
		t.Errorf("%d of 12 reads were routed: the test must read through the replica", n)
	}
	if a, b := db.Prepare("SELECT s FROM kv WHERE k = 1"), db.Prepare("SELECT s FROM kv WHERE k = 2"); a.Shape != b.Shape || a.Text == b.Text {
		t.Errorf("the two texts: one shape %v, texts %q and %q", a.Shape == b.Shape, a.Text, b.Text)
	}
}
