package core

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"anywheredb/internal/val"
)

// TestSnapshotReadSkipsUncommitted: a query on one connection must not see
// (or block on) another connection's uncommitted writes.
func TestSnapshotReadSkipsUncommitted(t *testing.T) {
	db := openDB(t, Options{})
	w := conn(t, db)
	r := conn(t, db)
	mustExec(t, w, "CREATE TABLE t (a INT, b INT)")
	mustExec(t, w, "INSERT INTO t VALUES (1, 10), (2, 20)")

	mustExec(t, w, "BEGIN")
	mustExec(t, w, "UPDATE t SET b = 99 WHERE a = 1")
	mustExec(t, w, "INSERT INTO t VALUES (3, 30)")
	mustExec(t, w, "DELETE FROM t WHERE a = 2")

	// The reader runs while the writer holds its X locks: with snapshot
	// reads it must return the pre-transaction image without waiting.
	done := make(chan [][]val.Value, 1)
	go func() {
		rows, err := r.Query("SELECT a, b FROM t ORDER BY a")
		if err != nil {
			t.Error(err)
			done <- nil
			return
		}
		done <- rows.All()
	}()
	select {
	case got := <-done:
		want := "[[1 10] [2 20]]"
		if fmt.Sprint(got) != want {
			t.Fatalf("snapshot read = %v, want %s", got, want)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("snapshot read blocked behind an uncommitted writer")
	}

	// The writer's own statements see its uncommitted changes.
	rows := mustQuery(t, w, "SELECT a, b FROM t ORDER BY a")
	if got, want := fmt.Sprint(rows.All()), "[[1 99] [3 30]]"; got != want {
		t.Fatalf("own-write read = %v, want %s", got, want)
	}

	mustExec(t, w, "COMMIT")
	rows = mustQuery(t, r, "SELECT a, b FROM t ORDER BY a")
	if got, want := fmt.Sprint(rows.All()), "[[1 99] [3 30]]"; got != want {
		t.Fatalf("post-commit read = %v, want %s", got, want)
	}
}

// TestBeginReadOnlyRepeatableRead: BEGIN READ ONLY pins one snapshot for
// the whole transaction — concurrent commits stay invisible until it ends,
// and write statements inside it are refused.
func TestBeginReadOnlyRepeatableRead(t *testing.T) {
	db := openDB(t, Options{})
	w := conn(t, db)
	r := conn(t, db)
	mustExec(t, w, "CREATE TABLE t (a INT, b INT)")
	mustExec(t, w, "INSERT INTO t VALUES (1, 10)")

	mustExec(t, r, "BEGIN READ ONLY")
	rows := mustQuery(t, r, "SELECT b FROM t WHERE a = 1")
	if rows.All()[0][0].I != 10 {
		t.Fatalf("first read = %v", rows.All())
	}

	mustExec(t, w, "UPDATE t SET b = 20 WHERE a = 1")
	mustExec(t, w, "INSERT INTO t VALUES (2, 200)")

	rows = mustQuery(t, r, "SELECT b FROM t WHERE a = 1")
	if rows.All()[0][0].I != 10 {
		t.Fatalf("repeatable read broken: %v", rows.All())
	}
	rows = mustQuery(t, r, "SELECT COUNT(*) FROM t")
	if rows.All()[0][0].I != 1 {
		t.Fatalf("snapshot sees concurrent insert: %v", rows.All())
	}

	if _, err := r.Exec("INSERT INTO t VALUES (9, 9)"); !errors.Is(err, ErrReadOnlyTxn) {
		t.Fatalf("write in READ ONLY txn: err = %v, want ErrReadOnlyTxn", err)
	}
	if _, err := r.Exec("UPDATE t SET b = 0"); !errors.Is(err, ErrReadOnlyTxn) {
		t.Fatalf("update in READ ONLY txn: err = %v, want ErrReadOnlyTxn", err)
	}
	if _, err := r.Exec("DROP TABLE t"); !errors.Is(err, ErrReadOnlyTxn) {
		t.Fatalf("DDL in READ ONLY txn: err = %v, want ErrReadOnlyTxn", err)
	}

	mustExec(t, r, "COMMIT")
	rows = mustQuery(t, r, "SELECT COUNT(*) FROM t")
	if rows.All()[0][0].I != 2 {
		t.Fatalf("post-txn read = %v, want 2 rows", rows.All())
	}
}

// TestSysTransactionsRows: the virtual table lists live transactions with
// state, snapshot watermark, lock, and undo accounting.
func TestSysTransactionsRows(t *testing.T) {
	db := openDB(t, Options{})
	w := conn(t, db)
	r := conn(t, db)
	q := conn(t, db)
	mustExec(t, w, "CREATE TABLE t (a INT, b INT)")
	mustExec(t, w, "INSERT INTO t VALUES (1, 10)")

	mustExec(t, w, "BEGIN")
	mustExec(t, w, "UPDATE t SET b = 11 WHERE a = 1")
	mustExec(t, r, "BEGIN READ ONLY")
	mustQuery(t, r, "SELECT COUNT(*) FROM t")

	rows := mustQuery(t, q,
		"SELECT state, snapshot_csn, locks_held, undo_bytes FROM sys.transactions ORDER BY id")
	var sawActive, sawRO bool
	for _, row := range rows.All() {
		switch row[0].String() {
		case "active":
			sawActive = true
			if row[2].I == 0 {
				t.Errorf("active writer shows no locks held: %v", row)
			}
			if row[3].I == 0 {
				t.Errorf("active writer shows no undo bytes: %v", row)
			}
		case "read-only":
			sawRO = true
			if row[1].I == 0 {
				t.Errorf("read-only txn shows no snapshot watermark: %v", row)
			}
		}
	}
	if !sawActive || !sawRO {
		t.Fatalf("missing transaction rows (active=%v ro=%v): %v",
			sawActive, sawRO, rows.All())
	}
	mustExec(t, w, "COMMIT")
	mustExec(t, r, "ROLLBACK")

	rows = mustQuery(t, q, "SELECT COUNT(*) FROM sys.transactions")
	if n := rows.All()[0][0].I; n != 0 {
		t.Fatalf("sys.transactions rows after all txns ended = %d, want 0", n)
	}
}

// TestVacuumReclaimsVersions: versions pinned by a live snapshot survive a
// vacuum pass and are reclaimed once the snapshot ends.
func TestVacuumReclaimsVersions(t *testing.T) {
	db := openDB(t, Options{VacuumInterval: -1})
	w := conn(t, db)
	r := conn(t, db)
	mustExec(t, w, "CREATE TABLE t (a INT, b INT)")
	mustExec(t, w, "INSERT INTO t VALUES (1, 10), (2, 20)")

	// Pin a snapshot, then write over both rows: the pre-images must stay
	// resolvable for the snapshot.
	mustExec(t, r, "BEGIN READ ONLY")
	mustQuery(t, r, "SELECT COUNT(*) FROM t")
	mustExec(t, w, "UPDATE t SET b = b + 1")

	tbl, _ := db.Table("t")
	if tbl.VersionsEmpty() {
		t.Fatal("no version chains while a snapshot pins pre-images")
	}
	if n := db.VacuumOnce(); n != 0 {
		t.Fatalf("vacuum reclaimed %d entries pinned by a live snapshot", n)
	}
	rows := mustQuery(t, r, "SELECT b FROM t ORDER BY a")
	if got, want := fmt.Sprint(rows.All()), "[[10] [20]]"; got != want {
		t.Fatalf("pinned snapshot read = %v, want %s", got, want)
	}

	mustExec(t, r, "COMMIT")
	if n := db.VacuumOnce(); n == 0 {
		t.Fatal("vacuum reclaimed nothing after the snapshot ended")
	}
	if !tbl.VersionsEmpty() {
		t.Fatalf("%d version entries survive vacuum with no snapshots", tbl.VersionCount())
	}
	if v, ok := db.Telemetry().Value("txn.versions_reclaimed"); !ok || v == 0 {
		t.Fatalf("txn.versions_reclaimed = %d (ok=%v), want > 0", v, ok)
	}
	if v, ok := db.Telemetry().Value("txn.snapshot_reads"); !ok || v == 0 {
		t.Fatalf("txn.snapshot_reads = %d (ok=%v), want > 0", v, ok)
	}
}

// TestEagerReclaimKeepsChainsEmpty: with no concurrent snapshots, commit
// itself reclaims the committer's version entries — the store returns to
// empty without any vacuum pass.
func TestEagerReclaimKeepsChainsEmpty(t *testing.T) {
	db := openDB(t, Options{VacuumInterval: -1})
	c := conn(t, db)
	mustExec(t, c, "CREATE TABLE t (a INT, b INT)")
	mustExec(t, c, "INSERT INTO t VALUES (1, 10)")
	mustExec(t, c, "UPDATE t SET b = 11 WHERE a = 1")
	mustExec(t, c, "DELETE FROM t WHERE a = 1")

	tbl, _ := db.Table("t")
	if !tbl.VersionsEmpty() {
		t.Fatalf("%d version entries linger after autocommit statements",
			tbl.VersionCount())
	}

	// Rollback path: undo restores the heap and the entries are dropped.
	mustExec(t, c, "INSERT INTO t VALUES (2, 20)")
	mustExec(t, c, "BEGIN")
	mustExec(t, c, "UPDATE t SET b = 99 WHERE a = 2")
	mustExec(t, c, "ROLLBACK")
	if !tbl.VersionsEmpty() {
		t.Fatalf("%d version entries linger after rollback", tbl.VersionCount())
	}
}

// TestMVCCMixedStress: scanning readers race ≥8 writers; every scan must
// observe a consistent snapshot (the invariant column-sum is constant
// under the balance-transfer workload), and no read-only statement may
// accumulate lock-wait time. CI runs this with -race -count=2.
func TestMVCCMixedStress(t *testing.T) {
	db := openDB(t, Options{})
	c := conn(t, db)
	mustExec(t, c, "CREATE TABLE acct (id INT, bal INT)")
	const rowsN = 32
	const total = rowsN * 100
	for i := 0; i < rowsN; i++ {
		mustExec(t, c, "INSERT INTO acct VALUES (?, 100)", val.NewInt(int64(i)))
	}

	const writers = 8
	const readers = 2
	stop := make(chan struct{})
	var wg sync.WaitGroup
	errCh := make(chan error, writers+readers)

	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			wc, err := db.Connect()
			if err != nil {
				errCh <- err
				return
			}
			defer wc.Close()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				// Balance transfer: move 1 from one row to another inside
				// a transaction, preserving the table-wide sum.
				a := rng.Intn(rowsN)
				b := (a + 1 + rng.Intn(rowsN-1)) % rowsN
				if _, err := wc.Exec("BEGIN"); err != nil {
					errCh <- err
					return
				}
				_, err1 := wc.Exec("UPDATE acct SET bal = bal - 1 WHERE id = ?", val.NewInt(int64(a)))
				_, err2 := wc.Exec("UPDATE acct SET bal = bal + 1 WHERE id = ?", val.NewInt(int64(b)))
				if err1 != nil || err2 != nil {
					// A deadlock victim under heavy contention: roll back and
					// keep going — the invariant must still hold.
					_, _ = wc.Exec("ROLLBACK")
					continue
				}
				if _, err := wc.Exec("COMMIT"); err != nil {
					errCh <- err
					return
				}
			}
		}(w)
	}

	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rc, err := db.Connect()
			if err != nil {
				errCh <- err
				return
			}
			defer rc.Close()
			for {
				select {
				case <-stop:
					return
				default:
				}
				rows, err := rc.Query("SELECT SUM(bal), COUNT(*) FROM acct")
				if err != nil {
					errCh <- err
					return
				}
				got := rows.All()
				if got[0][0].I != total || got[0][1].I != rowsN {
					errCh <- fmt.Errorf("reader %d: inconsistent snapshot sum=%d count=%d, want %d/%d",
						r, got[0][0].I, got[0][1].I, total, rowsN)
					return
				}
			}
		}(r)
	}

	time.Sleep(1500 * time.Millisecond)
	close(stop)
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}

	// Zero lock waits attributed to the read-only scan statement. The
	// digest row must exist — a missing fingerprint means the check went
	// vacuous, not that the reads were lock-free.
	foundDigest := false
	for _, d := range db.FlightRecorder().Digests().Snapshot() {
		if d.Fingerprint == "SELECT sum ( bal ) , count ( * ) FROM acct" {
			foundDigest = true
			if d.WaitUS[0] > 0 {
				t.Fatalf("read-only digest %q accumulated %dus of lock waits",
					d.Fingerprint, d.WaitUS[0])
			}
		}
	}
	if !foundDigest {
		t.Fatal("reader digest not found in flight recorder")
	}

	// Final ground truth.
	rows := mustQuery(t, c, "SELECT SUM(bal) FROM acct")
	if rows.All()[0][0].I != total {
		t.Fatalf("final sum = %d, want %d", rows.All()[0][0].I, total)
	}
}
