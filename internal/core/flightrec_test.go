package core

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"anywheredb/internal/flightrec"
	"anywheredb/internal/val"
)

// TestSysStatementsCollapsesLiterals: the same statement shape with
// different literals must aggregate into one digest row.
func TestSysStatementsCollapsesLiterals(t *testing.T) {
	db := openDB(t, Options{})
	c := conn(t, db)
	mustExec(t, c, "CREATE TABLE t (a INT, b INT)")
	for i := 0; i < 20; i++ {
		mustExec(t, c, fmt.Sprintf("INSERT INTO t VALUES (%d, %d)", i, i*2))
	}
	for i := 0; i < 10; i++ {
		mustQuery(t, c, fmt.Sprintf("SELECT a FROM t WHERE b = %d", i))
	}

	rows := mustQuery(t, c, "SELECT * FROM sys.statements")
	counts := map[string]int64{}
	for _, r := range rows.All() {
		counts[r[0].String()] = r[1].I // fingerprint -> calls
	}
	if got := counts["SELECT a FROM t WHERE b = ?"]; got != 10 {
		t.Fatalf("select digest calls = %d, want 10; digests: %v", got, counts)
	}
	if got := counts["INSERT INTO t VALUES ( ? , ? )"]; got != 20 {
		t.Fatalf("insert digest calls = %d, want 20; digests: %v", got, counts)
	}
}

// TestSysRecentStatementsAndPhases: the ring surfaces recent spans with
// phase timings and row counts.
func TestSysRecentStatements(t *testing.T) {
	db := openDB(t, Options{})
	c := conn(t, db)
	mustExec(t, c, "CREATE TABLE t (a INT)")
	mustExec(t, c, "INSERT INTO t VALUES (1), (2), (3)")
	mustQuery(t, c, "SELECT a FROM t")

	rows := mustQuery(t, c,
		"SELECT fingerprint, rows, error FROM sys.recent_statements")
	var sawSelect bool
	for _, r := range rows.All() {
		if r[0].String() == "SELECT a FROM t" {
			sawSelect = true
			if r[1].I != 3 {
				t.Fatalf("select span rows = %d, want 3", r[1].I)
			}
			if r[2].String() != "" {
				t.Fatalf("select span error = %q", r[2].String())
			}
		}
	}
	if !sawSelect {
		t.Fatal("SELECT span not in sys.recent_statements")
	}

	// Failed statements are recorded too.
	if _, err := c.Exec("SELECT a FROM nosuch"); err == nil {
		t.Fatal("expected error")
	}
	rec := db.FlightRecorder().Recent()
	var sawErr bool
	for _, sp := range rec {
		if sp.Fingerprint == "SELECT a FROM nosuch" && sp.Err != "" {
			sawErr = true
		}
	}
	if !sawErr {
		t.Fatal("failed statement span not recorded")
	}
}

// TestSysWaitsUnderContention: a contended multi-writer run over a tiny
// pool on a real directory must attribute lock, WAL-flush, and buffer-read
// wait time in sys.waits.
func TestSysWaitsUnderContention(t *testing.T) {
	db := openDB(t, Options{
		Dir:           t.TempDir(),
		PoolMinPages:  16,
		PoolInitPages: 24,
		PoolMaxPages:  32,
	})
	c := conn(t, db)
	// Rows padded so the table overflows the tiny pool: every UPDATE's
	// table scan (no index on a) must re-read evicted pages from the store.
	mustExec(t, c, "CREATE TABLE t (a INT, b INT, pad TEXT)")
	pad := val.NewStr(strings.Repeat("p", 400))
	for i := 0; i < 600; i++ {
		mustExec(t, c, "INSERT INTO t VALUES (?, ?, ?)",
			val.NewInt(int64(i)), val.NewInt(int64(i%7)), pad)
	}

	const writers = 8
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			wc, err := db.Connect()
			if err != nil {
				t.Error(err)
				return
			}
			defer wc.Close()
			for i := 0; i < 25; i++ {
				// Hot-key update: all writers collide on a = 0, and the
				// scan (no index) streams the table through the tiny pool.
				_, _ = wc.Exec("UPDATE t SET b = ? WHERE a = 0", val.NewInt(int64(i)))
			}
		}(w)
	}
	wg.Wait()

	rows := mustQuery(t, c, "SELECT event, count, total_us FROM sys.waits")
	got := map[string]int64{}
	for _, r := range rows.All() {
		got[r[0].String()] = r[1].I
	}
	for _, ev := range []string{"lock.acquire", "wal.flush", "buffer.read"} {
		if got[ev] <= 0 {
			t.Errorf("wait event %q count = %d, want > 0 (all: %v)", ev, got[ev], got)
		}
	}

	// The digest row for the hot update must carry attributed wait time.
	ds := db.FlightRecorder().Digests().Snapshot()
	var upd *flightrec.DigestStat
	for i := range ds {
		if ds[i].Fingerprint == "UPDATE t SET b = ? WHERE a = ?" {
			upd = &ds[i]
		}
	}
	if upd == nil {
		t.Fatal("update digest missing")
	}
	if upd.WaitUS[flightrec.WaitLock] <= 0 && upd.WaitUS[flightrec.WaitWALFlush] <= 0 {
		t.Errorf("update digest has no attributed lock/WAL wait: %+v", upd)
	}
}

// TestPropertyQuantileSuffix: PROPERTY('<hist>.p99') resolves through SQL.
func TestPropertyQuantileSuffix(t *testing.T) {
	db := openDB(t, Options{})
	c := conn(t, db)
	mustExec(t, c, "CREATE TABLE t (a INT)")
	for i := 0; i < 50; i++ {
		mustExec(t, c, "INSERT INTO t VALUES (?)", val.NewInt(int64(i)))
	}
	rows := mustQuery(t, c, "SELECT PROPERTY('exec.statement_us.p99')")
	v := rows.All()[0][0]
	if v.IsNull() || v.I < 0 {
		t.Fatalf("PROPERTY('exec.statement_us.p99') = %v", v)
	}
	rows = mustQuery(t, c, "SELECT PROPERTY('exec.statement_us.count')")
	if n := rows.All()[0][0].I; n < 51 {
		t.Fatalf("statement count = %d, want >= 51", n)
	}
}

// TestDisableFlightRecorder: with the recorder off, nothing is captured
// but statements still run.
func TestDisableFlightRecorder(t *testing.T) {
	db := openDB(t, Options{DisableFlightRecorder: true})
	c := conn(t, db)
	mustExec(t, c, "CREATE TABLE t (a INT)")
	mustExec(t, c, "INSERT INTO t VALUES (1)")
	mustQuery(t, c, "SELECT a FROM t")
	fr := db.FlightRecorder()
	if fr.Enabled() {
		t.Fatal("recorder reports enabled")
	}
	if counter(t, db, "flightrec.spans") != 0 || len(fr.Recent()) != 0 || fr.Digests().Len() != 0 {
		t.Fatal("disabled recorder captured spans")
	}
	if rows := mustQuery(t, c, "SELECT * FROM sys.statements"); rows.Count() != 0 {
		t.Fatalf("sys.statements has %d rows while disabled", rows.Count())
	}
}

// TestExplicitTxnSpanAttribution: statements inside BEGIN/COMMIT bind the
// explicit transaction, and COMMIT's flush lands in the commit phase.
func TestExplicitTxnSpanAttribution(t *testing.T) {
	db := openDB(t, Options{Dir: t.TempDir()})
	c := conn(t, db)
	mustExec(t, c, "CREATE TABLE t (a INT)")
	mustExec(t, c, "BEGIN")
	mustExec(t, c, "INSERT INTO t VALUES (1)")
	mustExec(t, c, "COMMIT")
	var commitSpan *flightrec.Span
	for _, sp := range db.FlightRecorder().Recent() {
		if sp.Fingerprint == "COMMIT" {
			commitSpan = sp
		}
	}
	if commitSpan == nil {
		t.Fatal("COMMIT span not recorded")
	}
	if commitSpan.PhaseUS(flightrec.PhaseCommit) < 0 {
		t.Fatal("commit phase negative")
	}
}
