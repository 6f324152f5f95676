package core

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

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
	db := openDB(t, Options{})
	db.FlightRecorder().SetEnabled(false)
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

// TestRecentStatementsAreNeverTorn: four connections run statements while
// a fifth polls sys.recent_statements. Each connection reuses its span, and
// the ring's slots are rewritten as it wraps; every row read is still one
// statement's whole record — its fingerprint and row count agree — and a
// sequence number always names the same record. Run under -race, this is
// the proof that the ring's copies are taken and read under their slots'
// mutexes.
func TestRecentStatementsAreNeverTorn(t *testing.T) {
	db := openDB(t, Options{})
	setup := conn(t, db)
	const writers, perWriter = 4, 1000
	for i := 0; i < writers; i++ {
		mustExec(t, setup, fmt.Sprintf("CREATE TABLE t%d (a INT)", i))
		for r := 0; r <= i; r++ {
			mustExec(t, setup, fmt.Sprintf("INSERT INTO t%d VALUES (%d)", i, r))
		}
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func(c *Conn, sql string) {
			defer wg.Done()
			for n := 0; n < perWriter; n++ {
				if _, err := c.Query(sql); err != nil {
					t.Error(err)
					return
				}
			}
		}(conn(t, db), fmt.Sprintf("SELECT a FROM t%d", i))
	}
	go func() { wg.Wait(); close(stop) }()

	type record struct {
		fingerprint string
		rows        int64
	}
	seen := map[int64]record{}
	reader := conn(t, db)
	var polls, checked int
	for done := false; !done; polls++ {
		select {
		case <-stop:
			done = true
		default:
		}
		rows := mustQuery(t, reader, "SELECT seq, fingerprint, rows, error FROM sys.recent_statements")
		for _, r := range rows.All() {
			rec := record{r[1].String(), r[2].I}
			var k int
			if _, err := fmt.Sscanf(rec.fingerprint, "SELECT a FROM t%d", &k); err == nil {
				checked++
				if rec.rows != int64(k+1) || r[3].String() != "" {
					t.Fatalf("seq %d: %q with %d rows, error %q: a torn record", r[0].I, rec.fingerprint, rec.rows, r[3].String())
				}
			}
			if prev, ok := seen[r[0].I]; ok && prev != rec {
				t.Fatalf("seq %d read as %+v, then as %+v", r[0].I, prev, rec)
			}
			seen[r[0].I] = rec
		}
	}
	t.Logf("%d polls checked %d records", polls, checked)
	if checked == 0 {
		t.Fatal("the reader saw no writer's record")
	}
}

// TestWaitsChargedToTheirOwnStatement pins exact per-statement attribution
// on a database with a real log. A row held by an open writer blocks an
// autocommit UPDATE, then the same UPDATE inside BEGIN … COMMIT, and the
// writer's table intent blocks a CREATE INDEX. Each blocked statement's own
// span carries one lock wait of at least the time it was held, the
// holder's COMMIT carries its flush, a SELECT run meanwhile carries no lock
// or flush wait and an unrelated UPDATE no lock wait, and the engine-wide
// lock-wait counters move by exactly the three blocked calls.
func TestWaitsChargedToTheirOwnStatement(t *testing.T) {
	db := openDB(t, Options{Dir: t.TempDir()})
	setup := conn(t, db)
	mustExec(t, setup, "CREATE TABLE t (id INT, v INT)")
	mustExec(t, setup, "CREATE UNIQUE INDEX t_id ON t (id)")
	mustExec(t, setup, "CREATE TABLE u (id INT, v INT)")
	for i := 1; i <= 4; i++ {
		mustExec(t, setup, "INSERT INTO t VALUES (?, 0)", val.NewInt(int64(i)))
		mustExec(t, setup, "INSERT INTO u VALUES (?, 0)", val.NewInt(int64(i)))
	}
	holder, waiter, other := conn(t, db), conn(t, db), conn(t, db)
	lockWaits0 := counter(t, db, "lock.waits")
	acquireWaits0 := counter(t, db, "waits.lock.acquire.count")
	const held = 20 * time.Millisecond

	// span returns the newest recorded span of exactly this text.
	span := func(sql string) *flightrec.Span {
		t.Helper()
		rec := db.FlightRecorder().Recent()
		for i := len(rec) - 1; i >= 0; i-- {
			if rec[i].SQL == sql {
				return rec[i]
			}
		}
		t.Fatalf("no span of %q recorded", sql)
		return nil
	}
	// blockBehind runs sql on c while holdSQL's transaction is open on the
	// holder: once sql is blocked, other connection runs its statements,
	// and after held the holder commits.
	blockBehind := func(c *Conn, holdSQL, sql string) {
		t.Helper()
		mustExec(t, holder, "BEGIN")
		mustExec(t, holder, holdSQL)
		waits := counter(t, db, "lock.waits")
		done := make(chan error, 1)
		go func() {
			_, err := c.Exec(sql)
			done <- err
		}()
		for deadline := time.Now().Add(10 * time.Second); counter(t, db, "lock.waits") == waits; {
			if time.Now().After(deadline) {
				t.Fatalf("%q never blocked", sql)
			}
			time.Sleep(100 * time.Microsecond)
		}
		mustQuery(t, other, "SELECT v FROM u WHERE id = 1")
		mustExec(t, other, "UPDATE u SET v = v + 1 WHERE id = 2")
		time.Sleep(held)
		mustExec(t, holder, "COMMIT")
		if err := <-done; err != nil {
			t.Fatalf("%q: %v", sql, err)
		}
		if sp := span(sql); sp.WaitCount(flightrec.WaitLock) != 1 || sp.WaitUS(flightrec.WaitLock) < held.Microseconds() {
			t.Errorf("%q: %d lock waits of %d µs on its span, want 1 of at least %d µs",
				sql, sp.WaitCount(flightrec.WaitLock), sp.WaitUS(flightrec.WaitLock), held.Microseconds())
		}
		if sp := span("COMMIT"); sp.WaitCount(flightrec.WaitWALFlush) == 0 || sp.WaitCount(flightrec.WaitLock) != 0 {
			t.Errorf("the holder's COMMIT after %q: %d flush waits and %d lock waits, want a flush and no lock wait",
				sql, sp.WaitCount(flightrec.WaitWALFlush), sp.WaitCount(flightrec.WaitLock))
		}
		if sp := span("SELECT v FROM u WHERE id = 1"); sp.WaitCount(flightrec.WaitLock) != 0 || sp.WaitCount(flightrec.WaitWALFlush) != 0 {
			t.Errorf("a SELECT run beside %q carries %d lock and %d flush waits", sql,
				sp.WaitCount(flightrec.WaitLock), sp.WaitCount(flightrec.WaitWALFlush))
		}
		if n := span("UPDATE u SET v = v + 1 WHERE id = 2").WaitCount(flightrec.WaitLock); n != 0 {
			t.Errorf("an unrelated UPDATE run beside %q carries %d lock waits", sql, n)
		}
	}

	blockBehind(waiter, "UPDATE t SET v = 1 WHERE id = 1", "UPDATE t SET v = 2 WHERE id = 1")
	mustExec(t, waiter, "BEGIN")
	blockBehind(waiter, "UPDATE t SET v = 3 WHERE id = 1", "UPDATE t SET v = 4 WHERE id = 1")
	mustExec(t, waiter, "COMMIT")
	if sp := span("COMMIT"); sp.WaitCount(flightrec.WaitLock) != 0 || sp.WaitCount(flightrec.WaitWALFlush) == 0 {
		t.Errorf("the waiter's COMMIT: %d lock waits and %d flush waits, want none and a flush",
			sp.WaitCount(flightrec.WaitLock), sp.WaitCount(flightrec.WaitWALFlush))
	}
	blockBehind(waiter, "INSERT INTO t VALUES (5, 0)", "CREATE INDEX t_v ON t (v)")

	if got := counter(t, db, "lock.waits") - lockWaits0; got != 3 {
		t.Errorf("lock.waits moved by %d, want 3", got)
	}
	if got := counter(t, db, "waits.lock.acquire.count") - acquireWaits0; got != 3 {
		t.Errorf("waits.lock.acquire.count moved by %d, want 3", got)
	}
}
