package server_test

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
	"unicode/utf8"

	"anywheredb/internal/core"
	"anywheredb/internal/flightrec"
	"anywheredb/internal/server"
	"anywheredb/internal/server/client"
	"anywheredb/internal/val"
)

// startServer opens an in-memory database and serves it, tearing both
// down with the test.
func startServer(t *testing.T, dbOpts core.Options, srvOpts server.Options) (*core.DB, *server.Server) {
	t.Helper()
	db, err := core.Open(dbOpts)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.Start(db, srvOpts)
	if err != nil {
		db.Close()
		t.Fatal(err)
	}
	t.Cleanup(func() {
		srv.Close()
		if !db.Closed() {
			db.Close()
		}
	})
	return db, srv
}

func dial(t *testing.T, srv *server.Server, opts client.Options) *client.Client {
	t.Helper()
	c, err := client.Dial(srv.Addr().String(), opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func TestServerRoundTrip(t *testing.T) {
	_, srv := startServer(t, core.Options{}, server.Options{})
	c := dial(t, srv, client.Options{Name: "roundtrip"})

	if _, err := c.Exec("create table t (a int, b string, d double)"); err != nil {
		t.Fatal(err)
	}
	res, err := c.Exec("insert into t values (?, ?, ?)",
		val.NewInt(1), val.NewStr("héllo"), val.NewDouble(2.5))
	if err != nil {
		t.Fatal(err)
	}
	if res.RowsAffected != 1 {
		t.Fatalf("rows affected = %d, want 1", res.RowsAffected)
	}
	if _, err := c.Exec("insert into t values (?, ?, ?)",
		val.NewInt(2), val.Null, val.NewDouble(-0.25)); err != nil {
		t.Fatal(err)
	}

	rows, err := c.Query("select a, b, d from t order by a")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows.Cols) != 3 || rows.Cols[0] != "a" {
		t.Fatalf("cols = %v", rows.Cols)
	}
	if len(rows.Data) != 2 {
		t.Fatalf("rows = %d, want 2", len(rows.Data))
	}
	if rows.Data[0][1].S != "héllo" || !rows.Data[1][1].IsNull() {
		t.Fatalf("string/null round trip broken: %v", rows.Data)
	}
	if rows.Data[1][2].F != -0.25 {
		t.Fatalf("double round trip broken: %v", rows.Data[1][2])
	}
}

func TestServerPreparedStatements(t *testing.T) {
	_, srv := startServer(t, core.Options{}, server.Options{})
	c := dial(t, srv, client.Options{})

	if _, err := c.Exec("create table p (a int)"); err != nil {
		t.Fatal(err)
	}
	ins, err := c.Prepare("insert into p values (?)")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := ins.Exec(val.NewInt(int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	q, err := c.Prepare("select count(*) from p where a >= ?")
	if err != nil {
		t.Fatal(err)
	}
	rows, err := q.Query(val.NewInt(5))
	if err != nil {
		t.Fatal(err)
	}
	if rows.Data[0][0].I != 5 {
		t.Fatalf("count = %v, want 5", rows.Data[0][0])
	}
	if err := ins.Close(); err != nil {
		t.Fatal(err)
	}
	// A closed statement id is a protocol error and ends the connection.
	if _, err := ins.Exec(val.NewInt(99)); err == nil {
		t.Fatal("exec of closed statement succeeded")
	}
}

func TestServerAuth(t *testing.T) {
	_, srv := startServer(t, core.Options{}, server.Options{AuthToken: "sesame"})
	if _, err := client.Dial(srv.Addr().String(), client.Options{Token: "wrong"}); err == nil {
		t.Fatal("bad token accepted")
	}
	c := dial(t, srv, client.Options{Token: "sesame"})
	if _, err := c.Exec("create table a (x int)"); err != nil {
		t.Fatal(err)
	}
}

// slowQuery builds a table whose self-cross-join takes long enough to
// observe deadlines and cancels at batch boundaries.
func slowQuery(t *testing.T, c *client.Client) string {
	t.Helper()
	if _, err := c.Exec("create table big (a int)"); err != nil {
		t.Fatal(err)
	}
	ins, err := c.Prepare("insert into big values (?)")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3000; i++ {
		if _, err := ins.Exec(val.NewInt(int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	return "select count(*) from big x, big y where x.a + y.a < 0"
}

func TestServerStatementDeadline(t *testing.T) {
	_, srv := startServer(t, core.Options{}, server.Options{})
	c := dial(t, srv, client.Options{})
	q := slowQuery(t, c)

	start := time.Now()
	_, err := c.ExecDeadline(q, 30*time.Millisecond)
	if !errors.Is(err, client.ErrCancelled) {
		t.Fatalf("err = %v, want ErrCancelled", err)
	}
	if el := time.Since(start); el > 5*time.Second {
		t.Fatalf("deadline took %v to fire", el)
	}
	// The connection survives a deadline: the next statement runs.
	if _, err := c.Query("select count(*) from big"); err != nil {
		t.Fatal(err)
	}
}

func TestServerConnectionDefaultDeadline(t *testing.T) {
	_, srv := startServer(t, core.Options{}, server.Options{})
	setup := dial(t, srv, client.Options{})
	q := slowQuery(t, setup)

	c := dial(t, srv, client.Options{StatementDeadline: 30 * time.Millisecond})
	if _, err := c.Exec(q); !errors.Is(err, client.ErrCancelled) {
		t.Fatalf("err = %v, want ErrCancelled", err)
	}
}

func TestServerCancel(t *testing.T) {
	_, srv := startServer(t, core.Options{}, server.Options{})
	c := dial(t, srv, client.Options{})
	q := slowQuery(t, c)

	done := make(chan error, 1)
	go func() {
		_, err := c.Exec(q)
		done <- err
	}()
	time.Sleep(50 * time.Millisecond) // let the statement get in flight
	if err := c.Cancel(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if !errors.Is(err, client.ErrCancelled) {
			t.Fatalf("err = %v, want ErrCancelled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("cancel did not interrupt the statement")
	}
	// Connection still usable.
	if _, err := c.Query("select count(*) from big"); err != nil {
		t.Fatal(err)
	}
}

func TestServerSysConnections(t *testing.T) {
	db, srv := startServer(t, core.Options{}, server.Options{})
	c := dial(t, srv, client.Options{Name: "observer"})
	if _, err := c.Exec("create table t (a int)"); err != nil {
		t.Fatal(err)
	}

	// Over the wire: the querying connection sees itself.
	rows, err := c.Query("select id, remote_addr, state, statements, fingerprint from sys.connections")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows.Data) != 1 {
		t.Fatalf("sys.connections rows = %d, want 1", len(rows.Data))
	}
	r := rows.Data[0]
	if r[0].I != int64(c.ConnID()) {
		t.Fatalf("id = %v, want %d", r[0], c.ConnID())
	}
	if r[2].S != "active" { // it is running this very statement
		t.Fatalf("state = %q, want active", r[2].S)
	}
	if r[3].I < 1 {
		t.Fatalf("statements = %v, want >= 1", r[3])
	}

	// Embedded view of the same table.
	conn, err := db.Connect()
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	erows, err := conn.Query("select id from sys.connections")
	if err != nil {
		t.Fatal(err)
	}
	if erows.Count() != 1 {
		t.Fatalf("embedded sys.connections rows = %d, want 1", erows.Count())
	}
}

func TestEmbeddedSysConnectionsEmpty(t *testing.T) {
	db, err := core.Open(core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	conn, err := db.Connect()
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	rows, err := conn.Query("select id from sys.connections")
	if err != nil {
		t.Fatal(err)
	}
	if rows.Count() != 0 {
		t.Fatalf("rows = %d, want 0 without a server", rows.Count())
	}
}

func TestServerTransactionsOverWire(t *testing.T) {
	_, srv := startServer(t, core.Options{}, server.Options{})
	c := dial(t, srv, client.Options{})
	mustExec(t, c, "create table acct (id int, bal int)")
	mustExec(t, c, "insert into acct values (1, 100)")
	mustExec(t, c, "insert into acct values (2, 100)")

	mustExec(t, c, "begin")
	mustExec(t, c, "update acct set bal = bal - 10 where id = 1")
	mustExec(t, c, "update acct set bal = bal + 10 where id = 2")
	mustExec(t, c, "commit")

	mustExec(t, c, "begin")
	mustExec(t, c, "update acct set bal = 0 where id = 1")
	mustExec(t, c, "rollback")

	rows, err := c.Query("select sum(bal) from acct")
	if err != nil {
		t.Fatal(err)
	}
	if rows.Data[0][0].I != 200 {
		t.Fatalf("sum = %v, want 200", rows.Data[0][0])
	}
	rows, err = c.Query("select bal from acct where id = 1")
	if err != nil {
		t.Fatal(err)
	}
	if rows.Data[0][0].I != 90 {
		t.Fatalf("bal = %v, want 90 (rollback lost)", rows.Data[0][0])
	}
}

func mustExec(t *testing.T, c *client.Client, sql string) {
	t.Helper()
	if _, err := c.Exec(sql); err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
}

func TestServerDrain(t *testing.T) {
	db, srv := startServer(t, core.Options{}, server.Options{DrainTimeout: 30 * time.Second})
	c := dial(t, srv, client.Options{})
	q := slowQuery(t, c)
	mustExec(t, c, "create table t (a int)")
	mustExec(t, c, "insert into t values (1)")

	// An in-flight statement started before drain must complete and be
	// acknowledged. Use the slow query and wait (via the embedded view of
	// sys.connections) until that statement, not just any, is executing.
	slowC := dial(t, srv, client.Options{})
	inflight := make(chan error, 1)
	go func() {
		_, err := slowC.Exec(q)
		inflight <- err
	}()
	econn, err := db.Connect()
	if err != nil {
		t.Fatal(err)
	}
	defer econn.Close()
	for start := time.Now(); ; {
		rows, err := econn.Query("select fingerprint from sys.connections where state = 'active'")
		if err != nil {
			t.Fatal(err)
		}
		running := false
		for _, r := range rows.All() {
			running = running || r[0].S == db.Prepare(q).Fingerprint
		}
		if running {
			break
		}
		if time.Since(start) > 10*time.Second {
			t.Fatal("slow statement never became active")
		}
		time.Sleep(2 * time.Millisecond)
	}

	shut := make(chan error, 1)
	go func() { shut <- srv.Shutdown(context.Background()) }()

	// New statements during drain get a clean retryable refusal (the
	// connection may instead be torn down once drain finishes — both are
	// acceptable; a hang or torn result is not).
	deadline := time.After(15 * time.Second)
	for {
		_, err := c.Exec("insert into t values (3)")
		if err == nil {
			continue // raced ahead of the drain flag; try again
		}
		if errors.Is(err, client.ErrRetryable) {
			break
		}
		// Connection closed by completed drain: also fine.
		break
	}

	// The statement was in flight before drain began and the drain
	// deadline is generous: it must complete and be acknowledged.
	if err := <-inflight; err != nil {
		t.Fatalf("in-flight statement: %v", err)
	}
	select {
	case err := <-shut:
		if err != nil {
			t.Fatalf("shutdown: %v", err)
		}
	case <-deadline:
		t.Fatal("drain did not complete")
	}

	// Drained server refuses new connections.
	if _, err := client.Dial(srv.Addr().String(), client.Options{DialTimeout: time.Second}); err == nil {
		t.Fatal("dial succeeded after drain")
	}
	if db.Closed() {
		t.Fatal("drain closed the database; it should only checkpoint")
	}
	if db.Telemetry() != nil {
		if v, ok := db.Telemetry().Value("server.drains"); !ok || v != 1 {
			t.Fatalf("server.drains = %d, %v", v, ok)
		}
	}
}

// TestServerSlowClientDisconnect verifies the bounded send path: a client
// that stops draining its socket while a large result streams is
// disconnected once the write deadline expires, rather than wedging the
// server.
func TestServerSlowClientDisconnect(t *testing.T) {
	db, srv := startServer(t, core.Options{}, server.Options{
		SendTimeout: 200 * time.Millisecond,
		BufSize:     4 << 10,
	})
	c := dial(t, srv, client.Options{})
	mustExec(t, c, "create table blob (s string)")
	ins, err := c.Prepare("insert into blob values (?)")
	if err != nil {
		t.Fatal(err)
	}
	wide := make([]byte, 1024)
	for i := range wide {
		wide[i] = 'x'
	}
	for i := 0; i < 4096; i++ { // ~4 MB of result data
		if _, err := ins.Exec(val.NewStr(string(wide))); err != nil {
			t.Fatal(err)
		}
	}

	// A raw client that sends the query and then never reads.
	lazy, err := client.Dial(srv.Addr().String(), client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer lazy.Close()
	if err := lazy.SendExecRaw("select s from blob"); err != nil {
		t.Fatal(err)
	}

	deadline := time.Now().Add(20 * time.Second)
	for {
		if v, _ := db.Telemetry().Value("server.slow_disconnects"); v >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("server never disconnected the slow client")
		}
		time.Sleep(20 * time.Millisecond)
	}
	// The healthy connection keeps working.
	if _, err := c.Query("select count(*) from blob"); err != nil {
		t.Fatal(err)
	}
}

// TestServerAdmissionShedsUnderOverload drives far more concurrent
// statements than the gate's width against a deliberately tiny queue
// window and checks that sheds surface as clean retryable errors while
// every admitted statement completes correctly.
func TestServerAdmissionShedsUnderOverload(t *testing.T) {
	db, srv := startServer(t, core.Options{MPL: 2}, server.Options{})
	setup := dial(t, srv, client.Options{})
	q := slowQuery(t, setup) // several-hundred-ms statement

	const clients = 24
	var wg sync.WaitGroup
	var ok, retryable, other int64
	var mu sync.Mutex
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := client.Dial(srv.Addr().String(), client.Options{})
			if err != nil {
				return
			}
			defer c.Close()
			_, err = c.Exec(q)
			mu.Lock()
			defer mu.Unlock()
			switch {
			case err == nil:
				ok++
			case errors.Is(err, client.ErrRetryable):
				retryable++
			default:
				other++
			}
		}()
	}
	wg.Wait()
	if other != 0 {
		t.Fatalf("%d statements failed non-retryably", other)
	}
	if ok == 0 {
		t.Fatal("no statement was admitted")
	}
	t.Logf("ok=%d retryable=%d shed_counter=%v", ok, retryable,
		counterVal(db, "server.shed"))
}

func counterVal(db *core.DB, name string) int64 {
	v, _ := db.Telemetry().Value(name)
	return v
}

func TestServerProtocolErrorsClose(t *testing.T) {
	_, srv := startServer(t, core.Options{}, server.Options{})
	c := dial(t, srv, client.Options{})
	if err := c.SendRaw(0x7f, []byte("junk")); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Exec("select 1"); err == nil {
		t.Fatal("connection survived an unknown message type")
	}
}

func TestServerRetryableErrorFormat(t *testing.T) {
	// Drain-mode refusals and admission sheds must both satisfy
	// errors.Is(err, ErrRetryable); spot-check the drain one end to end.
	_, srv := startServer(t, core.Options{}, server.Options{DrainTimeout: time.Millisecond})
	c := dial(t, srv, client.Options{})
	mustExec(t, c, "create table t (a int)")
	go srv.Shutdown(context.Background())
	for i := 0; ; i++ {
		_, err := c.Exec("insert into t values (1)")
		if err == nil {
			continue
		}
		if errors.Is(err, client.ErrRetryable) {
			return // clean retryable refusal
		}
		// Drain finished first and closed the socket; that's a clean end
		// too, but we wanted at least one refusal — only fail on weird
		// errors.
		if i == 0 {
			t.Logf("drain closed before refusing: %v", err)
		}
		return
	}
}

func TestServerManySequentialConnections(t *testing.T) {
	_, srv := startServer(t, core.Options{}, server.Options{})
	c := dial(t, srv, client.Options{})
	mustExec(t, c, "create table t (a int)")
	for i := 0; i < 50; i++ {
		cc, err := client.Dial(srv.Addr().String(), client.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := cc.Exec("insert into t values (?)", val.NewInt(int64(i))); err != nil {
			t.Fatal(err)
		}
		cc.Close()
	}
	rows, err := c.Query("select count(*) from t")
	if err != nil {
		t.Fatal(err)
	}
	if rows.Data[0][0].I != 50 {
		t.Fatalf("count = %v, want 50", rows.Data[0][0])
	}
}

// TestServerReadsStatementTextOnce: a statement prepared once and executed
// a thousand times, and the same text sent ad hoc a thousand times, are
// each read exactly once — msgPrepare and ad-hoc msgExec go through the same
// DB.Prepare — and only the first execution's span carries a parse phase.
func TestServerReadsStatementTextOnce(t *testing.T) {
	// Long enough that reading it takes whole microseconds.
	var sb strings.Builder
	sb.WriteString("select count(*) from p where a >= ? and a not in (1000")
	for i := 1001; i < 1400; i++ {
		fmt.Fprintf(&sb, ", %d", i)
	}
	sb.WriteString(")")
	text := sb.String()

	for _, arm := range []string{"prepared", "ad hoc"} {
		t.Run(arm, func(t *testing.T) {
			db, srv := startServer(t, core.Options{}, server.Options{})
			c := dial(t, srv, client.Options{})
			mustExec(t, c, "create table p (a int)")
			mustExec(t, c, "insert into p values (0), (1), (2), (3), (4), (5), (6), (7), (8), (9)")

			parses, spans := counterVal(db, "sqlparse.parses"), db.FlightRecorder().SpansRecorded()
			query := func(p val.Value) (*client.Rows, error) { return c.Query(text, p) }
			if arm == "prepared" {
				st, err := c.Prepare(text)
				if err != nil {
					t.Fatal(err)
				}
				query = func(p val.Value) (*client.Rows, error) { return st.Query(p) }
				if n := db.FlightRecorder().SpansRecorded() - spans; n != 0 {
					t.Errorf("a prepare opened %d spans", n)
				}
			}
			var firstParseUS int64
			for i := 0; i < 1000; i++ {
				rows, err := query(val.NewInt(int64(i % 10)))
				if err != nil || rows.Data[0][0].I != int64(10-i%10) {
					t.Fatalf("execution %d: %v, %v", i, rows, err)
				}
				if i == 0 {
					recent := db.FlightRecorder().Recent()
					firstParseUS = recent[len(recent)-1].PhaseUS(flightrec.PhaseParse)
				}
			}
			if n := counterVal(db, "sqlparse.parses") - parses; n != 1 {
				t.Errorf("1000 executions read the text %d times, want 1", n)
			}
			if n := db.FlightRecorder().SpansRecorded() - spans; n != 1000 {
				t.Errorf("1000 executions recorded %d spans", n)
			}
			if firstParseUS <= 0 {
				t.Errorf("the first execution's parse phase is %d us", firstParseUS)
			}
			for _, sp := range db.FlightRecorder().Recent() {
				if sp.SQL != text {
					t.Fatalf("unexpected span %q", sp.SQL)
				}
				if us := sp.PhaseUS(flightrec.PhaseParse); us != 0 {
					t.Errorf("span %d: parse phase %d us on a later execution", sp.Seq, us)
				}
			}
		})
	}
}

// TestServerPreparedHandleOutlivesEviction: a handle the server holds is
// the statement itself, not a key into the statement table, so it keeps
// running after the table has evicted its text.
func TestServerPreparedHandleOutlivesEviction(t *testing.T) {
	db, srv := startServer(t, core.Options{}, server.Options{})
	c := dial(t, srv, client.Options{})
	mustExec(t, c, "create table p (a int)")
	mustExec(t, c, "insert into p values (1), (2), (3)")
	st, err := c.Prepare("select count(*) from p where a >= ?")
	if err != nil {
		t.Fatal(err)
	}
	held := db.Prepare("select count(*) from p where a >= ?")
	for i := 0; counterVal(db, "core.stmt_cache.evictions") == 0 || db.Prepare(held.Text) == held; i++ {
		db.Prepare(fmt.Sprintf("select %d, '%s'", i, strings.Repeat("x", 4000)))
		if i > 1000 {
			t.Fatal("the statement table never evicted the prepared text")
		}
	}
	rows, err := st.Query(val.NewInt(2))
	if err != nil || rows.Data[0][0].I != 2 {
		t.Fatalf("evicted handle: %v, %v", rows, err)
	}
	// A text that does not parse prepares fine and fails when executed, with
	// the parser's error, exactly as it does ad hoc.
	bad, err := c.Prepare("select from where")
	if err != nil {
		t.Fatalf("prepare of malformed text: %v", err)
	}
	_, adhocErr := c.Query("select from where")
	if _, err := bad.Query(); err == nil || adhocErr == nil || err.Error() != adhocErr.Error() {
		t.Errorf("malformed handle: %v; ad hoc: %v", err, adhocErr)
	}
}

// TestSysConnectionsFingerprintJoinsSysStatements: sys.connections shows the
// running statement by the same fingerprint sys.statements aggregates on —
// no literal values, no multi-byte rune cut in half — so the two join.
func TestSysConnectionsFingerprintJoinsSysStatements(t *testing.T) {
	db, srv := startServer(t, core.Options{}, server.Options{})
	c := dial(t, srv, client.Options{})
	const q = "select c.fingerprint, s.calls from sys.connections c, sys.statements s " +
		"where c.fingerprint = s.fingerprint and c.state = 'active' and 'héllo wörld, ünïcode all the way past forty-eight bytes' <> 'x' and 12345 = 12345"
	var rows *client.Rows
	for i := 0; i < 2; i++ { // the first run files the digest row the second joins to
		var err error
		if rows, err = c.Query(q); err != nil {
			t.Fatal(err)
		}
	}
	if len(rows.Data) != 1 || rows.Data[0][1].I != 1 {
		t.Fatalf("join of the running statement with its own digest: %v", rows.Data)
	}
	fp := rows.Data[0][0].S
	if fp != db.Prepare(q).Fingerprint || !utf8.ValidString(fp) || strings.Contains(fp, "llo") || strings.Contains(fp, "12345") {
		t.Errorf("sys.connections.fingerprint = %q, want %q", fp, db.Prepare(q).Fingerprint)
	}
}
