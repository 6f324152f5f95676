package server_test

import (
	"bufio"
	"fmt"
	"net"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"anywheredb/internal/core"
	"anywheredb/internal/exec"
	"anywheredb/internal/server"
	"anywheredb/internal/server/client"
	"anywheredb/internal/val"
)

// countingListener hands out connections that count the server's socket
// writes.
type countingListener struct {
	net.Listener
	writes atomic.Int64
}

func (l *countingListener) Accept() (net.Conn, error) {
	nc, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &countingConn{Conn: nc, writes: &l.writes}, nil
}

type countingConn struct {
	net.Conn
	writes *atomic.Int64
}

func (c *countingConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(p)
}

// insertRows fills table tbl with n rows through one multi-row INSERT per
// 500 rows; row(i) is the VALUES tuple of row i.
func insertRows(t testing.TB, c *client.Client, tbl string, n int, row func(i int) string) {
	t.Helper()
	for lo := 0; lo < n; lo += 500 {
		var sb strings.Builder
		fmt.Fprintf(&sb, "INSERT INTO %s VALUES ", tbl)
		for i := lo; i < min(lo+500, n); i++ {
			if i > lo {
				sb.WriteString(", ")
			}
			sb.WriteString(row(i))
		}
		if _, err := c.Exec(sb.String()); err != nil {
			t.Fatal(err)
		}
	}
}

// TestOneBatchAnswerIsOneWrite: an answer leaves in one socket write per
// row batch. A one-row SELECT's header, batch and done go out together,
// and of a three-batch SELECT only the batches before the last are
// flushed on their own.
func TestOneBatchAnswerIsOneWrite(t *testing.T) {
	db, err := core.Open(core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cl := &countingListener{Listener: ln}
	srv := server.ServeOn(db, server.Options{}, cl)
	defer srv.Close()
	c := dial(t, srv, client.Options{})

	mustExec(t, c, "CREATE TABLE w (a INT)")
	rows := 2*exec.DefaultBatchSize + 1
	insertRows(t, c, "w", rows, func(i int) string { return fmt.Sprint("(", i, ")") })

	writes := func(sql string, wantRows int) int64 {
		t.Helper()
		before := cl.writes.Load()
		got, err := c.Query(sql)
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Data) != wantRows {
			t.Fatalf("%s: %d rows, want %d", sql, len(got.Data), wantRows)
		}
		return cl.writes.Load() - before
	}
	if n := writes("SELECT a FROM w WHERE a = 7", 1); n != 1 {
		t.Errorf("a one-row answer took %d socket writes, want 1", n)
	}
	if n := writes("SELECT a FROM w", rows); n != 3 {
		t.Errorf("a three-batch answer took %d socket writes, want 3", n)
	}
	before := cl.writes.Load()
	mustExec(t, c, "INSERT INTO w VALUES (-1)")
	if n := cl.writes.Load() - before; n != 1 {
		t.Errorf("a DML answer took %d socket writes, want 1", n)
	}
}

// TestRecycledFramesDoNotAlias: the client reads every frame into one
// scratch buffer, so the rows a statement returned must not share its
// storage. A result of more than one batch, with VARCHAR and DOUBLE
// values, is unchanged by the sixteen statements after it.
func TestRecycledFramesDoNotAlias(t *testing.T) {
	_, srv := startServer(t, core.Options{}, server.Options{})
	c := dial(t, srv, client.Options{})
	mustExec(t, c, "CREATE TABLE a (id INT, s VARCHAR(40), d DOUBLE)")
	mustExec(t, c, "CREATE TABLE b (id INT, s VARCHAR(40), d DOUBLE)")
	n := exec.DefaultBatchSize + 300
	insertRows(t, c, "a", n, func(i int) string { return fmt.Sprintf("(%d, 'row-%d', %d.5)", i, i, i) })
	insertRows(t, c, "b", n, func(i int) string { return fmt.Sprintf("(%d, 'other-%d', -%d.25)", i, n-i, i) })

	kept, err := c.Query("SELECT id, s, d FROM a ORDER BY id")
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 16; k++ {
		// Other strings and doubles at the same offsets, and an error.
		if _, err := c.Query("SELECT s, d * ? FROM b WHERE id >= ?", val.NewDouble(float64(k)), val.NewInt(int64(k*50))); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Query("SELECT nope FROM a"); err == nil {
			t.Fatal("query of a missing column succeeded")
		}
	}
	if len(kept.Data) != n {
		t.Fatalf("%d rows kept, want %d", len(kept.Data), n)
	}
	for i, r := range kept.Data {
		want := []val.Value{val.NewInt(int64(i)), val.NewStr(fmt.Sprintf("row-%d", i)), val.NewDouble(float64(i) + 0.5)}
		if !server.SameValues(r, want) {
			t.Fatalf("row %d is %v after later statements, want %v", i, r, want)
		}
	}
}

// TestRecycledParamsDoNotAlias: the server decodes every exec frame's
// parameters into one vector per connection. What outlives a request — the
// digest table's sample of a fingerprint's first parameters — is a copy,
// and each answer is computed from its own request's values.
func TestRecycledParamsDoNotAlias(t *testing.T) {
	db, srv := startServer(t, core.Options{}, server.Options{})
	c := dial(t, srv, client.Options{})
	mustExec(t, c, "CREATE TABLE kv (id INT, s VARCHAR(20))")
	insertRows(t, c, "kv", 10, func(i int) string { return fmt.Sprintf("(%d, 'v-%d')", i, i) })
	st, err := c.Prepare("SELECT id, s FROM kv WHERE id = ? OR s = ?")
	if err != nil {
		t.Fatal(err)
	}
	digests := db.FlightRecorder().Digests()
	digests.Reset()

	first := []val.Value{val.NewInt(3), val.NewStr("v-5")}
	second := []val.Value{val.NewInt(7), val.NewStr("v-8")}
	if _, err := st.Query(first...); err != nil {
		t.Fatal(err)
	}
	rows, err := st.Query(second...)
	if err != nil {
		t.Fatal(err)
	}
	var ids []int64
	for _, r := range rows.Data {
		ids = append(ids, r[0].I)
	}
	slices.Sort(ids)
	if !slices.Equal(ids, []int64{7, 8}) {
		t.Errorf("the second run answered ids %v, want [7 8]", ids)
	}
	ds := digests.Snapshot()
	if len(ds) != 1 || ds[0].Calls != 2 || !server.SameValues(ds[0].SampleParams, first) {
		t.Fatalf("digests after two runs: %+v; want one of 2 calls sampling %v", ds, first)
	}
}

// TestPipelinedFramesDoNotAlias: with three queues' worth of exec frames
// sent before any answer is read, the server's reader runs ahead of its
// worker over recycled receive buffers. Each frame has its own ad-hoc text
// (no literal to lift, so the statement table files the text itself) and
// a VARCHAR parameter. Every parameter must arrive intact, and a second
// pipeline of the same texts must find each one in the statement table.
func TestPipelinedFramesDoNotAlias(t *testing.T) {
	db, srv := startServer(t, core.Options{}, server.Options{})
	c := dial(t, srv, client.Options{})
	mustExec(t, c, "CREATE TABLE p (k INT, s VARCHAR(64))")

	nc, err := net.DialTimeout("tcp", srv.Addr().String(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	nc.SetDeadline(time.Now().Add(30 * time.Second))
	br := bufio.NewReader(nc)
	if err := server.WriteFrame(nc, server.MsgHello, server.EncodeHello("", "pipeline", 0)); err != nil {
		t.Fatal(err)
	}
	if typ, _, err := server.ReadFrame(br); err != nil || typ != server.MsgHelloOK {
		t.Fatalf("hello: 0x%02x %v", typ, err)
	}

	const frames = 48
	param := func(k int) string { return strings.Repeat(string(rune('a'+k%26)), 1+k%frames) }
	pipeline := func(round int) {
		t.Helper()
		bw := bufio.NewWriter(nc)
		for i := 0; i < frames; i++ {
			sql := "INSERT INTO p VALUES (?," + strings.Repeat(" ", 1+i) + "?)"
			k := round*frames + i
			params := []val.Value{val.NewInt(int64(k)), val.NewStr(param(k))}
			if err := server.WriteFrame(bw, server.MsgExec, server.EncodeExec(0, sql, 0, params)); err != nil {
				t.Fatal(err)
			}
		}
		if err := bw.Flush(); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < frames; i++ {
			typ, payload, err := server.ReadFrame(br)
			if err != nil {
				t.Fatal(err)
			}
			if typ != server.MsgDone {
				_, msg, _ := server.DecodeError(payload)
				t.Fatalf("answer %d: frame 0x%02x %s", i, typ, msg)
			}
		}
	}
	pipeline(0)
	parses := counterVal(db, "sqlparse.parses")
	pipeline(1)
	if d := counterVal(db, "sqlparse.parses") - parses; d != 0 {
		t.Errorf("the second pipeline of the same texts parsed %d of them again", d)
	}

	got, err := c.Query("SELECT k, s FROM p ORDER BY k")
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Data) != 2*frames {
		t.Fatalf("%d rows, want %d", len(got.Data), 2*frames)
	}
	for k, r := range got.Data {
		if want := []val.Value{val.NewInt(int64(k)), val.NewStr(param(k))}; !server.SameValues(r, want) {
			t.Errorf("row %d is %v, want %v", k, r, want)
		}
	}
}

// pointLookupRig serves a 1 000-row table with a unique index and returns
// the database and a prepared point lookup on it, warmed up.
func pointLookupRig(t testing.TB) (*core.DB, func(i int)) {
	db, srv := startServer(t, core.Options{}, server.Options{})
	c := dial(t, srv, client.Options{})
	mustExec(t, c, "CREATE TABLE kv (id INT, v INT)")
	mustExec(t, c, "CREATE UNIQUE INDEX kv_id ON kv (id)")
	insertRows(t, c, "kv", 1000, func(i int) string { return fmt.Sprintf("(%d, %d)", i, 2*i) })
	st, err := c.Prepare("SELECT v FROM kv WHERE id = ?")
	if err != nil {
		t.Fatal(err)
	}
	lookup := func(i int) {
		k := int64(i % 1000)
		rows, err := st.Query(val.NewInt(k))
		if err != nil {
			t.Fatal(err)
		}
		if len(rows.Data) != 1 || rows.Data[0][0] != val.NewInt(2*k) {
			t.Fatalf("id %d: %v", k, rows.Data)
		}
	}
	for i := 0; i < 32; i++ {
		lookup(i)
	}
	return db, lookup
}

// TestPreparedRoundTripAllocationCeiling: a prepared point lookup's round
// trip, client and server together, allocates little beyond its answer
// and the engine's own work: every execution but a scheduled verification
// runs the plan the server connection kept. The ceiling is 1.1× the 11
// objects measured on linux/amd64 (go1.24).
func TestPreparedRoundTripAllocationCeiling(t *testing.T) {
	db, lookup := pointLookupRig(t)
	retained, verified := counterVal(db, "opt.plancache.retained"), counterVal(db, "opt.plancache.verifications")
	i := 0
	got := testing.AllocsPerRun(2000, func() {
		lookup(i)
		i++
	})
	t.Logf("objects per prepared round trip: %.1f", got)
	const ceiling = 11 * 1.1
	if got > ceiling {
		t.Errorf("a prepared round trip allocates %.1f objects, ceiling %.1f", got, ceiling)
	}
	dr, dv := counterVal(db, "opt.plancache.retained")-retained, counterVal(db, "opt.plancache.verifications")-verified
	if dr+dv != int64(i) {
		t.Errorf("%d round trips, %d of them verifications, %d served by a kept plan", i, dv, dr)
	}
}

// BenchmarkPreparedRoundTrip puts a prepared point lookup over loopback,
// client and server in one process, in every commit's CI log: -benchmem
// prints what a round trip allocates.
func BenchmarkPreparedRoundTrip(b *testing.B) {
	_, lookup := pointLookupRig(b)
	b.ReportAllocs()
	for i := 0; b.Loop(); i++ {
		lookup(i)
	}
}
