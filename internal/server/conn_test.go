package server_test

import (
	"bufio"
	"context"
	"errors"
	"io"
	"net"
	"runtime"
	"strings"
	"testing"
	"time"

	"anywheredb/internal/core"
	"anywheredb/internal/server"
	"anywheredb/internal/server/client"
	"anywheredb/internal/val"
)

// waitActive returns once a connection is running sql, by the embedded view
// of sys.connections.
func waitActive(t *testing.T, db *core.DB, sql string) {
	t.Helper()
	econn, err := db.Connect()
	if err != nil {
		t.Fatal(err)
	}
	defer econn.Close()
	fp := db.Prepare(sql).Fingerprint
	for start := time.Now(); ; time.Sleep(2 * time.Millisecond) {
		rows, err := econn.Query("select fingerprint from sys.connections where state = 'active'")
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range rows.All() {
			if r[0].S == fp {
				return
			}
		}
		if time.Since(start) > 10*time.Second {
			t.Fatalf("%q never became active", sql)
		}
	}
}

// TestOneGoroutinePerConnection: a connection is served by one goroutine.
// Eight idle connections, each past a statement, raise the goroutine count
// by eight, and closing them brings it back.
func TestOneGoroutinePerConnection(t *testing.T) {
	_, srv := startServer(t, core.Options{}, server.Options{})
	if _, err := dialRaw(t, srv).exec("select 1", 0); err != nil {
		t.Fatal(err)
	}
	settle := func(want int) int {
		got := runtime.NumGoroutine()
		for start := time.Now(); got != want && time.Since(start) < 5*time.Second; got = runtime.NumGoroutine() {
			time.Sleep(5 * time.Millisecond)
		}
		return got
	}
	base := runtime.NumGoroutine()

	const n = 8
	conns := make([]*rawConn, n)
	for i := range conns {
		conns[i] = dialRaw(t, srv)
		if _, err := conns[i].exec("select 1", 0); err != nil {
			t.Fatal(err)
		}
	}
	if got := settle(base + n); got != base+n {
		t.Fatalf("%d idle connections run %d goroutines, want %d", n, got-base, n)
	}
	for _, r := range conns {
		r.nc.Close()
	}
	if got := settle(base); got != base {
		t.Fatalf("%d goroutines outlive their closed connections", got-base)
	}
}

// TestPipelineThenDrainAnswersEveryFrame: a client pipelines a slow query
// and 47 inserts, and the server drains while the query runs. The query is
// answered, then every insert gets its answer or its "draining" refusal,
// each one whole, and the connection ends at a frame boundary.
func TestPipelineThenDrainAnswersEveryFrame(t *testing.T) {
	db, srv := startServer(t, core.Options{}, server.Options{DrainTimeout: 30 * time.Second})
	setup := dial(t, srv, client.Options{})
	q := slowQuery(t, setup)
	mustExec(t, setup, "create table t (a int)")

	const frames = 48
	r := dialRaw(t, srv)
	bw := bufio.NewWriter(r.nc)
	if err := server.WriteFrame(bw, server.MsgExec, server.EncodeExec(0, q, 0, nil)); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < frames; i++ {
		if err := server.WriteFrame(bw, server.MsgExec, server.EncodeExec(0, "insert into t values (?)", 0, []val.Value{val.NewInt(int64(i))})); err != nil {
			t.Fatal(err)
		}
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	waitActive(t, db, q)
	shut := make(chan error, 1)
	go func() { shut <- srv.Shutdown(context.Background()) }()

	r.nc.SetReadDeadline(time.Now().Add(60 * time.Second))
	answers, done, refused := 0, 0, 0
	for {
		typ, payload, err := server.ReadFrame(r.br)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("after %d answers: %v", answers, err)
		}
		switch typ {
		case server.MsgRowHeader, server.MsgRowBatch:
			if answers > 0 {
				t.Fatalf("answer %d: rows for an insert", answers)
			}
		case server.MsgDone:
			if refused > 0 {
				t.Fatalf("answer %d: done after a refusal", answers)
			}
			answers++
			done++
		case server.MsgError:
			code, msg, err := server.DecodeError(payload)
			if err != nil || code != server.CodeRetry || !strings.Contains(msg, "draining") {
				t.Fatalf("answer %d: status %d %q, %v; want a draining refusal", answers, code, msg, err)
			}
			answers++
			refused++
		default:
			t.Fatalf("answer %d: frame 0x%02x", answers, typ)
		}
	}
	if answers != frames || done == 0 {
		t.Fatalf("%d frames got %d answers, %d of them done; want every frame answered, the query first", frames, answers, done)
	}
	if err := <-shut; err != nil {
		t.Fatal(err)
	}
	econn, err := db.Connect()
	if err != nil {
		t.Fatal(err)
	}
	defer econn.Close()
	rows, err := econn.Query("select count(*) from t")
	if err != nil || rows.All()[0][0].I != int64(done-1) {
		t.Fatalf("count = %v, %v; want the %d inserts answered done", rows.All(), err, done-1)
	}
}

// sendCancelRequest sends payload as a cancel request and returns what the
// server sent back before it closed the connection.
func sendCancelRequest(t *testing.T, srv *server.Server, payload []byte) []byte {
	t.Helper()
	nc, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	if err := server.WriteFrame(nc, server.MsgCancel, payload); err != nil {
		t.Fatal(err)
	}
	nc.SetReadDeadline(time.Now().Add(10 * time.Second))
	got, err := io.ReadAll(nc)
	if err != nil {
		t.Fatalf("the cancel connection was not closed: %v", err)
	}
	return got
}

// TestFailedCancelRequestCancelsNothing: a cancel request with a wrong
// secret, an unknown id, a stale statement number or a truncated payload
// gets no answer and a closed socket, is never a connection of
// sys.connections or server.conns_total, and cancels nothing. After a
// hello, the same frame is a protocol error. The statement they all aim
// at finishes normally.
func TestFailedCancelRequestCancelsNothing(t *testing.T) {
	g := newRowWaitRig(t)
	for range 2 { // statements 1 and 2: the parked one is 3
		if _, err := g.r.exec("select v from kv where id = 2", 0); err != nil {
			t.Fatal(err)
		}
	}
	done := g.park(0)
	n := g.r.execs.Load()
	wrong := g.r.secret
	wrong[0] ^= 1
	valid := server.AppendCancel(nil, g.r.id, g.r.secret, n)
	econn, err := g.db.Connect()
	if err != nil {
		t.Fatal(err)
	}
	defer econn.Close()
	conns := counterVal(g.db, "server.conns_total")
	stillParked := func(after string) {
		t.Helper()
		select {
		case err := <-done:
			t.Fatalf("after %s the parked statement ended: %v", after, err)
		case <-time.After(20 * time.Millisecond):
		}
	}

	for _, c := range []struct {
		name    string
		payload []byte
	}{
		{"a wrong secret", server.AppendCancel(nil, g.r.id, wrong, n)},
		{"an unknown id", server.AppendCancel(nil, g.r.id+1000, g.r.secret, n)},
		{"a stale number", server.AppendCancel(nil, g.r.id, g.r.secret, n-1)},
		{"a truncated payload", valid[:len(valid)-1]},
	} {
		if got := sendCancelRequest(t, g.srv, c.payload); len(got) != 0 {
			t.Errorf("a cancel request with %s was answered %x", c.name, got)
		}
		rows, err := econn.Query("select count(*) from sys.connections")
		if err != nil || rows.All()[0][0].I != 2 {
			t.Fatalf("sys.connections after a cancel request with %s: %v, %v; want the 2 clients", c.name, rows.All(), err)
		}
		if d := counterVal(g.db, "server.conns_total") - conns; d != 0 {
			t.Fatalf("a cancel request with %s moved server.conns_total by %d", c.name, d)
		}
		stillParked("a cancel request with " + c.name)
	}

	late := dialRaw(t, g.srv)
	if err := late.send(server.MsgCancel, valid); err != nil {
		t.Fatal(err)
	}
	typ, payload, err := server.ReadFrame(late.br)
	if code, _, _ := server.DecodeError(payload); err != nil || typ != server.MsgError || code != server.CodeProtocol {
		t.Fatalf("a cancel request after a hello: frame 0x%02x status %d, %v; want a protocol error", typ, code, err)
	}
	if _, _, err := server.ReadFrame(late.br); err != io.EOF {
		t.Fatalf("after the protocol error: %v, want the connection closed", err)
	}
	stillParked("a cancel request after a hello")

	mustExec(t, g.holder, "commit")
	if err := <-done; err != nil {
		t.Fatalf("the statement the failed cancel requests aimed at: %v", err)
	}
}

// TestClientCancel: Client.Cancel, called while another goroutine waits in
// Query, ends the statement with ErrCancelled. Called while idle it cancels
// nothing, neither then nor when the next statement runs, and that
// statement runs to its end.
func TestClientCancel(t *testing.T) {
	db, srv := startServer(t, core.Options{}, server.Options{})
	c := dial(t, srv, client.Options{})
	q := slowQuery(t, c)

	done := make(chan error, 1)
	go func() {
		_, err := c.Query(q)
		done <- err
	}()
	waitActive(t, db, q)
	if err := c.Cancel(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if !errors.Is(err, client.ErrCancelled) {
			t.Fatalf("err = %v, want ErrCancelled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Cancel did not end the query")
	}

	if err := c.Cancel(); err != nil { // idle
		t.Fatal(err)
	}
	rows, err := c.Query(q)
	if err != nil || len(rows.Data) != 1 || rows.Data[0][0].I != 0 {
		t.Fatalf("the query after an idle cancel: %v, %v", rows, err)
	}
}
