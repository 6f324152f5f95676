package server

import (
	"bufio"
	"context"
	"net"
	"testing"
	"time"

	"anywheredb/internal/core"
)

// TestLateCancelCannotReachTheNextStatement: statements on a connection
// share one context until a cancel fires on it. A cancel aimed at statement
// A — read by the connection's reader while A was in flight — is still
// being delivered when A ends and B begins on the same connection. It must
// land on A, and B must run on a context it cannot reach.
func TestLateCancelCannotReachTheNextStatement(t *testing.T) {
	c := &srvConn{}
	c.ctx, c.stop = context.WithCancel(context.Background())
	defer func() { c.stop() }()

	ctxA, child := c.beginStatement(0)
	// Hold the cancel in the middle of its delivery to A.
	delivering, deliver := make(chan struct{}), make(chan struct{})
	c.curMu.Lock()
	cancelA := c.cancel
	c.cancel = func() {
		close(delivering)
		<-deliver
		cancelA()
	}
	c.curMu.Unlock()
	delivered := make(chan struct{})
	go func() {
		c.cancelCurrent()
		close(delivered)
	}()
	<-delivering

	began := make(chan context.Context, 1)
	go func() {
		c.endStatement(child)
		ctxB, _ := c.beginStatement(0)
		began <- ctxB
	}()
	// Give A's end and B's beginning every chance to run ahead of the
	// cancel; the cancel holds them off until it has landed.
	var ctxB context.Context
	select {
	case ctxB = <-began:
	case <-time.After(50 * time.Millisecond):
	}
	close(deliver)
	<-delivered
	if ctxB == nil {
		ctxB = <-began
	}
	defer c.endStatement(nil)
	if ctxA.Err() == nil {
		t.Fatal("the cancel did not reach statement A")
	}
	if err := ctxB.Err(); err != nil {
		t.Fatalf("a cancel aimed at statement A reached statement B: %v", err)
	}
}

// TestStatementContextIsReused: a connection's statements run on one
// context until a cancel fires on it, and a deadline is a child that ends
// with its statement.
func TestStatementContextIsReused(t *testing.T) {
	c := &srvConn{}
	c.ctx, c.stop = context.WithCancel(context.Background())
	defer func() { c.stop() }()

	run := func(deadline time.Duration) context.Context {
		ctx, child := c.beginStatement(deadline)
		c.endStatement(child)
		return ctx
	}
	first := run(0)
	if again := run(0); again != first {
		t.Fatal("a statement after an uncancelled one got a new context")
	}
	timed := run(time.Hour)
	if timed == first || timed.Err() == nil {
		t.Fatalf("a statement's deadline context: %v, want a child stopped at its end", timed.Err())
	}
	if first.Err() != nil || run(0) != first {
		t.Fatal("a statement's deadline ended the connection's context")
	}

	ctx, child := c.beginStatement(0)
	c.cancelCurrent()
	c.endStatement(child)
	if ctx.Err() == nil {
		t.Fatal("cancelCurrent did not cancel the statement in flight")
	}
	if next := run(0); next == ctx || next.Err() != nil {
		t.Fatal("the statement after a cancelled one did not get a fresh context")
	}
	c.cancelCurrent() // idle: nothing to cancel
	if next := run(0); next.Err() != nil {
		t.Fatal("a cancel between statements reached the next one")
	}
}

// discardConn is a connection whose writes all succeed and go nowhere.
type discardConn struct{ net.Conn }

func (discardConn) Write(b []byte) (int, error)      { return len(b), nil }
func (discardConn) SetWriteDeadline(time.Time) error { return nil }

// TestCancelAfterTheAnswerKeepsTheContext: a cancel the client sends once
// it holds a statement's answer finds nothing to cancel, and the next
// statement runs on the connection's context as it was — no renewal.
func TestCancelAfterTheAnswerKeepsTheContext(t *testing.T) {
	db, err := core.Open(core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	c := &srvConn{s: &Server{db: db}, nc: discardConn{}, bw: bufio.NewWriter(discardConn{})}
	c.ctx, c.stop = context.WithCancel(context.Background())
	defer func() { c.stop() }()
	first := c.ctx

	for _, deadline := range []time.Duration{0, time.Hour} {
		ctx, child := c.beginStatement(deadline)
		if err := c.finish(); err != nil { // the answer's last frame
			t.Fatal(err)
		}
		c.cancelCurrent() // the client holds the answer, and cancels
		if ctx.Err() != nil {
			t.Fatalf("deadline %v: a cancel sent after the answer reached the statement", deadline)
		}
		c.endStatement(child)
	}
	next, child := c.beginStatement(0)
	c.endStatement(child)
	if next != first || next.Err() != nil {
		t.Fatal("the statement after a cancel sent after an answer got a renewed context")
	}
}
