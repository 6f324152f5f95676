package main

import (
	"errors"
	"fmt"
	"syscall"
	"testing"
	"time"

	"anywheredb/internal/core"
	"anywheredb/internal/server"
	"anywheredb/internal/server/client"
	"anywheredb/internal/val"
)

func TestQueryWithRetryRecoversFromShedding(t *testing.T) {
	calls := 0
	q := func(sql string, _ ...val.Value) (*client.Rows, error) {
		calls++
		if calls < 3 {
			return nil, fmt.Errorf("server shed: %w", client.ErrRetryable)
		}
		return &client.Rows{Cols: []string{"k"}}, nil
	}
	rows, err := queryWithRetry(q, "SELECT 1", 5, time.Microsecond, nil)
	if err != nil || rows == nil {
		t.Fatalf("retry did not recover: rows=%v err=%v", rows, err)
	}
	if calls != 3 {
		t.Fatalf("calls = %d, want 3 (two sheds, one success)", calls)
	}
}

func TestQueryWithRetryGivesUpAfterBudget(t *testing.T) {
	calls := 0
	q := func(sql string, _ ...val.Value) (*client.Rows, error) {
		calls++
		return nil, fmt.Errorf("server shed: %w", client.ErrRetryable)
	}
	_, err := queryWithRetry(q, "SELECT 1", 2, time.Microsecond, nil)
	if !errors.Is(err, client.ErrRetryable) {
		t.Fatalf("want ErrRetryable after budget, got %v", err)
	}
	if calls != 3 {
		t.Fatalf("calls = %d, want 3 (initial + 2 retries)", calls)
	}
}

func TestQueryWithRetryPassesHardErrorsThrough(t *testing.T) {
	calls := 0
	hard := errors.New("syntax error")
	q := func(sql string, _ ...val.Value) (*client.Rows, error) {
		calls++
		return nil, hard
	}
	if _, err := queryWithRetry(q, "SELEC", 5, time.Microsecond, nil); !errors.Is(err, hard) {
		t.Fatalf("want hard error through unretried, got %v", err)
	}
	if calls != 1 {
		t.Fatalf("calls = %d, want 1 (hard errors never retry)", calls)
	}
}

// TestInterruptCancelsTheRunningStatement: SIGINT while a statement runs
// cancels it, and the connection runs the next one.
func TestInterruptCancelsTheRunningStatement(t *testing.T) {
	db, err := core.Open(core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	srv, err := server.Start(db, server.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := client.Dial(srv.Addr().String(), client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Exec("create table big (a int)"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3000; i += 500 {
		sql := "insert into big values (0)"
		for j := 1; j < 500; j++ {
			sql += fmt.Sprintf(", (%d)", i+j)
		}
		if _, err := c.Exec(sql); err != nil {
			t.Fatal(err)
		}
	}
	const slow = "select count(*) from big x, big y where x.a + y.a < 0"

	stop := cancelOnInterrupt(c)
	done := make(chan error, 1)
	go func() {
		_, err := c.Query(slow)
		done <- err
	}()
	econn, err := db.Connect()
	if err != nil {
		t.Fatal(err)
	}
	defer econn.Close()
	for start := time.Now(); ; time.Sleep(2 * time.Millisecond) {
		rows, err := econn.Query("select count(*) from sys.connections where state = 'active'")
		if err != nil {
			t.Fatal(err)
		}
		if rows.All()[0][0].I > 0 {
			break
		}
		if time.Since(start) > 10*time.Second {
			t.Fatal("the slow statement never became active")
		}
	}
	if err := syscall.Kill(syscall.Getpid(), syscall.SIGINT); err != nil {
		t.Fatal(err)
	}
	select {
	case err = <-done:
	case <-time.After(10 * time.Second):
		err = errors.New("still running")
	}
	stop()
	if !errors.Is(err, client.ErrCancelled) {
		t.Fatalf("SIGINT during a statement: %v, want ErrCancelled", err)
	}
	if rows, err := c.Query("select count(*) from big"); err != nil || rows.Data[0][0].I != 3000 {
		t.Fatalf("the statement after: %v, %v", rows, err)
	}
}
