package table

import (
	"context"
	"errors"
	"testing"
	"time"

	"anywheredb/internal/buffer"
	"anywheredb/internal/lock"
	"anywheredb/internal/store"
	"anywheredb/internal/txn"
	"anywheredb/internal/val"
	"anywheredb/internal/wal"
)

// claimSide is a table whose transactions lock through a lock manager, as a
// multi-user database's do, with the log they append to.
type claimSide struct {
	tbl *Table
	tm  *txn.Manager
	log *wal.Log
}

func newClaimSide(t *testing.T) claimSide {
	t.Helper()
	st, err := store.Open(store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	pool := buffer.New(st, 8, 256, 512)
	locks := lock.NewManager()
	log, _ := wal.Open("")
	tbl, err := Create(pool, st, store.MainFile, 100, "emp", []Column{
		{Name: "id", Kind: val.KInt},
		{Name: "name", Kind: val.KStr},
		{Name: "salary", Kind: val.KDouble},
	})
	if err != nil {
		t.Fatal(err)
	}
	return claimSide{tbl: tbl, tm: txn.NewManager(log, locks), log: log}
}

// briefly runs write as a statement of tx whose context ends after 20 ms:
// a wait for a row that stays held ends there.
func briefly(tx *txn.Txn, write func() error) error {
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	tx.SetStatement(ctx, nil)
	defer tx.SetStatement(nil, nil)
	return write()
}

// raise is an UPDATE's compute: the salary one higher.
func raise(r []val.Value) ([]val.Value, error) {
	return row(r[0].I, r[1].S, r[2].F+1), nil
}

// salary reads the committed salary of the row at rid.
func (s claimSide) salary(t *testing.T, rid RID) float64 {
	t.Helper()
	r, err := getRow(s.tbl, rid)
	if err != nil {
		t.Fatal(err)
	}
	return r[2].F
}

// TestStaleWriteChangesNothing: lockRow reads a row; a second transaction
// updates it, commits and is reclaimed, so the row's version chain is as
// empty as it was at the read and only the cell's bytes tell. The first
// writer's update and delete of what it read must both be refused with
// errStale, leaving the cell as the second writer left it and appending
// nothing to the log. UpdateChecked, which reads the row again, then
// applies both increments.
func TestStaleWriteChangesNothing(t *testing.T) {
	s := newClaimSide(t)
	load := s.tm.Begin()
	rid, err := s.tbl.Insert(load, row(1, "a", 100))
	if err != nil {
		t.Fatal(err)
	}
	load.Commit()

	t1 := s.tm.Begin()
	f, old, err := s.tbl.lockRow(t1, rid)
	if err != nil {
		t.Fatal(err)
	}
	t2 := s.tm.Begin()
	if _, _, err := s.tbl.UpdateChecked(t2, rid, nil, raise); err != nil {
		t.Fatal(err)
	}
	if err := t2.Commit(); err != nil {
		t.Fatal(err)
	}
	if !s.tbl.VersionsEmpty() {
		t.Fatal("the committed update's chain was not reclaimed; test proves nothing")
	}
	end := s.log.PendingLSN()
	newRow, _ := raise(old)
	if _, err := s.tbl.updateLocked(t1, rid, f, old, newRow); !errors.Is(err, errStale) {
		t.Errorf("update of the stale row: %v, want errStale", err)
	}
	if err := s.tbl.deleteLocked(t1, rid, f, old); !errors.Is(err, errStale) {
		t.Errorf("delete of the stale row: %v, want errStale", err)
	}
	s.tbl.pool.Unpin(f, false)
	if got := s.log.PendingLSN(); got != end {
		t.Errorf("the refused writes appended %d log bytes", got-end)
	}
	if got := s.salary(t, rid); got != 101 {
		t.Errorf("salary %v after the refused writes, want the committed 101", got)
	}

	if _, ok, err := s.tbl.UpdateChecked(t1, rid, nil, raise); err != nil || !ok {
		t.Fatalf("UpdateChecked: %v %v", ok, err)
	}
	if err := t1.Commit(); err != nil {
		t.Fatal(err)
	}
	if got := s.salary(t, rid); got != 102 {
		t.Errorf("salary %v, want both increments: 102", got)
	}
}

// TestStaleComputeRunsAgain: the same race inside UpdateChecked and
// DeleteChecked. Another transaction commits its increment after check and
// compute have seen the row, before the write; both run again on the fresh
// row, so the UPDATE keeps the other increment and the DELETE judges the row
// as it is when it goes.
func TestStaleComputeRunsAgain(t *testing.T) {
	s := newClaimSide(t)
	load := s.tm.Begin()
	rid, err := s.tbl.Insert(load, row(1, "a", 100))
	if err != nil {
		t.Fatal(err)
	}
	load.Commit()
	interfere := func() {
		t2 := s.tm.Begin()
		if _, _, err := s.tbl.UpdateChecked(t2, rid, nil, raise); err != nil {
			t.Fatal(err)
		}
		if err := t2.Commit(); err != nil {
			t.Fatal(err)
		}
	}

	t1 := s.tm.Begin()
	var seen []float64
	_, ok, err := s.tbl.UpdateChecked(t1, rid, nil, func(r []val.Value) ([]val.Value, error) {
		if seen = append(seen, r[2].F); len(seen) == 1 {
			interfere()
		}
		return raise(r)
	})
	if err != nil || !ok {
		t.Fatalf("UpdateChecked: %v %v", ok, err)
	}
	if err := t1.Commit(); err != nil {
		t.Fatal(err)
	}
	if got := s.salary(t, rid); got != 102 || len(seen) != 2 || seen[1] != 101 {
		t.Fatalf("salary %v after computes on %v, want 102 after 100 then 101", got, seen)
	}

	t1 = s.tm.Begin()
	seen = nil
	ok, err = s.tbl.DeleteChecked(t1, rid, func(r []val.Value) (bool, error) {
		if seen = append(seen, r[2].F); len(seen) == 1 {
			interfere()
		}
		return r[2].F == 102, nil
	})
	if err != nil || ok {
		t.Fatalf("DeleteChecked of a row whose salary moved on: %v %v, want no delete", ok, err)
	}
	if err := t1.Commit(); err != nil {
		t.Fatal(err)
	}
	if got := s.salary(t, rid); got != 103 || len(seen) != 2 {
		t.Fatalf("salary %v after checks on %v, want 103 after two checks", got, seen)
	}
}

// TestIdenticalRewriteStillHolds: a live writer that rewrote the row with
// the bytes it had still holds it. Another writer's write of what it read
// before is refused, and its UpdateChecked waits for the holder rather than
// going ahead on bytes that look untouched.
func TestIdenticalRewriteStillHolds(t *testing.T) {
	s := newClaimSide(t)
	load := s.tm.Begin()
	rid, err := s.tbl.Insert(load, row(1, "a", 100))
	if err != nil {
		t.Fatal(err)
	}
	load.Commit()

	t1 := s.tm.Begin()
	f, old, err := s.tbl.lockRow(t1, rid)
	if err != nil {
		t.Fatal(err)
	}
	t2 := s.tm.Begin()
	if _, err := rewrite(s.tbl, t2, rid, old); err != nil {
		t.Fatal(err)
	}
	newRow, _ := raise(old)
	if _, err := s.tbl.updateLocked(t1, rid, f, old, newRow); !errors.Is(err, errStale) {
		t.Errorf("update under a live identical rewrite: %v, want errStale", err)
	}
	s.tbl.pool.Unpin(f, false)
	if err := briefly(t1, func() error { _, _, err := s.tbl.UpdateChecked(t1, rid, nil, raise); return err }); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("UpdateChecked under a live identical rewrite: %v, want to wait until its statement's deadline", err)
	}
	t1.Rollback()
	t2.Rollback()
	if got := s.salary(t, rid); got != 100 {
		t.Errorf("salary %v, want 100", got)
	}
}

// TestUncommittedDeleteIsWaitedFor: a row another transaction deleted and
// has not settled is held by that delete, whose rollback brings it back. A
// write that reaches it waits for the deleter instead of reporting the row
// gone, and goes ahead on the restored row once the deleter rolls back.
func TestUncommittedDeleteIsWaitedFor(t *testing.T) {
	s := newClaimSide(t)
	load := s.tm.Begin()
	rid, err := s.tbl.Insert(load, row(1, "a", 100))
	if err != nil {
		t.Fatal(err)
	}
	load.Commit()

	deleter := s.tm.Begin()
	if err := remove(s.tbl, deleter, rid); err != nil {
		t.Fatal(err)
	}
	t1 := s.tm.Begin()
	if err := briefly(t1, func() error { _, _, err := s.tbl.UpdateChecked(t1, rid, nil, raise); return err }); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("update of a row under an uncommitted delete: %v, want to wait until its statement's deadline", err)
	}
	deleter.Rollback()
	if _, ok, err := s.tbl.UpdateChecked(t1, rid, nil, raise); err != nil || !ok {
		t.Fatalf("update after the delete rolled back: %v %v", ok, err)
	}
	t1.Commit()
	if got := s.salary(t, rid); got != 101 {
		t.Errorf("salary %v, want 101", got)
	}
}
