package txn

import (
	"testing"
	"time"

	"anywheredb/internal/buffer"
	"anywheredb/internal/lock"
	"anywheredb/internal/mvcc"
	"anywheredb/internal/store"
	"anywheredb/internal/wal"
)

func setup(t *testing.T) (*Manager, *wal.Log) {
	t.Helper()
	log, err := wal.Open("")
	if err != nil {
		t.Fatal(err)
	}
	st, err := store.Open(store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	pool := buffer.New(st, 4, 64, 64)
	locks, err := lock.NewManager(pool, st)
	if err != nil {
		t.Fatal(err)
	}
	locks.Timeout = 100 * time.Millisecond
	return NewManager(log, locks), log
}

func logTypes(t *testing.T, log *wal.Log) []wal.RecType {
	t.Helper()
	var types []wal.RecType
	if err := log.Scan(func(_ uint64, r *wal.Record) error {
		types = append(types, r.Type)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return types
}

func TestCommitWritesLog(t *testing.T) {
	m, log := setup(t)
	tx := m.Begin()
	tx.Log(&wal.Record{Type: wal.RecInsert, Table: 3, After: []byte("r")})
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	types := logTypes(t, log)
	want := []wal.RecType{wal.RecBegin, wal.RecInsert, wal.RecCommit}
	if len(types) != len(want) {
		t.Fatalf("log: %v", types)
	}
	for i := range want {
		if types[i] != want[i] {
			t.Fatalf("log: %v", types)
		}
	}
	if m.Active() != 0 {
		t.Fatal("transaction still active after commit")
	}
}

func TestRollbackRunsUndoInReverse(t *testing.T) {
	m, log := setup(t)
	tx := m.Begin()
	var order []int
	var atFirstUndo []wal.RecType
	tx.OnRollback(func() error { order = append(order, 1); return nil })
	tx.OnRollback(func() error {
		order = append(order, 2)
		if err := log.Flush(); err != nil {
			return err
		}
		atFirstUndo = logTypes(t, log)
		return nil
	})
	if err := tx.Rollback(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 || order[0] != 2 || order[1] != 1 {
		t.Fatalf("undo order %v, want [2 1]", order)
	}
	// The rollback record is logged before the first compensation frees
	// anything another transaction could use and log.
	if n := len(atFirstUndo); n == 0 || atFirstUndo[n-1] != wal.RecRollback {
		t.Fatalf("log when the first compensation ran: %v, want the rollback record last", atFirstUndo)
	}
	types := logTypes(t, log)
	if types[len(types)-1] != wal.RecRollback {
		t.Fatalf("last record %v, want rollback", types[len(types)-1])
	}
}

func TestDoubleFinish(t *testing.T) {
	m, _ := setup(t)
	tx := m.Begin()
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != ErrDone {
		t.Fatalf("second commit: %v", err)
	}
	if err := tx.Rollback(); err != ErrDone {
		t.Fatalf("rollback after commit: %v", err)
	}
}

func TestLocksReleasedOnCommit(t *testing.T) {
	m, _ := setup(t)
	a := m.Begin()
	if err := a.Lock(7, []byte("row"), lock.Exclusive); err != nil {
		t.Fatal(err)
	}
	b := m.Begin()
	if err := b.Lock(7, []byte("row"), lock.Exclusive); err != lock.ErrTimeout {
		t.Fatalf("b should block: %v", err)
	}
	if err := a.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := b.Lock(7, []byte("row"), lock.Exclusive); err != nil {
		t.Fatalf("b after a commits: %v", err)
	}
	b.Rollback()
}

func TestLocksReleasedOnRollback(t *testing.T) {
	m, _ := setup(t)
	a := m.Begin()
	a.Lock(7, []byte("row"), lock.Exclusive)
	a.Rollback()
	b := m.Begin()
	if err := b.Lock(7, []byte("row"), lock.Exclusive); err != nil {
		t.Fatalf("lock after rollback: %v", err)
	}
	b.Commit()
}

func TestNilLockManager(t *testing.T) {
	log, _ := wal.Open("")
	m := NewManager(log, nil)
	tx := m.Begin()
	if err := tx.Lock(1, []byte("k"), lock.Exclusive); err != nil {
		t.Fatalf("nil lock manager should no-op: %v", err)
	}
	tx.Commit()
}

func TestIDsIncrease(t *testing.T) {
	m, _ := setup(t)
	a, b := m.Begin(), m.Begin()
	if b.ID() <= a.ID() {
		t.Fatal("ids must increase")
	}
	if !a.Done() {
		a.Rollback()
	}
	b.Rollback()
}

func TestUndoErrorReported(t *testing.T) {
	m, _ := setup(t)
	tx := m.Begin()
	wantErr := errFake{}
	tx.OnRollback(func() error { return wantErr })
	if err := tx.Rollback(); err != wantErr {
		t.Fatalf("rollback error %v, want fake", err)
	}
}

type errFake struct{}

func (errFake) Error() string { return "fake undo failure" }

// TestAdoptedTxnSettlesWithoutLogOrLocks covers the stand-in a replica
// adopts for a primary's transaction: it is active until it settles (so
// vacuum leaves its versions alone), settles through Commit/Rollback like a
// local transaction — publishing a CSN, running compensations in reverse —
// and yet writes no log record and asks the lock manager for nothing, even
// for a row a local transaction holds.
func TestAdoptedTxnSettlesWithoutLogOrLocks(t *testing.T) {
	m, log := setup(t)
	holder := m.Begin()
	if err := holder.Lock(7, []byte("row"), lock.Exclusive); err != nil {
		t.Fatal(err)
	}
	if err := log.Flush(); err != nil {
		t.Fatal(err)
	}
	base := len(logTypes(t, log))

	tx := m.Adopt(900)
	if tx.ID() != 900 || !m.IsActive(900) {
		t.Fatalf("adopted txn id %d, active %v", tx.ID(), m.IsActive(900))
	}
	if err := tx.Lock(7, []byte("row"), lock.Exclusive); err != nil {
		t.Fatalf("adopted txn waited on a local lock: %v", err)
	}
	tx.Log(&wal.Record{Type: wal.RecInsert, Table: 7, After: []byte("r")})
	store, id, e := mvcc.NewStore(), mvcc.RowID{Page: 1, Slot: 0}, &mvcc.Entry{Writer: 900}
	store.Push(id, e)
	tx.NoteVersion(store, id, e)
	before := m.CommitSeq()
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if e.CSN() != before+1 || m.CommitSeq() != before+1 {
		t.Fatalf("commit published CSN %d at horizon %d, want %d", e.CSN(), m.CommitSeq(), before+1)
	}
	if m.IsActive(900) || !store.Empty() {
		t.Fatalf("after commit: active %v, versions left %d", m.IsActive(900), store.Count())
	}

	tx = m.Adopt(901)
	var order []int
	tx.OnRollback(func() error { order = append(order, 1); return nil })
	tx.OnRollback(func() error { order = append(order, 2); return nil })
	if err := tx.Rollback(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 || order[0] != 2 || order[1] != 1 || m.IsActive(901) {
		t.Fatalf("rollback ran compensations %v, still active %v", order, m.IsActive(901))
	}
	if err := log.Flush(); err != nil {
		t.Fatal(err)
	}
	if n := len(logTypes(t, log)); n != base {
		t.Fatalf("adopted transactions wrote %d log records", n-base)
	}
	if err := holder.Rollback(); err != nil {
		t.Fatal(err)
	}
}

// TestIfQuiet pins the checkpoint's truncation rule: the truncate runs only
// when no transaction that has logged a record was open at the mark and none
// has logged its first since, and a first record arriving while it runs
// waits for it.
func TestIfQuiet(t *testing.T) {
	m, _ := setup(t)
	ran := func(mark uint64) (ok bool) {
		if err := m.IfQuiet(mark, func() error { ok = true; return nil }); err != nil {
			t.Fatal(err)
		}
		return ok
	}
	idle := m.Begin() // open, but nothing logged: BEGIN alone pins nothing
	if !ran(m.QuietMark()) {
		t.Fatal("a transaction that has logged nothing held the log")
	}

	tx := m.Begin()
	tx.Log(&wal.Record{Type: wal.RecInsert, Table: 1, After: []byte("r")})
	mark := m.QuietMark()
	if ran(mark) {
		t.Fatal("truncated under an open transaction's records")
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	// It may have dirtied a page the checkpoint's flush had already passed:
	// a mark taken beside it stays bad, the next one is good.
	if ran(mark) {
		t.Fatal("truncated the records of a transaction that was open at the mark")
	}
	if !ran(m.QuietMark()) {
		t.Fatal("the log stayed pinned after its last writer committed")
	}

	// A writer that comes and goes between the mark and the decision logged
	// records newer than the pages the checkpoint flushed.
	mark = m.QuietMark()
	tx = m.Begin()
	tx.Log(&wal.Record{Type: wal.RecInsert, Table: 1, After: []byte("r")})
	if err := tx.Rollback(); err != nil {
		t.Fatal(err)
	}
	if ran(mark) {
		t.Fatal("truncated records logged after the mark")
	}

	// An adopted (shipped) transaction's records are in the local log from
	// the moment it is adopted.
	shipped := m.Adopt(1 << 40)
	if ran(m.QuietMark()) {
		t.Fatal("truncated under a shipped transaction")
	}
	shipped.Commit()

	// A first record blocks while the truncate runs.
	entered, release, logged := make(chan struct{}), make(chan struct{}), make(chan struct{})
	go func() {
		<-entered
		idle.Log(&wal.Record{Type: wal.RecInsert, Table: 1, After: []byte("r")})
		close(logged)
	}()
	ok := false
	m.IfQuiet(m.QuietMark(), func() error {
		ok = true
		close(entered)
		select {
		case <-logged:
			t.Error("a first record got into the log while it was being truncated")
		case <-time.After(50 * time.Millisecond):
		}
		close(release)
		return nil
	})
	<-release
	<-logged
	if !ok {
		t.Fatal("truncate did not run on a quiet manager")
	}
	idle.Rollback()
}
