package repl

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"anywheredb/internal/core"
	"anywheredb/internal/wal"
)

// TestRepassSkipsASupersededCommit: a snapshot prefix can end inside the
// rollback that follows a commit whose flush failed — the transaction's
// insert and update, its commit record, the compensation of the update —
// with the compensation of the insert and the rollback record still to be
// shipped. Recovery rolls such a transaction back (a commit record its
// transaction logged past settles nothing), so the replica must re-pass it
// as in flight, without its commit record: the rest of the stream then
// takes back the insert and settles the transaction with no resync.
func TestRepassSkipsASupersededCommit(t *testing.T) {
	dirA, dirB := t.TempDir(), t.TempDir()
	db, err := core.Open(core.Options{Dir: dirA, VacuumInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	c, _ := db.Connect()
	mustExec(t, c, "CREATE TABLE t (id INT, v INT)")
	c.Close()
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	// The store files as a snapshot ships them; the log starts after them.
	files, _ := filepath.Glob(filepath.Join(dirA, "*.db"))
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dirB, filepath.Base(f)), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	db, err = core.Open(core.Options{Dir: dirA, VacuumInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	logID, start := db.WAL().Position()
	c, _ = db.Connect()
	defer c.Close()
	mustExec(t, c, "BEGIN")
	mustExec(t, c, "INSERT INTO t VALUES (1, 1)")
	mustExec(t, c, "UPDATE t SET v = 2 WHERE id = 1")
	mustExec(t, c, "ROLLBACK")
	_, end := db.WAL().Position()
	logged, err := db.WAL().ReadChunk(logID, start, int(end-start))
	if err != nil {
		t.Fatal(err)
	}

	// Split the log after the first compensation, and put a commit record
	// in front of it.
	var prefix, rest []byte
	var txnID uint64
	var kinds []string
	off := 0
	if _, err := wal.DecodeFrames(logged, func(n int, r *wal.Record) error {
		frame := logged[off : off+n]
		off += n
		if r.Undo && txnID == 0 {
			txnID = r.Txn
			prefix = append(prefix, commitFrame(t, r.Txn)...)
			kinds = append(kinds, "commit")
			prefix = append(prefix, frame...)
			kinds = append(kinds, "undo "+r.Type.String())
			return nil
		}
		if txnID == 0 {
			prefix = append(prefix, frame...)
			kinds = append(kinds, r.Type.String())
		} else {
			rest = append(rest, frame...)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(kinds, ","); got != "insert,update,commit,undo update" {
		t.Fatalf("prefix records %s, want insert,update,commit,undo update", got)
	}

	r := &Replica{opts: ReplicaOptions{Dir: dirB, Core: core.Options{VacuumInterval: -1}},
		stop: make(chan struct{}), ready: make(chan struct{})}
	r.opts.fill()
	defer r.Stop()
	if err := wal.WriteLog(filepath.Join(dirB, "anywhere.log"), start, prefix); err != nil {
		t.Fatal(err)
	}
	prefixEnd := start + uint64(len(prefix))
	if err := r.openFromSnapshot(logID, prefixEnd, prefix); err != nil {
		t.Fatal(err)
	}
	if n := r.applier.InFlight(); n != 1 {
		t.Fatalf("%d transactions in flight after the repass, want 1: the superseded commit settled transaction %d", n, txnID)
	}
	waitRows(t, r.DB(), "SELECT id FROM t", 0)

	resyncs := r.resyncs.Load()
	if _, err := r.applyChunk(shipMsg{StartLSN: prefixEnd, Frames: rest}); err != nil {
		t.Fatalf("the rest of the rollback: %v (a replica would resync)", err)
	}
	if n, commits := r.applier.InFlight(), r.applier.Commits; n != 0 || commits != 0 {
		t.Fatalf("after the rollback record: %d in flight, %d commits; want 0 and 0", n, commits)
	}
	if r.resyncs.Load() != resyncs {
		t.Fatalf("resyncs %d, want %d", r.resyncs.Load(), resyncs)
	}
	waitRows(t, r.DB(), "SELECT id FROM t", 0)
}

// commitFrame is the log frame of txn's commit record.
func commitFrame(t *testing.T, txn uint64) []byte {
	t.Helper()
	l, _ := wal.Open("")
	l.Append(&wal.Record{Type: wal.RecCommit, Txn: txn})
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	id, end := l.Position()
	b, err := l.ReadChunk(id, 0, int(end))
	if err != nil {
		t.Fatal(err)
	}
	return b
}
