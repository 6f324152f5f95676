package wal

import (
	"os"
	"path/filepath"
	"slices"
	"testing"

	"anywheredb/internal/store"
)

// flushedLSN is the LSN up to which l is durable.
func flushedLSN(l *Log) LSN {
	_, durable := l.Position()
	return durable
}

// openFile opens a log in a file of its own under the test's temporary
// directory: one whose flushed bytes can be read back.
func openFile(t *testing.T) *Log {
	t.Helper()
	l, err := Open(filepath.Join(t.TempDir(), "anywhere.log"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.CloseNoFlush() })
	return l
}

// TestLogWithNoFileKeepsNoBytes: a log opened with no path flushes
// nowhere and keeps nothing it flushed: a read below its tail fails as on
// a truncated log, a read at its tail is caught up, and a crash still
// refuses later flushes.
func TestLogWithNoFileKeepsNoBytes(t *testing.T) {
	l, err := Open("")
	if err != nil {
		t.Fatal(err)
	}
	lsn := l.Append(&Record{Type: RecCommit, Txn: 1})
	if err := l.FlushTo(lsn); err != nil {
		t.Fatal(err)
	}
	if err := l.Scan(func(LSN, *Record) error { return nil }); err != ErrTruncated {
		t.Fatalf("scan below the tail: %v, want ErrTruncated", err)
	}
	id, tail := l.Position()
	if _, err := l.ReadChunk(id, 0, 1<<10); err != ErrTruncated {
		t.Fatalf("ReadChunk below the tail: %v, want ErrTruncated", err)
	}
	if b, err := l.ReadChunk(id, tail, 1<<10); b != nil || err != nil {
		t.Fatalf("ReadChunk at the tail: %d bytes, %v; want caught up", len(b), err)
	}
	l.CloseNoFlush()
	l.Append(&Record{Type: RecCommit, Txn: 2})
	if err := l.Flush(); err != ErrClosed {
		t.Fatalf("flush after a crash: %v, want ErrClosed", err)
	}
}

func TestAppendScanRoundTrip(t *testing.T) {
	l := openFile(t)
	recs := []*Record{
		{Type: RecInsert, Txn: 1, Table: 7, Page: store.MakePageID(0, 3), Slot: 2, After: []byte("row")},
		{Type: RecUpdate, Txn: 1, Table: 7, Page: store.MakePageID(0, 3), Slot: 2, Front: 3, Back: 300, Before: []byte("row"), After: []byte("row2")},
		{Type: RecCommit, Txn: 1},
	}
	var lsns []LSN
	for _, r := range recs {
		lsns = append(lsns, l.Append(r))
	}
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(lsns); i++ {
		if lsns[i] <= lsns[i-1] {
			t.Fatal("LSNs must increase")
		}
	}

	var got []*Record
	err := l.Scan(func(lsn LSN, r *Record) error {
		got = append(got, r)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(recs) {
		t.Fatalf("scanned %d records, want %d", len(got), len(recs))
	}
	for i, r := range got {
		w := recs[i]
		if r.Type != w.Type || r.Txn != w.Txn || r.Table != w.Table ||
			r.Page != w.Page || r.Slot != w.Slot || r.Front != w.Front || r.Back != w.Back ||
			string(r.Before) != string(w.Before) || string(r.After) != string(w.After) {
			t.Fatalf("record %d mismatch: %+v vs %+v", i, r, w)
		}
	}
}

func TestUnflushedRecordsNotDurable(t *testing.T) {
	l := openFile(t)
	l.Append(&Record{Type: RecInsert, Txn: 1})
	n := 0
	l.Scan(func(LSN, *Record) error { n++; return nil })
	if n != 0 {
		t.Fatalf("unflushed record visible to scan")
	}
	l.Flush()
	l.Scan(func(LSN, *Record) error { n++; return nil })
	if n != 1 {
		t.Fatalf("flushed record not visible")
	}
}

// TestAnalyzeKeepsTheTailToReplay: recovery replays every row change,
// winners' and losers' alike, and every commit and rollback record, in LSN
// order. A commit record its own transaction logged past — the
// compensations of a commit whose flush failed — is left out. The
// compensation flag survives the log.
func TestAnalyzeKeepsTheTailToReplay(t *testing.T) {
	l := openFile(t)
	// Txn 1 commits, txn 2 is a loser, txn 3 rolled back, txn 4's commit is
	// followed by its compensation and rollback record, txn 5 wrote nothing.
	l.Append(&Record{Type: RecInsert, Txn: 1, Table: 11, After: []byte("a")})
	l.Append(&Record{Type: RecInsert, Txn: 2, Table: 12, After: []byte("b")})
	l.Append(&Record{Type: RecCommit, Txn: 1})
	l.Append(&Record{Type: RecUpdate, Txn: 2, Table: 12, Before: []byte("b"), After: []byte("b2")})
	l.Append(&Record{Type: RecDelete, Txn: 3, Table: 13, Before: []byte("c")})
	l.Append(&Record{Type: RecInsert, Txn: 3, Table: 13, After: []byte("c"), Undo: true})
	l.Append(&Record{Type: RecRollback, Txn: 3})
	l.Append(&Record{Type: RecInsert, Txn: 4, Table: 14, After: []byte("d")})
	l.Append(&Record{Type: RecCommit, Txn: 4})
	l.Append(&Record{Type: RecDelete, Txn: 4, Table: 14, Before: []byte("d"), Undo: true})
	l.Append(&Record{Type: RecRollback, Txn: 4})
	l.Append(&Record{Type: RecCommit, Txn: 5})
	l.Flush()

	plan, err := l.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	type rec struct {
		typ  RecType
		txn  uint64
		undo bool
	}
	want := []rec{
		{RecInsert, 1, false}, {RecInsert, 2, false}, {RecCommit, 1, false},
		{RecUpdate, 2, false}, {RecDelete, 3, false}, {RecInsert, 3, true}, {RecRollback, 3, false},
		{RecInsert, 4, false}, {RecDelete, 4, true}, {RecRollback, 4, false},
		{RecCommit, 5, false},
	}
	var got []rec
	var last LSN
	for _, r := range plan.Records {
		got = append(got, rec{r.Type, r.Txn, r.Undo})
		if r.LSN <= last {
			t.Fatalf("records out of LSN order: %d after %d", r.LSN, last)
		}
		last = r.LSN
	}
	if !slices.Equal(got, want) {
		t.Fatalf("records to replay\n  got  %v\n  want %v", got, want)
	}
	for table, drop := range map[uint64]bool{11: false, 12: true, 13: true, 14: true} {
		if plan.ColSegDrops[table] != drop {
			t.Errorf("table %d: columnar snapshot dropped %v, want %v", table, plan.ColSegDrops[table], drop)
		}
	}
}

func TestFileBackedDurability(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "test.log")
	l, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	l.Append(&Record{Type: RecInsert, Txn: 9})
	l.Append(&Record{Type: RecCommit, Txn: 9})
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	var types []RecType
	l2.Scan(func(_ LSN, r *Record) error {
		types = append(types, r.Type)
		return nil
	})
	if len(types) != 2 || types[0] != RecInsert || types[1] != RecCommit {
		t.Fatalf("reopened log contents: %v", types)
	}
}

func TestCorruptTailIgnored(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "c.log")
	l, _ := Open(path)
	l.Append(&Record{Type: RecInsert, Txn: 1})
	l.Append(&Record{Type: RecCommit, Txn: 1})
	l.Close()

	// Append garbage simulating a torn write.
	f, _ := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	f.Write([]byte{0x10, 0x00, 0x00, 0x00, 0xde, 0xad, 0xbe, 0xef, 1, 2, 3})
	f.Close()

	l2, _ := Open(path)
	defer l2.Close()
	n := 0
	if err := l2.Scan(func(LSN, *Record) error { n++; return nil }); err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("scan past corrupt tail returned %d records, want 2", n)
	}
}

func TestTruncate(t *testing.T) {
	l, _ := Open("")
	lsn := l.Append(&Record{Type: RecInsert, Txn: 1})
	l.Flush()
	if err := l.Truncate(); err != nil {
		t.Fatal(err)
	}
	n := 0
	l.Scan(func(LSN, *Record) error { n++; return nil })
	if n != 0 {
		t.Fatal("truncated log should be empty")
	}
	if got := flushedLSN(l); got != lsn {
		t.Fatalf("FlushedLSN %d after truncate, want %d: LSNs must go on, not restart", got, lsn)
	}
	if next := l.Append(&Record{Type: RecInsert, Txn: 2}); next <= lsn {
		t.Fatalf("first LSN after truncate %d, want past %d", next, lsn)
	}
}

// TestLSNsStayMonotoneAcrossTruncateAndReopen: a page stamped before a
// checkpoint must compare older than every record logged after it, so no
// LSN may restart at zero — not after a truncate, not after reopening a
// truncated log, whether or not anything was logged in between, and not
// after a second truncate of the same open log.
func TestLSNsStayMonotoneAcrossTruncateAndReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "m.log")
	l, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	last := l.Append(&Record{Type: RecInsert, Txn: 1, After: make([]byte, 5000)})
	logNext := func(round int) {
		t.Helper()
		lsn := l.Append(&Record{Type: RecUpdate, Txn: 2, After: []byte("x")})
		if lsn <= last {
			t.Fatalf("round %d: LSN %d after a truncate, want past %d", round, lsn, last)
		}
		if err := l.Flush(); err != nil {
			t.Fatal(err)
		}
		last = lsn
	}
	reopen := func(round int) {
		t.Helper()
		l.CloseNoFlush()
		if l, err = Open(path); err != nil {
			t.Fatal(err)
		}
		if got := flushedLSN(l); got < last {
			t.Fatalf("round %d: reopened log is durable through %d, below the %d logged before", round, got, last)
		}
	}
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 3; round++ {
		if err := l.Truncate(); err != nil {
			t.Fatal(err)
		}
		reopen(round) // the header alone, as a crash right after the truncate leaves it
		logNext(round)
		if err := l.Truncate(); err != nil {
			t.Fatal(err)
		}
		logNext(round)
		reopen(round)
		var got []LSN
		if err := l.Scan(func(_ LSN, r *Record) error { got = append(got, r.LSN); return nil }); err != nil {
			t.Fatal(err)
		}
		if len(got) != 1 || got[0] != last {
			t.Fatalf("round %d: scan saw records ending at %v, want just %d", round, got, last)
		}
	}
	l.Close()
}

func TestRecTypeString(t *testing.T) {
	if RecCommit.String() != "commit" || RecType(99).String() == "" {
		t.Fatal("RecType.String")
	}
}

func TestAnalyzeKeepsNewestPageImage(t *testing.T) {
	l := openFile(t)
	p1 := store.MakePageID(0, 4)
	p2 := store.MakePageID(0, 9)
	l.Append(&Record{Type: RecPageImage, Page: p1, After: []byte("old-4")})
	l.Append(&Record{Type: RecPageImage, Page: p2, After: []byte("only-9")})
	l.Append(&Record{Type: RecPageImage, Page: p1, After: []byte("new-4")})
	l.Flush()

	plan, err := l.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Images) != 2 {
		t.Fatalf("image set size %d, want 2", len(plan.Images))
	}
	if string(plan.Images[p1].After) != "new-4" {
		t.Fatalf("page %v image %q, want the newest (%q)", p1, plan.Images[p1].After, "new-4")
	}
	if string(plan.Images[p2].After) != "only-9" {
		t.Fatalf("page %v image %q, want %q", p2, plan.Images[p2].After, "only-9")
	}
}

func TestTruncatedMidFrameTailIgnored(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "t.log")
	l, _ := Open(path)
	l.Append(&Record{Type: RecInsert, Txn: 1})
	l.Append(&Record{Type: RecCommit, Txn: 1})
	l.Append(&Record{Type: RecInsert, Txn: 2})
	l.Close()

	// Chop bytes off the last frame, as a crash mid-write would.
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, st.Size()-3); err != nil {
		t.Fatal(err)
	}

	l2, _ := Open(path)
	defer l2.Close()
	var types []RecType
	if err := l2.Scan(func(_ LSN, r *Record) error {
		types = append(types, r.Type)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(types) != 2 || types[0] != RecInsert || types[1] != RecCommit {
		t.Fatalf("scan past truncated tail returned %v, want [insert commit]", types)
	}
	// The log remains appendable after the damaged tail is discarded.
	l2.Append(&Record{Type: RecInsert, Txn: 3})
	if err := l2.Flush(); err != nil {
		t.Fatal(err)
	}
	n := 0
	if err := l2.Scan(func(LSN, *Record) error { n++; return nil }); err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("after re-append: %d records, want 3", n)
	}
}
