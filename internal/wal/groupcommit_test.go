package wal

import (
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"anywheredb/internal/faultinject"
)

// gateInjector fails every WAL flush while armed; other operations pass.
type gateInjector struct {
	armed atomic.Bool
	hits  atomic.Int64
}

func (g *gateInjector) Fault(op faultinject.Op, arg uint64, data []byte) ([]byte, error) {
	if op == faultinject.OpWALFlush && g.armed.Load() {
		g.hits.Add(1)
		return nil, faultinject.Permanent(errors.New("gate: flush refused"))
	}
	return nil, nil
}

func (g *gateInjector) Crashpoint(string) error { return nil }

// slowInjector delays every WAL flush, giving committers time to pile up
// behind the in-flight fsync so batching is observable deterministically.
type slowInjector struct{ d time.Duration }

func (s *slowInjector) Fault(op faultinject.Op, arg uint64, data []byte) ([]byte, error) {
	if op == faultinject.OpWALFlush {
		time.Sleep(s.d)
	}
	return nil, nil
}

func (s *slowInjector) Crashpoint(string) error { return nil }

func TestAppendReturnsEndLSN(t *testing.T) {
	l, err := Open("")
	if err != nil {
		t.Fatal(err)
	}
	r := &Record{Type: RecInsert, Txn: 1}
	frameLen := uint64(8 + len(encode(r)))
	lsn := l.Append(r)
	if lsn != frameLen {
		t.Fatalf("first end-LSN %d, want frame length %d", lsn, frameLen)
	}
	lsn2 := l.Append(&Record{Type: RecCommit, Txn: 1})
	if lsn2 <= lsn {
		t.Fatalf("end-LSNs must increase: %d then %d", lsn, lsn2)
	}
	if err := l.FlushTo(lsn2); err != nil {
		t.Fatal(err)
	}
	if got := flushedLSN(l); got != lsn2 {
		t.Fatalf("FlushedLSN %d after FlushTo(%d)", got, lsn2)
	}
}

func TestFlushToAlreadyDurableIsFree(t *testing.T) {
	l, _ := Open("")
	lsn := l.Append(&Record{Type: RecCommit, Txn: 1})
	if err := l.FlushTo(lsn); err != nil {
		t.Fatal(err)
	}
	before := l.flushes.Load()
	for i := 0; i < 10; i++ {
		if err := l.FlushTo(lsn); err != nil {
			t.Fatal(err)
		}
	}
	if got := l.flushes.Load(); got != before {
		t.Fatalf("FlushTo below the durable tail performed %d extra flushes", got-before)
	}
}

// TestGroupCommitBatches holds the fsync open with a slow injector while
// concurrent committers arrive, and asserts they were retired by fewer
// flushes than committers — the leader/follower batch is real.
func TestGroupCommitBatches(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(filepath.Join(dir, "g.log"))
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	l.SetInjector(&slowInjector{d: 2 * time.Millisecond}, faultinject.RetryPolicy{}, nil)

	const committers = 16
	var wg sync.WaitGroup
	errs := make(chan error, committers)
	for i := 0; i < committers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			lsn := l.Append(&Record{Type: RecCommit, Txn: uint64(i + 1)})
			if err := l.FlushTo(lsn); err != nil {
				errs <- err
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	flushes := l.flushes.Load()
	if flushes >= committers {
		t.Fatalf("%d flushes for %d committers: no batching happened", flushes, committers)
	}
	if l.groupCommits.Load() == 0 {
		t.Fatal("no flush retired more than one committer")
	}
	n := 0
	if err := l.Scan(func(LSN, *Record) error { n++; return nil }); err != nil {
		t.Fatal(err)
	}
	if n != committers {
		t.Fatalf("scanned %d commit records, want %d", n, committers)
	}
}

// TestCommitFlushDelayGathers opens the log with a gather window and
// checks that committers arriving inside it share one flush.
func TestCommitFlushDelayGathers(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenOptions(filepath.Join(dir, "d.log"), Options{CommitFlushDelay: 200 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	const committers = 8
	var wg sync.WaitGroup
	for i := 0; i < committers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Stagger arrivals well inside the 200ms window.
			time.Sleep(time.Duration(i) * time.Millisecond)
			lsn := l.Append(&Record{Type: RecCommit, Txn: uint64(i + 1)})
			if err := l.FlushTo(lsn); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	if got := l.flushes.Load(); got != 1 {
		t.Fatalf("%d flushes, want 1 (all committers inside the gather window)", got)
	}
	if got := l.groupCommits.Load(); got != 1 {
		t.Fatalf("group_commits = %d, want 1", got)
	}
}

// TestFailedGroupFlushFailsEveryWaiter arms a permanent flush fault, sends
// a batch of concurrent committers in, and asserts every single one saw
// the error. Then it disarms the fault and verifies a later flush lands
// the stranded records in their original LSN order — the failed group's
// bytes must return to the head of the pending buffer.
func TestFailedGroupFlushFailsEveryWaiter(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(filepath.Join(dir, "f.log"))
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	gate := &gateInjector{}
	gate.armed.Store(true)
	l.SetInjector(gate, faultinject.RetryPolicy{}, nil)

	const committers = 12
	lsns := make([]LSN, committers)
	var appended sync.WaitGroup
	start := make(chan struct{})
	var wg sync.WaitGroup
	got := make([]error, committers)
	for i := 0; i < committers; i++ {
		appended.Add(1)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			lsns[i] = l.Append(&Record{Type: RecCommit, Txn: uint64(i + 1)})
			appended.Done()
			<-start // all records appended before anyone flushes
			got[i] = l.FlushTo(lsns[i])
		}(i)
	}
	appended.Wait()
	close(start)
	wg.Wait()

	for i, err := range got {
		if err == nil {
			t.Fatalf("committer %d saw success from a failed group flush", i)
		}
		if !errors.Is(err, faultinject.ErrPermanent) {
			t.Fatalf("committer %d got %v, want the injected permanent error", i, err)
		}
	}
	if flushedLSN(l) != 0 {
		t.Fatalf("durable tail advanced to %d across failed flushes", flushedLSN(l))
	}

	// Disarm and retry: the stranded records must land, in order.
	gate.armed.Store(false)
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	var txns []uint64
	if err := l.Scan(func(_ LSN, r *Record) error {
		txns = append(txns, r.Txn)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(txns) != committers {
		t.Fatalf("recovered %d records after disarm, want %d", len(txns), committers)
	}
	seen := map[uint64]bool{}
	for _, id := range txns {
		if seen[id] {
			t.Fatalf("txn %d logged twice", id)
		}
		seen[id] = true
	}
}

// TestFlushedLSNInvariant hammers the log with concurrent appenders and
// flushers while a checker continuously asserts the satellite invariant:
// FlushedLSN never covers a record still sitting in an unsealed (or
// in-flight) buffer — i.e. every byte below FlushedLSN is a fully synced,
// CRC-valid record that Scan can walk.
func TestFlushedLSNInvariant(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(filepath.Join(dir, "inv.log"))
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				lsn := l.Append(&Record{
					Type: RecInsert, Txn: uint64(w + 1),
					After: []byte(fmt.Sprintf("w%d-%d", w, i)),
				})
				if i%3 == 0 {
					if err := l.FlushTo(lsn); err != nil {
						t.Error(err)
						return
					}
					if got := flushedLSN(l); got < lsn {
						t.Errorf("FlushTo(%d) returned with FlushedLSN %d", lsn, got)
						return
					}
				}
			}
		}(w)
	}

	deadline := time.Now().Add(300 * time.Millisecond)
	for time.Now().Before(deadline) {
		flushed := flushedLSN(l)
		if pending := l.PendingLSN(); flushed > pending {
			t.Fatalf("FlushedLSN %d ahead of PendingLSN %d", flushed, pending)
		}
		walked := uint64(0)
		if err := l.Scan(func(lsn LSN, r *Record) error {
			walked = lsn + 8 + uint64(len(encode(r)))
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if walked < flushed {
			t.Fatalf("FlushedLSN %d covers bytes Scan cannot walk (valid prefix ends at %d)", flushed, walked)
		}
	}
	close(stop)
	wg.Wait()
}

// TestTruncateDrainsInflightFlush truncates while a slow flush is in
// flight and checks nothing corrupts: truncate must wait for the leader.
func TestTruncateDrainsInflightFlush(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(filepath.Join(dir, "t.log"))
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	l.SetInjector(&slowInjector{d: 5 * time.Millisecond}, faultinject.RetryPolicy{}, nil)

	var wg sync.WaitGroup
	wg.Add(1)
	first := l.Append(&Record{Type: RecCommit, Txn: 1})
	go func() {
		defer wg.Done()
		_ = l.FlushTo(first)
	}()
	// Let the leader seal the buffer and enter its slow fsync (or finish it:
	// either way the record is out of the buffer a truncate carries over).
	for sealed := false; !sealed; time.Sleep(100 * time.Microsecond) {
		l.mu.Lock()
		sealed = l.inflight != nil || l.tail > 0
		l.mu.Unlock()
	}
	if err := l.Truncate(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if got := flushedLSN(l); got != first {
		t.Fatalf("FlushedLSN %d after truncate, want the drained flush's %d", got, first)
	}
	lsn := l.Append(&Record{Type: RecCommit, Txn: 2})
	if err := l.FlushTo(lsn); err != nil {
		t.Fatal(err)
	}
	n := 0
	if err := l.Scan(func(LSN, *Record) error { n++; return nil }); err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("post-truncate log has %d records, want 1", n)
	}
}
