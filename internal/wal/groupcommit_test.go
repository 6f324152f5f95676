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
	before := l.Flushes.Load()
	for i := 0; i < 10; i++ {
		if err := l.FlushTo(lsn); err != nil {
			t.Fatal(err)
		}
	}
	if got := l.Flushes.Load(); got != before {
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

	flushes := l.Flushes.Load()
	if flushes >= committers {
		t.Fatalf("%d flushes for %d committers: no batching happened", flushes, committers)
	}
	if l.GroupCommits.Load() == 0 {
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

// heldInjector holds the first WAL flush it sees until release is closed,
// then fails it while fail is set; later flushes pass straight through.
type heldInjector struct {
	entered, release chan struct{}
	fail             atomic.Bool
	once             sync.Once
}

func (h *heldInjector) Fault(op faultinject.Op, arg uint64, data []byte) ([]byte, error) {
	if op != faultinject.OpWALFlush {
		return nil, nil
	}
	held := false
	h.once.Do(func() { held = true })
	if !held {
		return nil, nil
	}
	close(h.entered)
	<-h.release
	if h.fail.Load() {
		return nil, faultinject.Permanent(errors.New("held: flush refused"))
	}
	return nil, nil
}

func (h *heldInjector) Crashpoint(string) error { return nil }

// TestFailedGroupErrorOutlivesItsRecycling: every follower of a failed
// group gets the group's error, although the group retires before they
// read it and the next flush, which takes a retired group if one is free,
// succeeds before they do. A group recycled while a follower still reads it
// would hand that follower the next group's success.
func TestFailedGroupErrorOutlivesItsRecycling(t *testing.T) {
	l, err := Open(filepath.Join(t.TempDir(), "r.log"))
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	inj := &heldInjector{entered: make(chan struct{}), release: make(chan struct{})}
	inj.fail.Store(true)
	l.SetInjector(inj, faultinject.RetryPolicy{}, nil)

	const followers = 6
	var lsns [followers + 1]LSN
	for i := range lsns {
		lsns[i] = l.Append(&Record{Type: RecCommit, Txn: uint64(i + 1)})
	}
	leaderErr := make(chan error, 1)
	go func() { leaderErr <- l.FlushTo(lsns[0]) }()
	<-inj.entered // the leader sealed every record and holds the flush
	got := make(chan error, followers)
	for i := 1; i <= followers; i++ {
		go func(lsn LSN) { got <- l.FlushTo(lsn) }(lsns[i])
	}
	for l.FlushWaiters.Load() < followers {
		time.Sleep(100 * time.Microsecond)
	}
	close(inj.release)
	if err := <-leaderErr; !errors.Is(err, faultinject.ErrPermanent) {
		t.Fatalf("leader of the failed group: %v, want the injected error", err)
	}

	// The group has retired; its followers may not have read it yet. The
	// next group lands everything.
	inj.fail.Store(false)
	if err := l.FlushTo(l.Append(&Record{Type: RecCommit, Txn: 99})); err != nil {
		t.Fatalf("the flush after the failed group: %v", err)
	}
	for i := 0; i < followers; i++ {
		select {
		case err := <-got:
			if !errors.Is(err, faultinject.ErrPermanent) {
				t.Fatalf("a follower of the failed group got %v, want its error", err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%d of %d followers of the failed group never returned", followers-i, followers)
		}
	}
	if flushedLSN(l) < lsns[followers] {
		t.Fatalf("durable through %d, want past %d", flushedLSN(l), lsns[followers])
	}
}

// TestUncontendedFlushAllocatesNothing: a lone committer's Append and
// FlushTo reuse the log's buffers and its retired group.
func TestUncontendedFlushAllocatesNothing(t *testing.T) {
	l, err := Open(filepath.Join(t.TempDir(), "a.log"))
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	rec := &Record{Type: RecInsert, Txn: 1, Table: 2, Page: 3, After: make([]byte, 80)}
	commit := &Record{Type: RecCommit, Txn: 1}
	var failed error
	allocs := testing.AllocsPerRun(200, func() {
		l.Append(rec)
		if err := l.FlushTo(l.Append(commit)); err != nil {
			failed = err
		}
	})
	if failed != nil {
		t.Fatal(failed)
	}
	if allocs != 0 {
		t.Fatalf("an uncontended Append and FlushTo allocate %.0f objects, want 0", allocs)
	}
}
