package lock

import (
	"context"
	"encoding/binary"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"anywheredb/internal/buffer"
	"anywheredb/internal/faultinject"
	"anywheredb/internal/store"
)

func newManager(t *testing.T) *Manager {
	t.Helper()
	st, err := store.Open(store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	pool := buffer.New(st, 4, 128, 256)
	m, err := NewManager(pool, st)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestSharedLocksCompatible(t *testing.T) {
	m := newManager(t)
	if err := m.Lock(1, 10, []byte("row1"), Shared); err != nil {
		t.Fatal(err)
	}
	if err := m.Lock(2, 10, []byte("row1"), Shared); err != nil {
		t.Fatal(err)
	}
	n, _ := m.Held(1)
	if n != 1 {
		t.Fatalf("txn1 holds %d", n)
	}
}

func TestExclusiveConflicts(t *testing.T) {
	m := newManager(t)
	m.Timeout = 50 * time.Millisecond
	if err := m.Lock(1, 10, []byte("row1"), Exclusive); err != nil {
		t.Fatal(err)
	}
	if err := m.Lock(2, 10, []byte("row1"), Shared); err != ErrTimeout {
		t.Fatalf("want timeout, got %v", err)
	}
	if err := m.Lock(2, 10, []byte("row1"), Exclusive); err != ErrTimeout {
		t.Fatalf("want timeout, got %v", err)
	}
	// Different row: no conflict.
	if err := m.Lock(2, 10, []byte("row2"), Exclusive); err != nil {
		t.Fatal(err)
	}
}

func TestReacquireAndUpgrade(t *testing.T) {
	m := newManager(t)
	m.Timeout = 50 * time.Millisecond
	if err := m.Lock(1, 10, []byte("r"), Shared); err != nil {
		t.Fatal(err)
	}
	// Re-acquiring the same or weaker mode is a no-op.
	if err := m.Lock(1, 10, []byte("r"), Shared); err != nil {
		t.Fatal(err)
	}
	// Upgrade succeeds while sole holder.
	if err := m.Lock(1, 10, []byte("r"), Exclusive); err != nil {
		t.Fatal(err)
	}
	n, _ := m.Held(1)
	if n != 1 {
		t.Fatalf("after upgrade txn1 holds %d entries, want 1", n)
	}
	// Now a reader must block.
	if err := m.Lock(2, 10, []byte("r"), Shared); err != ErrTimeout {
		t.Fatalf("want timeout after upgrade, got %v", err)
	}
}

func TestUpgradeBlockedByOtherReader(t *testing.T) {
	m := newManager(t)
	m.Timeout = 50 * time.Millisecond
	m.Lock(1, 10, []byte("r"), Shared)
	m.Lock(2, 10, []byte("r"), Shared)
	if err := m.Lock(1, 10, []byte("r"), Exclusive); err != ErrTimeout {
		t.Fatalf("upgrade with another reader should time out, got %v", err)
	}
}

func TestWaiterWakesOnRelease(t *testing.T) {
	m := newManager(t)
	m.Timeout = 5 * time.Second
	m.Lock(1, 10, []byte("r"), Exclusive)
	got := make(chan error, 1)
	go func() { got <- m.Lock(2, 10, []byte("r"), Exclusive) }()
	time.Sleep(20 * time.Millisecond)
	if err := m.ReleaseAll(1); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-got:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("waiter never woke")
	}
}

func TestUnlockSingle(t *testing.T) {
	m := newManager(t)
	m.Lock(1, 10, []byte("a"), Exclusive)
	m.Lock(1, 10, []byte("b"), Exclusive)
	if err := m.Unlock(1, 10, []byte("a")); err != nil {
		t.Fatal(err)
	}
	n, _ := m.Held(1)
	if n != 1 {
		t.Fatalf("held %d, want 1", n)
	}
}

func TestManyLocksGrowBuckets(t *testing.T) {
	// The extensible hash table must grow without any tuning knob: take
	// thousands of row locks in one transaction.
	m := newManager(t)
	const n = 5000
	for i := 0; i < n; i++ {
		if err := m.Lock(1, uint64(i%7), []byte(fmt.Sprintf("row-%d", i)), Exclusive); err != nil {
			t.Fatalf("lock %d: %v", i, err)
		}
	}
	held, err := m.Held(1)
	if err != nil {
		t.Fatal(err)
	}
	if held != n {
		t.Fatalf("held %d, want %d", held, n)
	}
	if m.Buckets() < 8 {
		t.Fatalf("buckets = %d, expected the table to have split many times", m.Buckets())
	}
	if err := m.ReleaseAll(1); err != nil {
		t.Fatal(err)
	}
	held, _ = m.Held(1)
	if held != 0 {
		t.Fatalf("still holding %d after ReleaseAll", held)
	}
	// Table still functional after mass release.
	if err := m.Lock(2, 1, []byte("post"), Exclusive); err != nil {
		t.Fatal(err)
	}
}

// TestDirectoryShrinksAfterBulkRelease: what one bulk transaction grew must
// not tax every later commit. Releasing it coalesces the emptied buckets,
// halves the directory and frees the pages, and a second bulk transaction
// reuses them instead of growing the temporary file.
func TestDirectoryShrinksAfterBulkRelease(t *testing.T) {
	m := newManager(t)
	bulk := func(txn uint64) {
		t.Helper()
		for i := 0; i < 5000; i++ {
			if err := m.Lock(txn, 3, []byte(fmt.Sprintf("row-%d", i)), Exclusive); err != nil {
				t.Fatal(err)
			}
		}
		if m.Buckets() < 8 {
			t.Fatalf("buckets = %d during the bulk transaction", m.Buckets())
		}
		// A bystander's lock survives the coalescing around it.
		if err := m.Lock(99, 3, []byte("bystander"), Shared); err != nil {
			t.Fatal(err)
		}
		if err := m.ReleaseAll(txn); err != nil {
			t.Fatal(err)
		}
		if n, _ := m.Held(99); n != 1 {
			t.Fatalf("bystander holds %d locks after the bulk release", n)
		}
		if err := m.Lock(txn+1, 3, []byte("bystander"), Exclusive); err != ErrTimeout {
			t.Fatalf("X against the bystander's S: %v", err)
		}
		if err := m.ReleaseAll(99); err != nil {
			t.Fatal(err)
		}
		if b := m.Buckets(); b > 2 {
			t.Fatalf("buckets = %d after the bulk release, want ≤ 2", b)
		}
		if len(m.dir) > 2 || len(m.held) != 0 {
			t.Fatalf("directory has %d slots, held lists %d transactions", len(m.dir), len(m.held))
		}
	}
	m.Timeout = 20 * time.Millisecond
	bulk(1)
	pages := m.st.PageCount(store.TempFile)
	bulk(3)
	if got := m.st.PageCount(store.TempFile); got > pages {
		t.Fatalf("temporary file grew from %d to %d pages over a second bulk transaction", pages, got)
	}
}

// TestHeldListTracksCells: the held list has one hash per lock record, so
// the O(1) count and the count read from the pages agree through S+IX on
// one object, an upgrade that subsumes both, and Unlock.
func TestHeldListTracksCells(t *testing.T) {
	m := newManager(t)
	check := func(want int) {
		t.Helper()
		inPages, err := m.Held(1)
		if err != nil {
			t.Fatal(err)
		}
		if inPages != want || m.HeldCount(1) != want {
			t.Fatalf("pages hold %d records, held list %d, want %d", inPages, m.HeldCount(1), want)
		}
	}
	m.Lock(1, 10, nil, Shared)
	m.Lock(1, 10, nil, IntentExclusive)
	m.Lock(1, 10, []byte("row"), Shared)
	m.Lock(1, 10, []byte("row"), Shared) // re-entrant: no new record
	check(3)
	m.Lock(1, 10, nil, Exclusive) // subsumes the S and the IX
	check(2)
	if err := m.Unlock(1, 10, []byte("row")); err != nil {
		t.Fatal(err)
	}
	check(1)
	if err := m.Unlock(1, 10, nil); err != nil {
		t.Fatal(err)
	}
	check(0)
	if len(m.held) != 0 {
		t.Fatalf("%d held lists left behind", len(m.held))
	}
}

// readFault is a fault injector that fails a page read when the function
// returns an error for that page; every other operation passes through.
type readFault func(id store.PageID) error

func (f readFault) Fault(op faultinject.Op, arg uint64, _ []byte) ([]byte, error) {
	if op == faultinject.OpRead {
		return nil, f(store.PageID(arg))
	}
	return nil, nil
}

func (readFault) Crashpoint(string) error { return nil }

// TestReleaseAllResumesAfterReadError: when a bucket page cannot be read
// back, ReleaseAll reports it, counts it, and keeps the unreleased locks on
// the held list, so that calling it again finishes the release.
func TestReleaseAllResumesAfterReadError(t *testing.T) {
	var failReads atomic.Bool
	st, err := store.Open(store.Options{Injector: readFault(func(id store.PageID) error {
		if failReads.Load() {
			return fmt.Errorf("injected read fault on %v", id)
		}
		return nil
	})})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	// Four frames: most of the bucket pages live in the temporary file.
	m, err := NewManager(buffer.New(st, 4, 4, 4), st)
	if err != nil {
		t.Fatal(err)
	}
	const n = 3000
	for i := 0; i < n; i++ {
		if err := m.Lock(1, 3, []byte(fmt.Sprintf("row-%d", i)), Exclusive); err != nil {
			t.Fatal(err)
		}
	}
	failReads.Store(true)
	if err := m.ReleaseAll(1); err == nil {
		t.Fatal("ReleaseAll succeeded with every bucket read failing")
	}
	failReads.Store(false)
	if left := m.HeldCount(1); left == 0 || left > n {
		t.Fatalf("held list has %d entries after the failed release", left)
	}
	if got := m.releaseErrors.Load(); got != 1 {
		t.Fatalf("lock.release_errors = %d, want 1", got)
	}
	if err := m.ReleaseAll(1); err != nil {
		t.Fatalf("retry: %v", err)
	}
	if held, err := m.Held(1); err != nil || held != 0 || m.HeldCount(1) != 0 {
		t.Fatalf("after the retry: %d records, %v", held, err)
	}
	m.Timeout = 20 * time.Millisecond
	for i := 0; i < n; i += 97 {
		if err := m.Lock(2, 3, []byte(fmt.Sprintf("row-%d", i)), Exclusive); err != nil {
			t.Fatalf("row-%d is still locked: %v", i, err)
		}
	}
}

// kvRow is a row lock's key in the benchmark's kv schema: the 12-byte
// record id the table layer locks.
func kvRow(i int) []byte {
	var b [12]byte
	binary.LittleEndian.PutUint64(b[:], uint64(store.MakePageID(store.MainFile, uint64(1+i/100))))
	binary.LittleEndian.PutUint32(b[8:], uint32(i%100))
	return b[:]
}

// TestAllocationGuards pins what in-place bucket access buys: a lock call
// allocates its transaction's held list and nothing per cell compared.
func TestAllocationGuards(t *testing.T) {
	m := newManager(t)
	row := kvRow(7)
	// Other holders' records in the bucket must not cost anything either.
	for i := 0; i < 50; i++ {
		if err := m.Lock(uint64(100+i), 5, kvRow(1000+i), Exclusive); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Lock(1, 5, row, Exclusive); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() { m.Lock(1, 5, row, Exclusive) }); n != 0 {
		t.Errorf("re-entrant Lock: %v allocations, want 0", n)
	}
	m.ReleaseAll(1)
	if n := testing.AllocsPerRun(100, func() {
		m.Lock(2, 5, row, Exclusive)
		m.ReleaseAll(2)
	}); n > 3 {
		t.Errorf("Lock + ReleaseAll of one row: %v allocations, want ≤ 3", n)
	}
}

// BenchmarkLockAcquireRelease is the lock work of a one-row write statement
// in the kv schema: intent on the table, X on the row, release at commit.
func BenchmarkLockAcquireRelease(b *testing.B) {
	st, err := store.Open(store.Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	pool := buffer.New(st, 4, 128, 256)
	m, err := NewManager(pool, st)
	if err != nil {
		b.Fatal(err)
	}
	rows := make([][]byte, 1024)
	for i := range rows {
		rows[i] = kvRow(i)
	}
	before := pins(pool)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		txn := uint64(i + 1)
		if err := m.Lock(txn, 5, nil, IntentExclusive); err != nil {
			b.Fatal(err)
		}
		if err := m.Lock(txn, 5, rows[i%len(rows)], Exclusive); err != nil {
			b.Fatal(err)
		}
		if err := m.ReleaseAll(txn); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(pins(pool)-before)/float64(b.N), "pins/op")
}

// pins is the number of page pins pool has served.
func pins(pool *buffer.Pool) uint64 {
	st := pool.Stats()
	return st.Hits + st.Misses
}

// TestTableLocksPinNoPage: a table lock is an in-memory record. Taking,
// upgrading and releasing one reads no bucket page and grows no bucket.
func TestTableLocksPinNoPage(t *testing.T) {
	m := newManager(t)
	before, buckets := pins(m.pool), m.Buckets()
	for txn := uint64(1); txn <= 100; txn++ {
		if err := m.Lock(txn, 5, nil, IntentExclusive); err != nil {
			t.Fatal(err)
		}
		if err := m.Lock(txn+1000, 6, nil, Exclusive); err != nil {
			t.Fatal(err)
		}
		if err := m.Unlock(txn+1000, 6, nil); err != nil {
			t.Fatal(err)
		}
		if err := m.ReleaseAll(txn); err != nil {
			t.Fatal(err)
		}
	}
	if got := pins(m.pool) - before; got != 0 {
		t.Errorf("table locks pinned %d pages, want 0", got)
	}
	if got := m.Buckets(); got != buckets {
		t.Errorf("lock.buckets went %d → %d", buckets, got)
	}
	if len(m.held) != 0 || len(m.tables) != 0 {
		t.Errorf("%d held lists and %d table records left behind", len(m.held), len(m.tables))
	}
}

// TestTableXNotStarvedByIntents: a stream of writers' IX requests on a table
// from four goroutines, each held briefly and always overlapping, must not
// starve an X request (DDL's): once it waits, new intents queue behind it,
// the current holders drain, and it is granted well inside its timeout.
func TestTableXNotStarvedByIntents(t *testing.T) {
	m := newManager(t)
	m.Timeout = 5 * time.Second
	var next atomic.Uint64
	next.Store(100)
	var granted atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				txn := next.Add(1)
				if err := m.Lock(txn, 10, nil, IntentExclusive); err != nil {
					errs <- err
					return
				}
				granted.Add(1)
				time.Sleep(200 * time.Microsecond)
				if err := m.ReleaseAll(txn); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	for granted.Load() < 200 && len(errs) == 0 {
		time.Sleep(time.Millisecond)
	}
	if err := m.Lock(1, 10, nil, Exclusive); err != nil {
		t.Fatalf("X under a steady IX stream: %v", err)
	}
	at := granted.Load()
	time.Sleep(2 * time.Millisecond)
	if granted.Load() != at {
		t.Errorf("an IX was granted beside the X")
	}
	if err := m.ReleaseAll(1); err != nil {
		t.Fatal(err)
	}
	for granted.Load() < at+100 && len(errs) == 0 { // the stream resumes
		time.Sleep(time.Millisecond)
	}
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("IX stream: %v", err)
	}
}

func TestConcurrentDisjointLocks(t *testing.T) {
	m := newManager(t)
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				key := []byte(fmt.Sprintf("w%d-row%d", w, i))
				if err := m.Lock(uint64(w+1), 5, key, Exclusive); err != nil {
					errs <- err
					return
				}
			}
			if err := m.ReleaseAll(uint64(w + 1)); err != nil {
				errs <- err
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestModeString(t *testing.T) {
	if Shared.String() != "S" || Exclusive.String() != "X" {
		t.Fatal("Mode.String")
	}
}

// TestLockWaitSingleTimer is the regression test for the wait-loop timer
// leak: the old loop called time.After(remain) on every iteration, so a
// waiter woken (and re-blocked) N times left N timers pending, each alive
// until the full Timeout elapsed. The fixed loop must create exactly one
// timer per contended Lock call no matter how many spurious wake-ups it
// absorbs.
func TestLockWaitSingleTimer(t *testing.T) {
	m := newManager(t)
	m.Timeout = 30 * time.Second // long enough that leaked timers would linger

	var created atomic.Int64
	orig := newWaitTimer
	newWaitTimer = func(d time.Duration) *time.Timer {
		created.Add(1)
		return time.NewTimer(d)
	}
	defer func() { newWaitTimer = orig }()

	hot := []byte("hot-row")
	if err := m.Lock(1, 10, hot, Exclusive); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- m.Lock(2, 10, hot, Exclusive) }()

	// Wait for the contender to block (lock.waits: once per blocked call),
	// then force wake-retry iterations by releasing unrelated locks (every
	// release broadcasts; lock.wakeups counts one per woken re-check).
	waitFor := func(c *atomic.Uint64, n uint64) {
		deadline := time.Now().Add(10 * time.Second)
		for c.Load() < n {
			if time.Now().After(deadline) {
				t.Fatalf("contender reached count %d, want %d", c.Load(), n)
			}
			time.Sleep(100 * time.Microsecond)
		}
	}
	waitFor(&m.waits, 1)
	const spuriousWakes = 200
	for i := 0; i < spuriousWakes; i++ {
		target := m.wakeups.Load() + 1
		if err := m.Lock(3, 99, []byte("cold"), Shared); err != nil {
			t.Fatal(err)
		}
		if err := m.Unlock(3, 99, []byte("cold")); err != nil {
			t.Fatal(err)
		}
		waitFor(&m.wakeups, target)
	}

	if err := m.ReleaseAll(1); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatalf("contender failed: %v", err)
	}
	if got := created.Load(); got != 1 {
		t.Fatalf("contended Lock created %d timers across %d wake-ups, want exactly 1", got, spuriousWakes)
	}
	// One blocked call, however often it was woken.
	if w, k := m.waits.Load(), m.wakeups.Load(); w != 1 || k != spuriousWakes+1 {
		t.Fatalf("lock.waits = %d, lock.wakeups = %d; want 1 and %d", w, k, spuriousWakes+1)
	}
}

// TestLockContentionNoPileup hammers one hot key from many goroutines and
// checks the process returns to its baseline goroutine count: no waiter,
// timer goroutine, or broadcast listener may outlive the workload.
func TestLockContentionNoPileup(t *testing.T) {
	m := newManager(t)
	m.Timeout = 30 * time.Second
	base := runtime.NumGoroutine()

	hot := []byte("contended")
	const workers = 16
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			id := uint64(w + 1)
			for i := 0; i < 50; i++ {
				if err := m.Lock(id, 7, hot, Exclusive); err != nil {
					errs <- err
					return
				}
				// Hold briefly so other workers genuinely block.
				time.Sleep(20 * time.Microsecond)
				if err := m.ReleaseAll(id); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if m.waits.Load() == 0 {
		t.Fatal("workload was never contended; test proves nothing")
	}

	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base+2 {
		if time.Now().After(deadline) {
			t.Fatalf("goroutine pileup: %d running, baseline %d", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestIntentExclusiveMatrix(t *testing.T) {
	m := newManager(t)
	m.Timeout = 50 * time.Millisecond
	// Two writers declare intent on the same table: compatible.
	if err := m.Lock(1, 10, nil, IntentExclusive); err != nil {
		t.Fatal(err)
	}
	if err := m.Lock(2, 10, nil, IntentExclusive); err != nil {
		t.Fatal(err)
	}
	// A locking reader's table-S blocks behind either intent.
	if err := m.Lock(3, 10, nil, Shared); err != ErrTimeout {
		t.Fatalf("S vs IX: want timeout, got %v", err)
	}
	// X blocks behind both intents too.
	if err := m.Lock(3, 10, nil, Exclusive); err != ErrTimeout {
		t.Fatalf("X vs IX: want timeout, got %v", err)
	}
	m.ReleaseAll(1)
	m.ReleaseAll(2)
	// With intents gone, readers share the table.
	if err := m.Lock(3, 10, nil, Shared); err != nil {
		t.Fatal(err)
	}
	if err := m.Lock(4, 10, nil, Shared); err != nil {
		t.Fatal(err)
	}
	// And a writer's intent now blocks behind the readers.
	if err := m.Lock(5, 10, nil, IntentExclusive); err != ErrTimeout {
		t.Fatalf("IX vs S: want timeout, got %v", err)
	}
	// Once the other reader is gone, the sole S holder may add its own
	// intent (SIX shape: reads the table, writes some rows).
	m.ReleaseAll(4)
	if err := m.Lock(3, 10, nil, IntentExclusive); err != nil {
		t.Fatalf("self S+IX: %v", err)
	}
	// That SIX combination excludes both new readers and new writers.
	if err := m.Lock(6, 10, nil, Shared); err != ErrTimeout {
		t.Fatalf("S vs SIX: want timeout, got %v", err)
	}
	if err := m.Lock(6, 10, nil, IntentExclusive); err != ErrTimeout {
		t.Fatalf("IX vs SIX: want timeout, got %v", err)
	}
}

// TestLockCtxCancelStopsTimer pins the context-cancellation exit paths of
// LockCtx: a waiter whose context is cancelled — including the window
// between a broadcast wake-up and the re-check under the mutex — must
// return the context error without acquiring the lock, and must stop its
// single wait timer on the way out (the seam would otherwise leak one
// timer per cancelled waiter, each lingering until the full Timeout).
func TestLockCtxCancelStopsTimer(t *testing.T) {
	m := newManager(t)
	m.Timeout = 30 * time.Second

	var mu sync.Mutex
	var timers []*time.Timer
	orig := newWaitTimer
	newWaitTimer = func(d time.Duration) *time.Timer {
		tm := time.NewTimer(d)
		mu.Lock()
		timers = append(timers, tm)
		mu.Unlock()
		return tm
	}
	defer func() { newWaitTimer = orig }()

	hot := []byte("hot-row")
	waitForBlock := func(n uint64) {
		deadline := time.Now().Add(10 * time.Second)
		for m.waits.Load() < n {
			if time.Now().After(deadline) {
				t.Fatalf("contender reached %d waits, want %d", m.waits.Load(), n)
			}
			time.Sleep(100 * time.Microsecond)
		}
	}

	const rounds = 50
	for i := 0; i < rounds; i++ {
		if err := m.Lock(1, 10, hot, Exclusive); err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan error, 1)
		go func() { done <- m.LockCtx(ctx, 2, 10, hot, Exclusive) }()
		waitForBlock(uint64(i + 1))

		// Cancel first, then wake the waiter. The cancellation
		// happens-before the broadcast, so whichever select arm fires —
		// the done channel, or the broadcast followed by the re-check —
		// the waiter must come back cancelled, never granted. Alternate
		// between a wake that would have granted the lock (ReleaseAll)
		// and a spurious wake on an unrelated key, which forces the
		// woken waiter through the cancelled re-check.
		cancel()
		if i%2 == 0 {
			if err := m.ReleaseAll(1); err != nil {
				t.Fatal(err)
			}
		} else {
			if err := m.Lock(3, 99, []byte("cold"), Shared); err != nil {
				t.Fatal(err)
			}
			if err := m.Unlock(3, 99, []byte("cold")); err != nil {
				t.Fatal(err)
			}
		}
		err := <-done
		if err != context.Canceled {
			t.Fatalf("round %d: LockCtx returned %v, want context.Canceled", i, err)
		}
		if n, _ := m.Held(2); n != 0 {
			t.Fatalf("round %d: cancelled waiter holds %d locks", i, n)
		}
		if err := m.ReleaseAll(1); err != nil {
			t.Fatal(err)
		}
		if err := m.ReleaseAll(3); err != nil {
			t.Fatal(err)
		}
	}

	mu.Lock()
	defer mu.Unlock()
	if len(timers) != rounds {
		t.Fatalf("created %d timers across %d cancelled waits, want exactly %d", len(timers), rounds, rounds)
	}
	for i, tm := range timers {
		// Stop reports false when the timer was already stopped (it cannot
		// have fired: the deadline was 30s away). A true return means the
		// cancelled exit path left it running — the leak.
		if tm.Stop() {
			t.Fatalf("timer %d was still running after LockCtx returned: leaked on the cancellation path", i)
		}
	}
}

// TestLockCtxAlreadyCancelled: a context cancelled before the call must
// fail fast without creating a timer or blocking.
func TestLockCtxAlreadyCancelled(t *testing.T) {
	m := newManager(t)
	var created atomic.Int64
	orig := newWaitTimer
	newWaitTimer = func(d time.Duration) *time.Timer {
		created.Add(1)
		return time.NewTimer(d)
	}
	defer func() { newWaitTimer = orig }()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := m.LockCtx(ctx, 1, 10, []byte("k"), Exclusive); err != context.Canceled {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	if n, _ := m.Held(1); n != 0 {
		t.Fatalf("cancelled call acquired %d locks", n)
	}
	if created.Load() != 0 {
		t.Fatalf("cancelled call created %d timers", created.Load())
	}
}

// Held counts the lock records txn owns — its row-lock cells, reading each
// bucket on its held list once, and one per mode it holds on each table
// (the page-reading count the tests compare HeldCount against).
func (m *Manager) Held(txn uint64) (int, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	hd := m.held[txn]
	if hd == nil {
		return 0, nil
	}
	total := hd.tableCount()
	for _, h := range m.perBucket(hd.rows) {
		f, err := m.latchBucket(h)
		if err != nil {
			return 0, err
		}
		for i, n := 0, f.Data.NumSlots(); i < n; i++ {
			if c := f.Data.Cell(i); c != nil {
				if _, holder, _, _ := cellFields(c); holder == txn {
					total++
				}
			}
		}
		m.unlatch(f, false)
	}
	return total, nil
}

// Unlock releases one lock held by txn: every mode it holds on the table
// obj (nil key) or on its row key.
func (m *Manager) Unlock(txn, obj uint64, key []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if key == nil {
		if hd, i, _ := m.tableModes(txn, obj); i >= 0 {
			m.releaseTable(hd.tables[i])
			hd.tables = slices.Delete(hd.tables, i, i+1)
			m.settle(txn, hd)
		}
	} else {
		h := hashLock(obj, key)
		n, err := m.release(h, txn, false, obj, key)
		m.forget(txn, h, n)
		if err != nil {
			return err
		}
	}
	m.releases.Add(1)
	m.wake()
	return nil
}
