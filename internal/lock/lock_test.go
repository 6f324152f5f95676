package lock

import (
	"context"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// Lock is LockCtx with no deadline: a request the tests expect granted,
// or granted once another goroutine releases.
func (m *Manager) Lock(txn, obj uint64, mode Mode) error {
	_, err := m.LockCtx(context.Background(), txn, obj, mode)
	return err
}

// mustBlock fails the test unless txn's request for mode on obj blocks: it
// is made under a short statement context, which must end it.
func mustBlock(t *testing.T, m *Manager, txn, obj uint64, mode Mode) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if waited, err := m.LockCtx(ctx, txn, obj, mode); err != context.DeadlineExceeded || waited <= 0 {
		t.Fatalf("txn %d asking %v on %d: %v after %v, want to block until its context ends", txn, mode, obj, err, waited)
	}
}

func TestExclusiveConflicts(t *testing.T) {
	m := NewManager()
	if err := m.Lock(1, 10, Exclusive); err != nil {
		t.Fatal(err)
	}
	mustBlock(t, m, 2, 10, IntentExclusive)
	mustBlock(t, m, 2, 10, Exclusive)
	// Different table: no conflict.
	if err := m.Lock(2, 11, Exclusive); err != nil {
		t.Fatal(err)
	}
}

func TestReacquireAndUpgrade(t *testing.T) {
	m := NewManager()
	if err := m.Lock(1, 10, IntentExclusive); err != nil {
		t.Fatal(err)
	}
	// Re-acquiring the same mode is a no-op.
	if err := m.Lock(1, 10, IntentExclusive); err != nil {
		t.Fatal(err)
	}
	// Upgrade succeeds while sole holder.
	if err := m.Lock(1, 10, Exclusive); err != nil {
		t.Fatal(err)
	}
	// And the weaker mode is then re-entrant too.
	if err := m.Lock(1, 10, IntentExclusive); err != nil {
		t.Fatal(err)
	}
	if n := m.HeldCount(1); n != 1 {
		t.Fatalf("after upgrade txn1 holds %d entries, want 1", n)
	}
	// Now another writer's intent must block.
	mustBlock(t, m, 2, 10, IntentExclusive)
	m.ReleaseAll(1)
	if len(m.held) != 0 || len(m.tables) != 0 {
		t.Fatalf("%d held lists and %d table records left behind", len(m.held), len(m.tables))
	}
}

func TestWaiterWakesOnRelease(t *testing.T) {
	m := NewManager()
	m.Lock(1, 10, Exclusive)
	got := make(chan error, 1)
	go func() { got <- m.Lock(2, 10, Exclusive) }()
	time.Sleep(20 * time.Millisecond)
	m.ReleaseAll(1)
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
	m := NewManager()
	m.Lock(1, 10, Exclusive)
	m.Lock(1, 11, Exclusive)
	m.Unlock(1, 10)
	if n := m.HeldCount(1); n != 1 {
		t.Fatalf("held %d, want 1", n)
	}
}

// TestWaitForRules: WaitFor returns at once for a holder that holds
// nothing and for the caller itself; otherwise it blocks until the
// holder's ReleaseAll or the end of its ctx, through the wait loop Lock
// uses — one observer call with the blocked microseconds, the time WaitFor
// returns, and lock.row_waits and lock.waits moved by one — and leaves the
// waiter holding nothing.
func TestWaitForRules(t *testing.T) {
	m := NewManager()
	rowWaits := m.RowWaits.Load
	var mu sync.Mutex
	var observed []int64
	m.SetWaitObserver(func(us int64) {
		mu.Lock()
		observed = append(observed, us)
		mu.Unlock()
	})
	observations := func() []int64 {
		mu.Lock()
		defer mu.Unlock()
		return slices.Clone(observed)
	}
	blocked := func(n uint64) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for m.Waits.Load() < n {
			if time.Now().After(deadline) {
				t.Fatalf("waiter reached %d waits, want %d", m.Waits.Load(), n)
			}
			time.Sleep(100 * time.Microsecond)
		}
	}
	ctx := context.Background()
	const holder, waiter, gone = 1, 2, 3

	// A holder that holds nothing — settled, rolled back, or never locked —
	// and the caller itself are not waited for.
	if waited, err := m.WaitFor(ctx, waiter, gone); err != nil || waited != 0 {
		t.Fatalf("wait for a transaction that holds nothing: %v, blocked %v", err, waited)
	}
	m.Lock(holder, 10, IntentExclusive)
	if waited, err := m.WaitFor(ctx, holder, holder); err != nil || waited != 0 {
		t.Fatalf("wait for itself: %v, blocked %v", err, waited)
	}
	if rowWaits() != 0 || m.Waits.Load() != 0 || len(observations()) != 0 {
		t.Fatalf("calls that did not wait counted %d row waits, %d waits, %d observations",
			rowWaits(), m.Waits.Load(), len(observations()))
	}

	// A live holder is waited for until its ReleaseAll, and not a moment
	// less: another transaction's release wakes the waiter, which waits on.
	type result struct {
		waited time.Duration
		err    error
	}
	done := make(chan result, 1)
	go func() {
		waited, err := m.WaitFor(ctx, waiter, holder)
		done <- result{waited, err}
	}()
	blocked(1)
	spuriousWake(t, m)
	const held = 20 * time.Millisecond
	select {
	case r := <-done:
		t.Fatalf("WaitFor returned %v while the holder still held its lock", r.err)
	case <-time.After(held):
	}
	m.ReleaseAll(holder)
	r := <-done
	if r.err != nil {
		t.Fatalf("WaitFor after the holder released: %v", r.err)
	}
	if got := rowWaits(); got != 1 {
		t.Fatalf("lock.row_waits = %d, want 1", got)
	}
	if obs := observations(); len(obs) != 1 || obs[0] < held.Microseconds() || obs[0] != r.waited.Microseconds() {
		t.Fatalf("observer saw %v, want one wait of at least %d µs, the %v WaitFor returned", obs, held.Microseconds(), r.waited)
	}
	if m.HeldCount(waiter) != 0 {
		t.Fatal("a wait left the waiter holding a lock")
	}

	// A holder that never ends is waited for until the statement's
	// deadline.
	m.Lock(holder, 10, IntentExclusive)
	dctx, dcancel := context.WithTimeout(ctx, 20*time.Millisecond)
	waited, err := m.WaitFor(dctx, waiter, holder)
	dcancel()
	if err != context.DeadlineExceeded || waited <= 0 {
		t.Fatalf("WaitFor on a holder that never ends: %v after %v, want the deadline after a block", err, waited)
	}
	if rowWaits() != 2 || len(observations()) != 2 {
		t.Fatalf("after the deadline: %d row waits, %d observations; want 2 and 2", rowWaits(), len(observations()))
	}

	// And a cancel.
	cctx, cancel := context.WithCancel(ctx)
	go func() {
		waited, err := m.WaitFor(cctx, waiter, holder)
		done <- result{waited, err}
	}()
	blocked(3)
	cancel()
	if r := <-done; r.err != context.Canceled || r.waited <= 0 {
		t.Fatalf("cancelled WaitFor: %v after %v, want context.Canceled after a block", r.err, r.waited)
	}
	if waited, err := m.WaitFor(cctx, waiter, holder); err != context.Canceled || waited != 0 {
		t.Fatalf("WaitFor under a cancelled context: %v after %v, want context.Canceled at once", err, waited)
	}
	if m.Waits.Load() != 3 || len(observations()) != 3 {
		t.Fatalf("%d waits and %d observations, want 3 and 3", m.Waits.Load(), len(observations()))
	}
	m.ReleaseAll(holder)
	if m.HeldCount(holder) != 0 {
		t.Fatal("a released holder still holds")
	}
}

// TestAllocationGuards: a re-entrant lock request and a wait for a settled
// transaction allocate nothing, and a transaction's table intent and its
// release allocate nothing once the manager has recycled a held list.
func TestAllocationGuards(t *testing.T) {
	m := NewManager()
	// Other holders' records must not cost anything either.
	for i := 0; i < 50; i++ {
		if err := m.Lock(uint64(100+i), uint64(1000+i), Exclusive); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Lock(1, 5, IntentExclusive); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() { m.Lock(1, 5, IntentExclusive) }); n != 0 {
		t.Errorf("re-entrant Lock: %v allocations, want 0", n)
	}
	m.ReleaseAll(1)
	if n := testing.AllocsPerRun(100, func() { m.WaitFor(context.Background(), 2, 1) }); n != 0 {
		t.Errorf("WaitFor a settled transaction: %v allocations, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		m.Lock(2, 5, IntentExclusive)
		m.ReleaseAll(2)
	}); n != 0 {
		t.Errorf("Lock + ReleaseAll of a table intent: %v allocations, want 0", n)
	}
}

// BenchmarkLockAcquireRelease is the lock work of a one-row write
// statement: intent on the table, release at commit.
func BenchmarkLockAcquireRelease(b *testing.B) {
	m := NewManager()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		txn := uint64(i + 1)
		if err := m.Lock(txn, 5, IntentExclusive); err != nil {
			b.Fatal(err)
		}
		m.ReleaseAll(txn)
	}
}

// TestTableLocksPinNoPage: a table lock is an in-memory record. Taking,
// upgrading and releasing one leaves no record behind, and the held lists
// are recycled.
func TestTableLocksPinNoPage(t *testing.T) {
	m := NewManager()
	for txn := uint64(1); txn <= 100; txn++ {
		if err := m.Lock(txn, 5, IntentExclusive); err != nil {
			t.Fatal(err)
		}
		if err := m.Lock(txn+1000, 6, IntentExclusive); err != nil {
			t.Fatal(err)
		}
		if err := m.Lock(txn+1000, 6, Exclusive); err != nil {
			t.Fatal(err)
		}
		m.Unlock(txn+1000, 6)
		m.ReleaseAll(txn)
	}
	if len(m.held) != 0 || len(m.tables) != 0 {
		t.Errorf("%d held lists and %d table records left behind", len(m.held), len(m.tables))
	}
	if len(m.free) != 1 {
		t.Errorf("%d held lists kept for reuse, want 1", len(m.free))
	}
}

// TestTableXNotStarvedByIntents: a stream of writers' IX requests on a table
// from four goroutines, each held briefly and always overlapping, must not
// starve an X request (DDL's): once it waits, new intents queue behind it,
// the current holders drain, and it is granted.
func TestTableXNotStarvedByIntents(t *testing.T) {
	m := NewManager()
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
				if err := m.Lock(txn, 10, IntentExclusive); err != nil {
					errs <- err
					return
				}
				granted.Add(1)
				time.Sleep(200 * time.Microsecond)
				m.ReleaseAll(txn)
			}
		}()
	}
	for granted.Load() < 200 && len(errs) == 0 {
		time.Sleep(time.Millisecond)
	}
	if err := m.Lock(1, 10, Exclusive); err != nil {
		t.Fatalf("X under a steady IX stream: %v", err)
	}
	at := granted.Load()
	time.Sleep(2 * time.Millisecond)
	if granted.Load() != at {
		t.Errorf("an IX was granted beside the X")
	}
	m.ReleaseAll(1)
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
	m := NewManager()
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if err := m.Lock(uint64(w+1), uint64(w*1000+i), Exclusive); err != nil {
					errs <- err
					return
				}
			}
			if n := m.HeldCount(uint64(w + 1)); n != 200 {
				t.Errorf("worker %d holds %d locks, want 200", w, n)
			}
			m.ReleaseAll(uint64(w + 1))
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if len(m.held) != 0 || len(m.tables) != 0 {
		t.Fatalf("%d held lists and %d table records left behind", len(m.held), len(m.tables))
	}
}

func TestModeString(t *testing.T) {
	if IntentExclusive.String() != "IX" || Exclusive.String() != "X" {
		t.Fatal("Mode.String")
	}
}

// waitArms are the two kinds of blocked call, for the wait-loop tests:
// each blocks txn 2 behind txn 1, which holds table 10 exclusively.
var waitArms = []struct {
	name string
	wait func(m *Manager, ctx context.Context) error
}{
	{"table", func(m *Manager, ctx context.Context) error { _, err := m.LockCtx(ctx, 2, 10, Exclusive); return err }},
	{"txn", func(m *Manager, ctx context.Context) error { _, err := m.WaitFor(ctx, 2, 1); return err }},
}

// spuriousWake wakes every waiter without ending txn 1: an unrelated
// transaction takes and releases a lock on another table.
func spuriousWake(t *testing.T, m *Manager) {
	t.Helper()
	if err := m.Lock(3, 99, Exclusive); err != nil {
		t.Fatal(err)
	}
	m.ReleaseAll(3)
}

// TestLockWaitSingleTimer: a blocked call, a table lock or a wait for a
// transaction, is one wait however many spurious wake-ups it absorbs, and
// each wake-up is one re-check that blocks again.
func TestLockWaitSingleTimer(t *testing.T) {
	for _, arm := range waitArms {
		t.Run(arm.name, func(t *testing.T) {
			m := NewManager()
			if err := m.Lock(1, 10, Exclusive); err != nil {
				t.Fatal(err)
			}
			done := make(chan error, 1)
			go func() { done <- arm.wait(m, context.Background()) }()

			// Wait for the contender to block (lock.waits: once per blocked
			// call), then force wake-retry iterations by releasing unrelated
			// locks (every release broadcasts; lock.wakeups counts one per
			// woken re-check).
			waitFor := func(c *atomic.Uint64, n uint64) {
				deadline := time.Now().Add(10 * time.Second)
				for c.Load() < n {
					if time.Now().After(deadline) {
						t.Fatalf("contender reached count %d, want %d", c.Load(), n)
					}
					time.Sleep(100 * time.Microsecond)
				}
			}
			waitFor(&m.Waits, 1)
			const spuriousWakes = 200
			for i := 0; i < spuriousWakes; i++ {
				target := m.Wakeups.Load() + 1
				spuriousWake(t, m)
				waitFor(&m.Wakeups, target)
			}

			m.ReleaseAll(1)
			if err := <-done; err != nil {
				t.Fatalf("contender failed: %v", err)
			}
			// One blocked call, however often it was woken.
			if w, k := m.Waits.Load(), m.Wakeups.Load(); w != 1 || k != spuriousWakes+1 {
				t.Fatalf("lock.waits = %d, lock.wakeups = %d; want 1 and %d", w, k, spuriousWakes+1)
			}
		})
	}
}

// TestLockContentionNoPileup hammers one hot table from many goroutines and
// checks the process returns to its baseline goroutine count: no waiter
// or broadcast listener may outlive the workload.
func TestLockContentionNoPileup(t *testing.T) {
	m := NewManager()
	base := runtime.NumGoroutine()

	const workers = 16
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			id := uint64(w + 1)
			for i := 0; i < 50; i++ {
				if err := m.Lock(id, 7, Exclusive); err != nil {
					errs <- err
					return
				}
				// Hold briefly so other workers genuinely block.
				time.Sleep(20 * time.Microsecond)
				m.ReleaseAll(id)
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if m.Waits.Load() == 0 {
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
	m := NewManager()
	// Two writers declare intent on the same table: compatible.
	if err := m.Lock(1, 10, IntentExclusive); err != nil {
		t.Fatal(err)
	}
	if err := m.Lock(2, 10, IntentExclusive); err != nil {
		t.Fatal(err)
	}
	// X blocks behind both intents.
	mustBlock(t, m, 3, 10, Exclusive)
	// So does one intent's upgrade behind the other's.
	mustBlock(t, m, 1, 10, Exclusive)
	m.ReleaseAll(1)
	m.ReleaseAll(2)
	// With intents gone, X is granted, and a writer's intent blocks behind it.
	if err := m.Lock(3, 10, Exclusive); err != nil {
		t.Fatal(err)
	}
	mustBlock(t, m, 5, 10, IntentExclusive)
}

// TestLockCtxCancelStopsTimer pins the context-cancellation exit paths of
// the wait loop: a waiter whose context is cancelled — including the window
// between a broadcast wake-up and the re-check under the mutex — must
// return the context error without acquiring the lock or ending its wait,
// and leave no record of its wait behind.
func TestLockCtxCancelStopsTimer(t *testing.T) {
	for _, arm := range waitArms {
		t.Run(arm.name, func(t *testing.T) {
			m := NewManager()
			waitForBlock := func(n uint64) {
				deadline := time.Now().Add(10 * time.Second)
				for m.Waits.Load() < n {
					if time.Now().After(deadline) {
						t.Fatalf("contender reached %d waits, want %d", m.Waits.Load(), n)
					}
					time.Sleep(100 * time.Microsecond)
				}
			}

			const rounds = 50
			for i := 0; i < rounds; i++ {
				if err := m.Lock(1, 10, Exclusive); err != nil {
					t.Fatal(err)
				}
				ctx, cancel := context.WithCancel(context.Background())
				done := make(chan error, 1)
				go func() { done <- arm.wait(m, ctx) }()
				waitForBlock(uint64(i + 1))

				// Cancel first, then wake the waiter. The cancellation
				// happens-before the broadcast, so whichever select arm fires
				// — the done channel, or the broadcast followed by the
				// re-check — the waiter must come back cancelled, never
				// granted. Alternate between a wake that would have ended the
				// wait (ReleaseAll) and a spurious wake on an unrelated
				// table, which forces the woken waiter through the cancelled
				// re-check.
				cancel()
				if i%2 == 0 {
					m.ReleaseAll(1)
				} else {
					spuriousWake(t, m)
				}
				if err := <-done; err != context.Canceled {
					t.Fatalf("round %d: wait returned %v, want context.Canceled", i, err)
				}
				if n := m.HeldCount(2); n != 0 {
					t.Fatalf("round %d: cancelled waiter holds %d locks", i, n)
				}
				m.ReleaseAll(1)
				if len(m.tables) != 0 || len(m.waiting) != 0 {
					t.Fatalf("round %d: %d table records and %d waits left behind", i, len(m.tables), len(m.waiting))
				}
			}
		})
	}
}

// TestLockCtxAlreadyCancelled: a context cancelled before the call must
// fail fast without blocking.
func TestLockCtxAlreadyCancelled(t *testing.T) {
	m := NewManager()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := m.LockCtx(ctx, 1, 10, Exclusive); err != context.Canceled {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	if n := m.HeldCount(1); n != 0 {
		t.Fatalf("cancelled call acquired %d locks", n)
	}
	if m.Waits.Load() != 0 {
		t.Fatalf("cancelled call blocked %d times", m.Waits.Load())
	}
}

// blockedCall runs wait in a goroutine and returns once the manager has
// counted it blocked; its error arrives on the returned channel.
func blockedCall(t *testing.T, m *Manager, wait func() error) <-chan error {
	t.Helper()
	n := m.Waits.Load()
	done := make(chan error, 1)
	go func() { done <- wait() }()
	deadline := time.Now().Add(10 * time.Second)
	for m.Waits.Load() == n {
		select {
		case err := <-done:
			t.Fatalf("the call returned %v without blocking", err)
		default:
		}
		if time.Now().After(deadline) {
			t.Fatal("the call never blocked")
		}
		time.Sleep(100 * time.Microsecond)
	}
	return done
}

// mustRefuse fails the test unless wait is refused with ErrDeadlock at
// once: it never blocks, so lock.waits and the wait observer do not move,
// and lock.deadlocks moves by one.
func mustRefuse(t *testing.T, m *Manager, what string, wait func() (time.Duration, error)) {
	t.Helper()
	waits, deadlocks := m.Waits.Load(), m.Deadlocks.Load()
	if waited, err := wait(); err != ErrDeadlock || waited != 0 {
		t.Fatalf("%s: %v after %v, want ErrDeadlock at once", what, err, waited)
	}
	if m.Waits.Load() != waits || m.Deadlocks.Load() != deadlocks+1 {
		t.Fatalf("%s: lock.waits %d → %d, lock.deadlocks %d → %d; want unchanged and one more",
			what, waits, m.Waits.Load(), deadlocks, m.Deadlocks.Load())
	}
}

// TestRowCycleRefused: two writers each wait for the other's row. The
// second to wait closes the cycle and is refused at once; it keeps what it
// holds, and its end lets the first go on.
func TestRowCycleRefused(t *testing.T) {
	m := NewManager()
	var observed atomic.Int64
	m.SetWaitObserver(func(int64) { observed.Add(1) })
	ctx := context.Background()
	m.Lock(1, 10, IntentExclusive)
	m.Lock(2, 10, IntentExclusive)
	first := blockedCall(t, m, func() error { _, err := m.WaitFor(ctx, 1, 2); return err })
	mustRefuse(t, m, "the wait that closes the cycle", func() (time.Duration, error) { return m.WaitFor(ctx, 2, 1) })
	if observed.Load() != 0 {
		t.Fatalf("the refused call was observed as a wait")
	}
	if m.HeldCount(2) == 0 {
		t.Fatal("the victim lost its locks")
	}
	if v := m.Deadlocks.Load(); v != 1 {
		t.Fatalf("lock.deadlocks = %d, want 1", v)
	}
	m.ReleaseAll(2)
	if err := <-first; err != nil {
		t.Fatalf("the first waiter after the victim ended: %v", err)
	}
	m.ReleaseAll(1)
	if len(m.waiting) != 0 || len(m.tables) != 0 {
		t.Fatalf("%d waits and %d table records left behind", len(m.waiting), len(m.tables))
	}
}

// TestThreeTransactionCycle: DDL's table X waits behind a writer's intent,
// that writer waits for a second writer's row, and the second writer then
// meets a row of the DDL's transaction. The last wait closes the cycle
// through the table request and is refused; the others are granted in turn
// once the victim ends.
func TestThreeTransactionCycle(t *testing.T) {
	m := NewManager()
	ctx := context.Background()
	const w1, w2, ddl = 1, 2, 3
	m.Lock(w1, 10, IntentExclusive)
	m.Lock(w2, 11, IntentExclusive)
	m.Lock(ddl, 12, IntentExclusive)
	x := blockedCall(t, m, func() error { return m.Lock(ddl, 10, Exclusive) })
	row := blockedCall(t, m, func() error { _, err := m.WaitFor(ctx, w1, w2); return err })
	mustRefuse(t, m, "w2 waiting for the DDL's transaction", func() (time.Duration, error) { return m.WaitFor(ctx, w2, ddl) })
	m.ReleaseAll(w2)
	if err := <-row; err != nil {
		t.Fatalf("w1 after w2 ended: %v", err)
	}
	m.ReleaseAll(w1)
	if err := <-x; err != nil {
		t.Fatalf("the table X after w1 ended: %v", err)
	}
	m.ReleaseAll(ddl)
}

// TestTableCyclesRefused: cycles through table requests alone. Two intent
// holders that both upgrade to X wait for each other's grant; and a new
// intent queued behind a waiting X waits for that X, so the X's holder
// waiting for the new intent's transaction closes a cycle.
func TestTableCyclesRefused(t *testing.T) {
	m := NewManager()
	m.Lock(1, 10, IntentExclusive)
	m.Lock(2, 10, IntentExclusive)
	up := blockedCall(t, m, func() error { return m.Lock(1, 10, Exclusive) })
	mustRefuse(t, m, "the second upgrade", func() (time.Duration, error) {
		return m.LockCtx(context.Background(), 2, 10, Exclusive)
	})
	m.ReleaseAll(2)
	if err := <-up; err != nil {
		t.Fatalf("the first upgrade after the victim ended: %v", err)
	}
	m.ReleaseAll(1)

	m.Lock(1, 10, IntentExclusive)
	m.Lock(3, 11, IntentExclusive)
	x := blockedCall(t, m, func() error { return m.Lock(2, 10, Exclusive) })
	ix := blockedCall(t, m, func() error { return m.Lock(3, 10, IntentExclusive) })
	mustRefuse(t, m, "the intent holder waiting behind the queue", func() (time.Duration, error) {
		return m.WaitFor(context.Background(), 1, 3)
	})
	m.ReleaseAll(1)
	if err := <-x; err != nil {
		t.Fatalf("the X after its holder ended: %v", err)
	}
	m.ReleaseAll(2)
	if err := <-ix; err != nil {
		t.Fatalf("the queued intent after the X: %v", err)
	}
	m.ReleaseAll(3)
	if len(m.waiting) != 0 || len(m.tables) != 0 {
		t.Fatalf("%d waits and %d table records left behind", len(m.waiting), len(m.tables))
	}
}

// Unlock releases the lock txn holds on table obj.
func (m *Manager) Unlock(txn, obj uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if gs, i := m.grantOf(txn, obj); i >= 0 {
		tl := m.tables[obj]
		tl.granted[gs[i].mode]--
		m.putTable(obj, tl)
		if gs = slices.Delete(gs, i, i+1); len(gs) > 0 {
			m.held[txn] = gs
		} else {
			delete(m.held, txn)
		}
	}
	m.Releases.Add(1)
	m.wake()
}
