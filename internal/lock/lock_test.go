package lock

import (
	"context"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"anywheredb/internal/telemetry"
)

func TestExclusiveConflicts(t *testing.T) {
	m := NewManager()
	m.Timeout = 50 * time.Millisecond
	if err := m.Lock(1, 10, Exclusive); err != nil {
		t.Fatal(err)
	}
	if err := m.Lock(2, 10, IntentExclusive); err != ErrTimeout {
		t.Fatalf("want timeout, got %v", err)
	}
	if err := m.Lock(2, 10, Exclusive); err != ErrTimeout {
		t.Fatalf("want timeout, got %v", err)
	}
	// Different table: no conflict.
	if err := m.Lock(2, 11, Exclusive); err != nil {
		t.Fatal(err)
	}
}

func TestReacquireAndUpgrade(t *testing.T) {
	m := NewManager()
	m.Timeout = 50 * time.Millisecond
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
	if err := m.Lock(2, 10, IntentExclusive); err != ErrTimeout {
		t.Fatalf("want timeout after upgrade, got %v", err)
	}
	m.ReleaseAll(1)
	if len(m.held) != 0 || len(m.tables) != 0 {
		t.Fatalf("%d held lists and %d table records left behind", len(m.held), len(m.tables))
	}
}

func TestWaiterWakesOnRelease(t *testing.T) {
	m := NewManager()
	m.Timeout = 5 * time.Second
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
// holder's ReleaseAll, its Timeout or its ctx, through the wait loop Lock
// uses — one observer call with the blocked microseconds, the time WaitFor
// returns, and lock.row_waits and lock.waits moved by one — and leaves the
// waiter holding nothing.
func TestWaitForRules(t *testing.T) {
	m := NewManager()
	reg := telemetry.NewRegistry()
	m.AttachTelemetry(reg)
	rowWaits := func() int64 {
		v, _ := reg.Value("lock.row_waits")
		return v
	}
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
		for m.waits.Load() < n {
			if time.Now().After(deadline) {
				t.Fatalf("waiter reached %d waits, want %d", m.waits.Load(), n)
			}
			time.Sleep(100 * time.Microsecond)
		}
	}
	ctx := context.Background()
	const holder, waiter, gone = 1, 2, 3

	// A holder that holds nothing — settled, rolled back, or never locked —
	// and the caller itself are not waited for.
	m.Timeout = 0
	if waited, err := m.WaitFor(ctx, waiter, gone); err != nil || waited != 0 {
		t.Fatalf("wait for a transaction that holds nothing: %v, blocked %v", err, waited)
	}
	m.Lock(holder, 10, IntentExclusive)
	if waited, err := m.WaitFor(ctx, holder, holder); err != nil || waited != 0 {
		t.Fatalf("wait for itself: %v, blocked %v", err, waited)
	}
	if rowWaits() != 0 || m.waits.Load() != 0 || len(observations()) != 0 {
		t.Fatalf("calls that did not wait counted %d row waits, %d waits, %d observations",
			rowWaits(), m.waits.Load(), len(observations()))
	}

	// A live holder is waited for until its ReleaseAll, and not a moment
	// less: another transaction's release wakes the waiter, which waits on.
	m.Timeout = 5 * time.Second
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
	if m.Holds(waiter) || m.HeldCount(waiter) != 0 {
		t.Fatal("a wait left the waiter holding a lock")
	}

	// The wait times out at Timeout.
	m.Timeout = 20 * time.Millisecond
	m.Lock(holder, 10, IntentExclusive)
	if waited, err := m.WaitFor(ctx, waiter, holder); err != ErrTimeout || waited <= 0 {
		t.Fatalf("WaitFor on a holder that never ends: %v after %v, want ErrTimeout after a block", err, waited)
	}
	if m.timeouts.Load() != 1 || rowWaits() != 2 || len(observations()) != 2 {
		t.Fatalf("after the timeout: %d timeouts, %d row waits, %d observations; want 1, 2, 2",
			m.timeouts.Load(), rowWaits(), len(observations()))
	}

	// And it honours its context.
	m.Timeout = 5 * time.Second
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
	if m.waits.Load() != 3 || len(observations()) != 3 {
		t.Fatalf("%d waits and %d observations, want 3 and 3", m.waits.Load(), len(observations()))
	}
	m.ReleaseAll(holder)
	if m.Holds(holder) {
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
// the current holders drain, and it is granted well inside its timeout.
func TestTableXNotStarvedByIntents(t *testing.T) {
	m := NewManager()
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

// TestLockWaitSingleTimer is the regression test for the wait-loop timer
// leak: the old loop called time.After(remain) on every iteration, so a
// waiter woken (and re-blocked) N times left N timers pending, each alive
// until the full Timeout elapsed. The fixed loop must create exactly one
// timer per blocked call, a table lock or a wait for a transaction, no
// matter how many spurious wake-ups it absorbs.
func TestLockWaitSingleTimer(t *testing.T) {
	for _, arm := range waitArms {
		t.Run(arm.name, func(t *testing.T) {
			m := NewManager()
			m.Timeout = 30 * time.Second // long enough that leaked timers would linger

			var created atomic.Int64
			orig := newWaitTimer
			newWaitTimer = func(d time.Duration) *time.Timer {
				created.Add(1)
				return time.NewTimer(d)
			}
			defer func() { newWaitTimer = orig }()

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
			waitFor(&m.waits, 1)
			const spuriousWakes = 200
			for i := 0; i < spuriousWakes; i++ {
				target := m.wakeups.Load() + 1
				spuriousWake(t, m)
				waitFor(&m.wakeups, target)
			}

			m.ReleaseAll(1)
			if err := <-done; err != nil {
				t.Fatalf("contender failed: %v", err)
			}
			if got := created.Load(); got != 1 {
				t.Fatalf("blocked call created %d timers across %d wake-ups, want exactly 1", got, spuriousWakes)
			}
			// One blocked call, however often it was woken.
			if w, k := m.waits.Load(), m.wakeups.Load(); w != 1 || k != spuriousWakes+1 {
				t.Fatalf("lock.waits = %d, lock.wakeups = %d; want 1 and %d", w, k, spuriousWakes+1)
			}
		})
	}
}

// TestLockContentionNoPileup hammers one hot table from many goroutines and
// checks the process returns to its baseline goroutine count: no waiter,
// timer goroutine, or broadcast listener may outlive the workload.
func TestLockContentionNoPileup(t *testing.T) {
	m := NewManager()
	m.Timeout = 30 * time.Second
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
	m := NewManager()
	m.Timeout = 50 * time.Millisecond
	// Two writers declare intent on the same table: compatible.
	if err := m.Lock(1, 10, IntentExclusive); err != nil {
		t.Fatal(err)
	}
	if err := m.Lock(2, 10, IntentExclusive); err != nil {
		t.Fatal(err)
	}
	// X blocks behind both intents.
	if err := m.Lock(3, 10, Exclusive); err != ErrTimeout {
		t.Fatalf("X vs IX: want timeout, got %v", err)
	}
	// So does one intent's upgrade behind the other's.
	if err := m.Lock(1, 10, Exclusive); err != ErrTimeout {
		t.Fatalf("IX→X vs IX: want timeout, got %v", err)
	}
	m.ReleaseAll(1)
	m.ReleaseAll(2)
	// With intents gone, X is granted, and a writer's intent blocks behind it.
	if err := m.Lock(3, 10, Exclusive); err != nil {
		t.Fatal(err)
	}
	if err := m.Lock(5, 10, IntentExclusive); err != ErrTimeout {
		t.Fatalf("IX vs X: want timeout, got %v", err)
	}
}

// TestLockCtxCancelStopsTimer pins the context-cancellation exit paths of
// the wait loop: a waiter whose context is cancelled — including the window
// between a broadcast wake-up and the re-check under the mutex — must
// return the context error without acquiring the lock or ending its wait,
// and must stop its single wait timer on the way out (the seam would
// otherwise leak one timer per cancelled waiter, each lingering until the
// full Timeout).
func TestLockCtxCancelStopsTimer(t *testing.T) {
	for _, arm := range waitArms {
		t.Run(arm.name, func(t *testing.T) {
			m := NewManager()
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
				if len(m.tables) != 0 {
					t.Fatalf("round %d: %d table records left behind", i, len(m.tables))
				}
			}

			mu.Lock()
			defer mu.Unlock()
			if len(timers) != rounds {
				t.Fatalf("created %d timers across %d cancelled waits, want exactly %d", len(timers), rounds, rounds)
			}
			for i, tm := range timers {
				// Stop reports false when the timer was already stopped (it
				// cannot have fired: the deadline was 30s away). A true return
				// means the cancelled exit path left it running — the leak.
				if tm.Stop() {
					t.Fatalf("timer %d was still running after the wait returned: leaked on the cancellation path", i)
				}
			}
		})
	}
}

// TestLockCtxAlreadyCancelled: a context cancelled before the call must
// fail fast without creating a timer or blocking.
func TestLockCtxAlreadyCancelled(t *testing.T) {
	m := NewManager()
	var created atomic.Int64
	orig := newWaitTimer
	newWaitTimer = func(d time.Duration) *time.Timer {
		created.Add(1)
		return time.NewTimer(d)
	}
	defer func() { newWaitTimer = orig }()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := m.LockCtx(ctx, 1, 10, Exclusive); err != context.Canceled {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	if n := m.HeldCount(1); n != 0 {
		t.Fatalf("cancelled call acquired %d locks", n)
	}
	if created.Load() != 0 {
		t.Fatalf("cancelled call created %d timers", created.Load())
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
	m.releases.Add(1)
	m.wake()
}
