package server

import (
	"context"
	"errors"
	"slices"
	"sync"
	"time"
)

// ErrShed is returned by the gate when a statement is refused admission:
// the queue is full, or the queue wait exceeded its derived deadline. The
// server maps it to a retryable wire error; the statement has not run. A
// statement whose own context expires while queued gets the context's
// error instead, which is not retryable.
var ErrShed = errors.New("server: statement shed by admission control")

// gate is the self-managing admission controller. It has no tuning knobs:
//
//   - Width (max concurrently executing statements) is the memory
//     governor's multiprogramming level. Memory grants are sized
//     pool/MPL, so running more than MPL statements at once is exactly
//     "memory grants exhausted" — the gate queues instead.
//   - The latency baseline is self-calibrated from idle-period telemetry:
//     an EWMA over statements that ran solo (gate occupancy 1 from admit
//     to release), i.e. with zero queueing or concurrency interference.
//   - When the windowed p99 of recent statements degrades past 3× that
//     baseline the gate halves its effective width, trading throughput
//     for latency until the window recovers.
//   - The queue is bounded (width × queueFactor) and a queued statement
//     waits at most a deadline derived from the baseline; beyond either
//     bound the statement is shed with a retryable error rather than
//     left to time out slowly.
type gate struct {
	width int // full admission width (= MPL at construction)

	mu       sync.Mutex
	occupied int
	eff      int // effective width, shrunk under degradation
	waiters  []chan struct{}

	// latency telemetry (all under mu; release already holds it)
	ring     [latWindow]int64 // recent statement latencies, µs
	ringN    int              // valid entries (≤ latWindow)
	ringPos  int
	baseline float64 // EWMA of solo-statement latency, µs (0 = uncalibrated)
	releases int     // releases since last degradation check

	sorted [latWindow]int64 // scratch the p99 recheck sorts a copy of ring in

	// counters surfaced as server.* telemetry
	admitted int64
	shrinks  int64
}

const (
	latWindow     = 512 // degradation window: recent statement latencies
	queueFactor   = 16  // queue bound = width × queueFactor
	degradeFactor = 3   // p99 > 3× baseline ⇒ shrink effective width
	baselineAlpha = 0.125
	recheckEvery  = 64 // releases between degradation checks
)

func newGate(width int) *gate {
	width = max(width, 2)
	return &gate{width: width, eff: width}
}

// ticket is one admitted statement, handed back to release. solo is set
// when the statement was admitted into an empty gate, and seq is the
// gate's admission count at its admit: an unchanged count at release
// proves no other statement started in between.
type ticket struct {
	solo bool
	seq  int64
}

// admit blocks until the statement may run, returning the ticket the
// caller must release when the statement finishes, or ErrShed / the
// context's error when the statement is refused.
func (g *gate) admit(ctx context.Context) (ticket, error) {
	g.mu.Lock()
	if g.occupied < g.eff {
		g.occupied++
		g.admitted++
		tk := ticket{solo: g.occupied == 1, seq: g.admitted}
		g.mu.Unlock()
		return tk, nil
	}
	if len(g.waiters) >= g.width*queueFactor {
		g.mu.Unlock()
		return ticket{}, ErrShed
	}
	ch := make(chan struct{})
	g.waiters = append(g.waiters, ch)
	wait := g.queueDeadlineLocked()
	g.mu.Unlock()

	timer := time.NewTimer(wait)
	defer timer.Stop()
	var err error
	select {
	case <-ch:
		// Slot transferred by a releaser: occupancy already counts us.
	case <-timer.C:
		err = ErrShed
	case <-ctx.Done():
		err = ctx.Err()
	}
	if err != nil && g.abandon(ch) {
		return ticket{}, err
	}
	g.noteAdmitted()
	return ticket{}, nil
}

// abandon removes ch from the wait queue, returning true on success. False
// means a releaser granted the slot concurrently: the caller lost the race
// to give up and must run (and release) normally.
func (g *gate) abandon(ch chan struct{}) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	if i := slices.Index(g.waiters, ch); i >= 0 {
		g.waiters = slices.Delete(g.waiters, i, i+1)
		return true
	}
	return false
}

func (g *gate) noteAdmitted() {
	g.mu.Lock()
	g.admitted++
	g.mu.Unlock()
}

// queueDeadlineLocked derives how long a queued statement may wait before
// being shed: enough for several baseline-speed statements ahead of it to
// drain, clamped to keep sheds prompt under collapse. No knob: the bound
// tracks the workload's own calibrated speed.
func (g *gate) queueDeadlineLocked() time.Duration {
	base := g.baseline
	if base <= 0 {
		base = 5000 // 5ms: pre-calibration default
	}
	d := time.Duration(base*float64(queueFactor)) * time.Microsecond
	return min(max(d, 10*time.Millisecond), 2*time.Second)
}

// release finishes one admitted statement: records its latency, updates
// the solo baseline, periodically re-evaluates degradation, and hands the
// slot to the oldest waiter (or frees it).
func (g *gate) release(tk ticket, latencyUS int64) {
	g.mu.Lock()
	defer g.mu.Unlock()

	if latencyUS >= 0 {
		g.ring[g.ringPos] = latencyUS
		g.ringPos = (g.ringPos + 1) % latWindow
		g.ringN = min(g.ringN+1, latWindow)
		// Solo from admit to release: no queueing, no concurrent
		// statements, and nothing else was even admitted meanwhile —
		// this is the idle-period latency the baseline calibrates
		// from.
		if tk.solo && g.occupied == 1 && g.admitted == tk.seq {
			if g.baseline == 0 {
				g.baseline = float64(latencyUS)
			} else {
				g.baseline += baselineAlpha * (float64(latencyUS) - g.baseline)
			}
		}
	}

	g.releases++
	if g.releases >= recheckEvery {
		g.releases = 0
		g.recheckLocked()
	}

	// Hand the slot over, respecting a possibly-shrunk effective width.
	if len(g.waiters) > 0 && g.occupied <= g.eff {
		ch := g.waiters[0]
		g.waiters = g.waiters[1:]
		close(ch) // occupancy stays: the slot transfers
		return
	}
	g.occupied--
}

// recheckLocked compares the window's p99 against the calibrated baseline
// and shrinks or restores the effective width.
func (g *gate) recheckLocked() {
	if g.baseline <= 0 || g.ringN < latWindow/4 {
		return
	}
	p99 := g.windowP99Locked()
	if float64(p99) > degradeFactor*g.baseline {
		half := max(g.width/2, 1)
		if g.eff != half {
			g.eff = half
			g.shrinks++
		}
		return
	}
	g.eff = g.width
}

func (g *gate) windowP99Locked() int64 {
	buf := g.sorted[:g.ringN]
	copy(buf, g.ring[:g.ringN])
	slices.Sort(buf)
	return buf[min((len(buf)*99+99)/100, len(buf)-1)]
}

// snapshot returns the gate's counters for telemetry.
func (g *gate) snapshot() (admitted, shrinks int64, eff int, baselineUS int64) {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.admitted, g.shrinks, g.eff, int64(g.baseline)
}
