// Package mem implements the per-task memory governor of §4.3.
//
// Each task (unit of work) receives two quotas: a hard limit of
// ¾·(maximum buffer pool size)/(active requests) — exceeding it terminates
// the statement with an error (Eq. 4) — and a soft limit of
// (current buffer pool size)/(server multiprogramming level) (Eq. 5) that
// query processing algorithms should not exceed. When a task reaches the
// soft limit the governor asks its memory-intensive operators to free
// memory, starting at the highest consuming operator in the execution tree
// and moving down, so an input operator is never starved by its consumer.
package mem

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"anywheredb/internal/page"
	"anywheredb/internal/telemetry"
)

// ErrHardLimit is returned when a task exceeds its hard memory limit; the
// statement must be terminated with an error.
var ErrHardLimit = errors.New("mem: statement exceeds hard memory limit")

// Consumer is a memory-intensive operator (hash join, hash group by, hash
// distinct, sort) registered with its task. Depth orders operators within
// the plan: 0 is the root; larger depths are further down the tree.
type Consumer interface {
	// ReleaseMemory asks the operator to free at least want pages (by
	// spilling a partition, switching to a low-memory fallback, etc.). It
	// returns the number of pages actually freed. An error means the
	// operator's state is lost with what it failed to write: it fails the
	// charge that asked, and with it the statement.
	ReleaseMemory(want int) (int, error)
}

// Governor hands out task quotas. Pool sizes are supplied by callbacks so
// the quotas track the dynamically-resized buffer pool.
type Governor struct {
	maxPoolPages func() int
	curPoolPages func() int

	mu     sync.Mutex
	mpl    int // server multiprogramming level
	active int // currently active requests

	tasks           atomic.Uint64 // tasks begun
	grants          atomic.Uint64 // Alloc calls admitted within quota
	denials         atomic.Uint64 // Alloc calls refused at the hard limit
	releaseRequests atomic.Uint64 // top-down ReleaseMemory sweeps triggered
	leaked          atomic.Uint64 // pages still charged to tasks at Finish
	peakPages       telemetry.Histogram
}

// AttachTelemetry publishes the governor's counters into reg under "mem.".
func (g *Governor) AttachTelemetry(reg *telemetry.Registry) {
	reg.GaugeFunc("mem.tasks", func() int64 { return int64(g.tasks.Load()) })
	reg.GaugeFunc("mem.grants", func() int64 { return int64(g.grants.Load()) })
	reg.GaugeFunc("mem.denials", func() int64 { return int64(g.denials.Load()) })
	reg.GaugeFunc("mem.release_requests", func() int64 { return int64(g.releaseRequests.Load()) })
	reg.GaugeFunc("mem.active_tasks", func() int64 { return int64(g.ActiveRequests()) })
	reg.GaugeFunc("mem.leaked_pages", func() int64 { return int64(g.leaked.Load()) })
	// Each statement's high-water mark, observed once at Finish: how close
	// statements run to their quota.
	reg.RegisterHistogram("mem.peak_pages", &g.peakPages)
}

// NewGovernor builds a governor. mpl is the server multiprogramming level
// (must be ≥ 1).
func NewGovernor(maxPoolPages, curPoolPages func() int, mpl int) *Governor {
	if mpl < 1 {
		mpl = 1
	}
	return &Governor{maxPoolPages: maxPoolPages, curPoolPages: curPoolPages, mpl: mpl}
}

// SetMPL changes the multiprogramming level (a future-work item in the
// paper is adapting it dynamically; the setter is the hook for that).
func (g *Governor) SetMPL(mpl int) {
	if mpl < 1 {
		mpl = 1
	}
	g.mu.Lock()
	g.mpl = mpl
	g.mu.Unlock()
}

// MPL reports the multiprogramming level.
func (g *Governor) MPL() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.mpl
}

// ActiveRequests reports the number of active tasks.
func (g *Governor) ActiveRequests() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.active
}

// Begin registers t as a new active task and returns it. t is the caller's
// to keep: a finished task (or a new one) can begin again, so a connection
// runs every statement under one Task value.
func (g *Governor) Begin(t *Task) *Task {
	g.mu.Lock()
	g.active++
	g.mu.Unlock()
	g.tasks.Add(1)
	clear(t.consumers)
	*t = Task{gov: g, consumers: t.consumers[:0]}
	return t
}

// Task tracks one statement's memory against its quotas.
type Task struct {
	gov *Governor

	mu        sync.Mutex
	used      int // pages currently accounted to the task
	peak      int
	consumers []taskConsumer
	finished  bool
}

type taskConsumer struct {
	c     Consumer
	depth int
}

// Finish releases the task; it must be called exactly once.
func (t *Task) Finish() {
	t.mu.Lock()
	if t.finished {
		t.mu.Unlock()
		return
	}
	t.finished = true
	used, peak := t.used, t.peak
	t.mu.Unlock()
	t.gov.peakPages.Observe(int64(peak))
	if used > 0 {
		t.gov.leaked.Add(uint64(used))
	}
	t.gov.mu.Lock()
	t.gov.active--
	t.gov.mu.Unlock()
}

// HardLimitPages is Eq. 4: ¾·maxPool / activeRequests.
func (t *Task) HardLimitPages() int {
	g := t.gov
	g.mu.Lock()
	active := g.active
	g.mu.Unlock()
	return 3 * g.maxPoolPages() / 4 / max(active, 1)
}

// SoftLimitPages is Eq. 5: curPool / multiprogramming level.
func (t *Task) SoftLimitPages() int {
	g := t.gov
	g.mu.Lock()
	mpl := g.mpl
	g.mu.Unlock()
	return g.curPoolPages() / mpl
}

// Register adds a memory-intensive operator at the given plan depth
// (0 = root).
func (t *Task) Register(c Consumer, depth int) {
	t.mu.Lock()
	t.consumers = append(t.consumers, taskConsumer{c, depth})
	// Keep sorted by depth ascending: release starts at the highest
	// consumer in the tree and moves down.
	sort.SliceStable(t.consumers, func(i, j int) bool {
		return t.consumers[i].depth < t.consumers[j].depth
	})
	t.mu.Unlock()
}

// Unregister removes an operator (when it closes).
func (t *Task) Unregister(c Consumer) {
	t.mu.Lock()
	kept := t.consumers[:0]
	for _, tc := range t.consumers {
		if tc.c != c {
			kept = append(kept, tc)
		}
	}
	t.consumers = kept
	t.mu.Unlock()
}

// UsedPages reports the pages currently accounted to the task.
func (t *Task) UsedPages() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.used
}

// PeakPages reports the task's high-water mark.
func (t *Task) PeakPages() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.peak
}

// Alloc accounts n pages to the task. If the soft limit is exceeded, the
// governor requests operators to relinquish memory, highest consumer
// first; if after that the hard limit is still exceeded, ErrHardLimit is
// returned and the statement must terminate. A statement is asked before it
// is refused: with as many requests active as the multiprogramming level
// allows and the pool at its maximum, Eq. 4 falls below Eq. 5, and releases
// are then requested from the hard limit on.
func (t *Task) Alloc(n int) error {
	if n < 0 {
		return fmt.Errorf("mem: negative alloc %d", n)
	}
	t.mu.Lock()
	t.used += n
	if t.used > t.peak {
		t.peak = t.used
	}
	used := t.used
	t.mu.Unlock()

	soft, hard := t.SoftLimitPages(), t.HardLimitPages()
	if hard > 0 {
		soft = min(soft, hard)
	}
	if used > soft {
		t.gov.releaseRequests.Add(1)
		if err := t.requestRelease(used - soft); err != nil {
			t.Free(n)
			return err
		}
	}

	t.mu.Lock()
	used = t.used
	t.mu.Unlock()
	if hard > 0 && used > hard {
		// The request is refused: roll the accounting back so the caller
		// (which will terminate the statement) does not leak quota.
		t.Free(n)
		t.gov.denials.Add(1)
		return ErrHardLimit
	}
	t.gov.grants.Add(1)
	return nil
}

// Free returns n pages to the governor.
func (t *Task) Free(n int) {
	t.mu.Lock()
	t.used -= n
	if t.used < 0 {
		t.used = 0
	}
	t.mu.Unlock()
}

// requestRelease walks consumers from the top of the execution tree down,
// asking each to free memory, until want pages have been relinquished.
func (t *Task) requestRelease(want int) error {
	t.mu.Lock()
	consumers := append([]taskConsumer(nil), t.consumers...)
	t.mu.Unlock()
	for _, tc := range consumers {
		if want <= 0 {
			break
		}
		freed, err := tc.c.ReleaseMemory(want)
		if err != nil {
			return err
		}
		want -= freed
	}
	return nil
}

// Account is one operator's share of its statement's memory, and the one
// place that memory is charged to the task: the pages its heaps hold pinned
// (heap.Heap calls Alloc and Free a page at a time) and the encoded size of
// the rows it holds as Go values (AddBytes). A heap page the operator has
// unlocked is the buffer pool's to steal and is charged to nobody; giving
// memory back is exactly that — unlock a heap, or write the values into one
// and unlock it.
//
// A charge can call back: over the soft limit the task asks every
// registered consumer, the caller included, to ReleaseMemory before Alloc
// returns. So charge only where the operator's own state is consistent:
// what is being charged for is already where its ReleaseMemory will find
// it, and whatever was read before the call is re-read after it.
//
// The zero Account counts without a task. Not safe for concurrent use.
type Account struct {
	task      *Task
	self      Consumer
	pages     int // charged now
	peak      int
	bytes     int // encoded bytes held as Go values
	bytePages int // of pages, the part standing for bytes
}

// Open starts the account empty and, under a task, registers c (if not
// nil) as the consumer the governor asks to give this memory back.
func (a *Account) Open(t *Task, c Consumer, depth int) {
	a.Close()
	*a = Account{task: t, self: c}
	if t != nil && c != nil {
		t.Register(c, depth)
	}
}

// Close returns whatever is still charged and unregisters the consumer.
// The peak survives until the next Open.
func (a *Account) Close() {
	a.Free(a.pages)
	a.bytes, a.bytePages = 0, 0
	if a.task != nil && a.self != nil {
		a.task.Unregister(a.self)
	}
	a.task = nil
}

// Alloc charges n pages; mem.ErrHardLimit ends the statement.
func (a *Account) Alloc(n int) error {
	if a.task != nil {
		if err := a.task.Alloc(n); err != nil {
			return err
		}
	}
	a.pages += n
	a.peak = max(a.peak, a.pages)
	return nil
}

// Free returns n pages.
func (a *Account) Free(n int) {
	if a.task != nil {
		a.task.Free(n)
	}
	a.pages -= n
}

// AddBytes charges n more encoded bytes, a page at a time as the total
// crosses page boundaries.
func (a *Account) AddBytes(n int) error {
	a.bytes += n
	d := bytePagesOf(a.bytes) - a.bytePages
	if d <= 0 {
		return nil
	}
	// The pages become the account's only once they are granted: a
	// FreeBytes the charge brings on itself (the operator flushing what it
	// holds, these bytes included) gives back what was granted before and
	// nothing else, and a refused charge leaves nothing to give back.
	if err := a.Alloc(d); err != nil {
		return err
	}
	a.bytePages += d
	if over := a.bytePages - bytePagesOf(a.bytes); over > 0 {
		// Flushed meanwhile: the bytes the pages were for are gone.
		a.bytePages -= over
		a.Free(over)
	}
	return nil
}

func bytePagesOf(bytes int) int { return (bytes + page.Size - 1) / page.Size }

// FreeBytes returns every byte charged through AddBytes.
func (a *Account) FreeBytes() {
	a.Free(a.bytePages)
	a.bytes, a.bytePages = 0, 0
}

// Pages reports the pages currently charged.
func (a *Account) Pages() int { return a.pages }

// PeakPages reports the high-water mark since Open.
func (a *Account) PeakPages() int { return a.peak }
