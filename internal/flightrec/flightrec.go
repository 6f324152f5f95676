// Package flightrec is the engine's always-on observability layer: the
// "flight recorder". It captures three tiers of evidence about a running
// workload, cheap enough to leave enabled in production:
//
//  1. Statement spans — every statement through core.Conn records a Span
//     with phase timings (parse, optimize, execute, commit/WAL-flush) and
//     resource deltas (rows, batches, buffer hits/misses, bytes spilled),
//     published into a fixed-size lock-free ring buffer of recent history,
//     dumpable on demand and on the degraded-mode latch.
//  2. Wait events — the three blocking choke points (lock-manager waits,
//     WAL group-flush waits, buffer-pool read I/O) report named wait
//     events, attributed back to the active span ASH-style where the
//     waiter's identity is known.
//  3. Workload digests — statement text is normalized to a fingerprint
//     (literals stripped) and aggregated per fingerprint in a bounded
//     digest table, the pg_stat_statements analog. Each fingerprint keeps
//     the first statement seen for it (text and bound parameters); the
//     digest table is the trace Application Profiling analyzes, and the
//     Index Consultant costs those samples weighted by their call counts.
//     (The admission controller reads no digests; it keeps its own
//     latency ring.)
//
// The paper's self-management loops all begin with the engine measuring
// itself; this package is that sensing substrate. Everything is surfaced
// through SQL: sys.statements, sys.waits, sys.recent_statements, and
// PROPERTY('<hist>.p99').
//
// Timing note: span phases and wait times are wall-clock microseconds
// (time.Now), not virtual-clock time — waits block real goroutines, and
// the self-management loops care about observed latency. The virtual
// clock remains the substrate for device-cost experiments.
package flightrec

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"

	"anywheredb/internal/telemetry"
	"anywheredb/internal/val"
)

// WaitKind names one class of blocking wait the engine instruments.
type WaitKind int

const (
	// WaitLock is time blocked in lock.Manager.Lock behind a conflicting
	// holder (including waits that end in a deadlock timeout).
	WaitLock WaitKind = iota
	// WaitWALFlush is time blocked in wal.Log.FlushTo for durability: a
	// group-commit follower waiting on the leader, or the leader's own
	// write+fsync.
	WaitWALFlush
	// WaitBufferIO is time blocked on buffer-pool read I/O: a miss reading
	// the page from the store, or a hit waiting on another goroutine's
	// in-flight read of the same page.
	WaitBufferIO
	// WaitSnapshot is time spent acquiring an MVCC read snapshot: the
	// commit-sequence read plus snapshot registration under the snapshot
	// mutex. Normally sub-microsecond; it surfaces contention on the
	// snapshot registry under heavy mixed workloads.
	WaitSnapshot
	// WaitNetSend is time the network server spent blocked writing result
	// frames to a client socket (flushes of the bounded per-connection
	// send buffer). A slow or stalled client shows up here before the
	// server disconnects it.
	WaitNetSend
	// WaitNetShip is time the primary's log shipper spent blocked sending
	// sealed WAL frames to a replica, or a synchronous commit spent waiting
	// for replica acknowledgement. A slow or stalled replica shows up here
	// before replication degrades to asynchronous.
	WaitNetShip

	// NumWaitKinds is the number of registered wait-event kinds.
	NumWaitKinds
)

// waitNames are the registered wait-event names. Every name here must
// appear in the DESIGN.md wait-event taxonomy table (lint_test.go).
var waitNames = [NumWaitKinds]string{
	WaitLock:     "lock.acquire",
	WaitWALFlush: "wal.flush",
	WaitBufferIO: "buffer.read",
	WaitSnapshot: "txn.snapshot",
	WaitNetSend:  "net.send",
	WaitNetShip:  "net.ship",
}

// Phase indexes a Span's phase timings.
type Phase int

const (
	PhaseParse Phase = iota
	PhaseOptimize
	PhaseExecute
	PhaseCommit

	numPhases
)

// Span is one statement's flight record. The owning connection writes the
// identity fields before the span is published; counters are atomic
// because executor workers and wait observers add to a live span
// concurrently. A span reaches the ring buffer and the digest table only
// after Finish, so readers always see a complete record.
type Span struct {
	Seq         uint64
	SQL         string
	Fingerprint string
	// StartUS is the span's start in wall-clock microseconds since the
	// collector was created.
	StartUS int64
	// TotalUS is the statement's wall-clock duration (set by Finish).
	TotalUS int64
	// Rows is the statement's row count: rows returned for queries, rows
	// affected for DML (set by Finish).
	Rows int64
	// Err is the statement's error text ("" on success, set by Finish).
	Err string

	phases    [numPhases]atomic.Int64
	batches   atomic.Int64
	spill     atomic.Int64
	waitCount [NumWaitKinds]atomic.Int64
	waitUS    [NumWaitKinds]atomic.Int64

	// Buffer-pool hit/miss movement over the span's window, from the
	// engine-wide pool counters (set by Finish). Under concurrency the
	// delta includes other statements' traffic; it is a window reading,
	// not an exact per-statement charge.
	BufferHits, BufferMisses int64
}

// AddPhase charges wall-clock microseconds to one phase.
func (s *Span) AddPhase(p Phase, us int64) {
	if p >= 0 && p < numPhases {
		s.phases[p].Add(us)
	}
}

// PhaseUS reads one phase's accumulated microseconds.
func (s *Span) PhaseUS(p Phase) int64 {
	if p < 0 || p >= numPhases {
		return 0
	}
	return s.phases[p].Load()
}

// AddWait charges one wait event of the given kind to the span.
func (s *Span) AddWait(k WaitKind, us int64) {
	if k < 0 || k >= NumWaitKinds {
		return
	}
	s.waitCount[k].Add(1)
	s.waitUS[k].Add(us)
}

// WaitUS reads the span's accumulated wait time for one kind.
func (s *Span) WaitUS(k WaitKind) int64 {
	if k < 0 || k >= NumWaitKinds {
		return 0
	}
	return s.waitUS[k].Load()
}

// WaitCount reads the span's wait-event count for one kind.
func (s *Span) WaitCount(k WaitKind) int64 {
	if k < 0 || k >= NumWaitKinds {
		return 0
	}
	return s.waitCount[k].Load()
}

// AddBatches charges produced executor batches to the span.
func (s *Span) AddBatches(n int64) { s.batches.Add(n) }

// Batches reads the span's executor batch count.
func (s *Span) Batches() int64 { return s.batches.Load() }

// AddSpill charges bytes written to spill runs (external sort / hash
// partitioning) to the span.
func (s *Span) AddSpill(n int64) { s.spill.Add(n) }

// SpillBytes reads the span's spilled byte count.
func (s *Span) SpillBytes() int64 { return s.spill.Load() }

// Waits aggregates the engine-wide wait-event registry: one latency
// histogram per kind, which also keeps the kind's count and total
// microseconds. All methods are lock-free.
type Waits struct {
	hists [NumWaitKinds]telemetry.Histogram
}

// Observe records one wait of kind k lasting us microseconds.
func (w *Waits) Observe(k WaitKind, us int64) {
	if k < 0 || k >= NumWaitKinds {
		return
	}
	w.hists[k].Observe(us)
}

// WaitStat is one wait event's aggregate.
type WaitStat struct {
	Name    string
	Count   int64
	TotalUS int64
	P50US   int64
	P95US   int64
	P99US   int64
}

// Snapshot returns every wait event's aggregate in kind order.
func (w *Waits) Snapshot() []WaitStat {
	out := make([]WaitStat, NumWaitKinds)
	for k := WaitKind(0); k < NumWaitKinds; k++ {
		h := &w.hists[k]
		out[k] = WaitStat{
			Name:    waitNames[k],
			Count:   int64(h.Count()),
			TotalUS: int64(h.Sum()),
			P50US:   h.Quantile(0.50),
			P95US:   h.Quantile(0.95),
			P99US:   h.Quantile(0.99),
		}
	}
	return out
}

// Collector is the per-engine flight recorder: the span ring buffer, the
// wait-event registry, the workload digest table, and the txn→span
// attribution map. A Collector is always allocated with its engine;
// enabled toggles whether spans are recorded (the instrumentation stays
// compiled in either way, which is the overhead baseline E21 measures).
type Collector struct {
	enabled atomic.Bool
	seq     atomic.Uint64
	ring    []atomic.Pointer[Span]
	mask    uint64
	now     func() int64 // wall-clock µs since collector start

	waits   Waits
	digests *DigestTable
	access  *AccessTable

	// txnMu guards the txn→span attribution map. Bind/unbind run at
	// statement rate and lookups only on (already slow) blocked paths.
	txnMu    sync.RWMutex
	txnSpans map[uint64]*Span

	// active/current implement sole-active attribution for waits whose
	// waiter has no transaction identity (buffer read I/O): when exactly
	// one span is live, the wait can only belong to it.
	active  atomic.Int64
	current atomic.Pointer[Span]

	spans atomic.Int64 // spans finished
}

// DefaultRingSize is the default number of recent spans retained.
const DefaultRingSize = 256

// New builds a collector retaining the last size spans (rounded up to a
// power of two; size <= 0 selects DefaultRingSize). The collector starts
// enabled.
func New(size int, now func() int64) *Collector {
	if size <= 0 {
		size = DefaultRingSize
	}
	n := 1
	for n < size {
		n <<= 1
	}
	c := &Collector{
		ring:     make([]atomic.Pointer[Span], n),
		mask:     uint64(n - 1),
		now:      now,
		digests:  NewDigestTable(DefaultDigestCap),
		access:   NewAccessTable(DefaultAccessCap),
		txnSpans: make(map[uint64]*Span),
	}
	if c.now == nil {
		c.now = func() int64 { return 0 }
	}
	c.enabled.Store(true)
	return c
}

// SetEnabled toggles span recording. Disabled, Begin returns nil and every
// observer hook no-ops, leaving only the compiled-in branch cost.
func (c *Collector) SetEnabled(on bool) { c.enabled.Store(on) }

// Enabled reports whether the recorder is capturing.
func (c *Collector) Enabled() bool { return c.enabled.Load() }

// Waits exposes the wait-event registry.
func (c *Collector) Waits() *Waits { return &c.waits }

// Digests exposes the workload digest table.
func (c *Collector) Digests() *DigestTable { return c.digests }

// Access exposes the per-table access digest (the reorganizer's input).
// Unlike spans it is recorded even with the recorder disabled: layout
// decisions must not depend on whether observability capture is on.
func (c *Collector) Access() *AccessTable { return c.access }

// Begin opens a span for one statement: its text and the fingerprint its
// preparation derived (the recorder never reads SQL). It returns nil when the
// recorder is disabled; every downstream site must tolerate a nil span.
func (c *Collector) Begin(sql, fingerprint string) *Span {
	if !c.enabled.Load() {
		return nil
	}
	sp := &Span{
		Seq:         c.seq.Add(1),
		SQL:         sql,
		Fingerprint: fingerprint,
		StartUS:     c.now(),
	}
	c.active.Add(1)
	c.current.Store(sp)
	return sp
}

// Finish seals the span and publishes it to the ring buffer and the
// digest table. sp may be nil (disabled recorder); totalUS is the
// statement's wall-clock duration, rows its result cardinality, errText
// its error ("" on success), params the values its caller bound. The span
// keeps no reference to params: the digest table copies them the first
// time it sees the fingerprint, and never after.
func (c *Collector) Finish(sp *Span, totalUS, rows int64, errText string, params []val.Value) {
	if sp == nil {
		return
	}
	sp.TotalUS = totalUS
	sp.Rows = rows
	sp.Err = errText
	c.active.Add(-1)
	c.current.CompareAndSwap(sp, nil)
	c.ring[(sp.Seq-1)&c.mask].Store(sp)
	c.digests.Observe(sp, params)
	c.spans.Add(1)
}

// BindTxn attributes transaction id to sp until UnbindTxn: wait observers
// carrying a transaction identity resolve it to the span here. A nil sp
// is a no-op.
func (c *Collector) BindTxn(id uint64, sp *Span) {
	if sp == nil {
		return
	}
	c.txnMu.Lock()
	c.txnSpans[id] = sp
	c.txnMu.Unlock()
}

// UnbindTxn removes a transaction binding. Safe for ids never bound.
func (c *Collector) UnbindTxn(id uint64) {
	c.txnMu.Lock()
	delete(c.txnSpans, id)
	c.txnMu.Unlock()
}

// SpanOfTxn resolves a transaction id to its bound span (nil if none).
func (c *Collector) SpanOfTxn(id uint64) *Span {
	c.txnMu.RLock()
	sp := c.txnSpans[id]
	c.txnMu.RUnlock()
	return sp
}

// SoleSpan returns the single live span when exactly one statement is
// executing, else nil. Used to attribute waits whose waiter carries no
// transaction identity: with one live statement the attribution is exact,
// with more than one the wait stays engine-global only.
func (c *Collector) SoleSpan() *Span {
	if c.active.Load() != 1 {
		return nil
	}
	return c.current.Load()
}

// ObserveWait records one wait event in the engine-wide registry.
func (c *Collector) ObserveWait(k WaitKind, us int64) {
	c.waits.Observe(k, us)
}

// Recent returns the ring's finished spans, oldest first. The snapshot is
// cut while writers may be publishing; each slot read is atomic, so every
// returned span is complete, but the set is not a single atomic cut.
func (c *Collector) Recent() []*Span {
	out := make([]*Span, 0, len(c.ring))
	for i := range c.ring {
		if sp := c.ring[i].Load(); sp != nil {
			out = append(out, sp)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

// AttachTelemetry publishes the recorder's aggregates into reg: a span
// counter under "flightrec.", and per-event wait counts and histograms
// under "waits.<event>.count" / "waits.<event>.us". The wait histograms
// answer PROPERTY('waits.lock.acquire.us.p99')-style quantile probes.
func (c *Collector) AttachTelemetry(reg *telemetry.Registry) {
	reg.GaugeFunc("flightrec.spans", c.spans.Load)
	reg.GaugeFunc("flightrec.ring_size", func() int64 { return int64(len(c.ring)) })
	reg.GaugeFunc("flightrec.digests", func() int64 { return int64(c.digests.Len()) })
	for k := WaitKind(0); k < NumWaitKinds; k++ {
		h := &c.waits.hists[k]
		reg.GaugeFunc("waits."+waitNames[k]+".count", func() int64 { return int64(h.Count()) })
		reg.RegisterHistogram("waits."+waitNames[k]+".us", h)
	}
}

// Dump writes a human-readable flight-recorder dump: the recent-span ring
// newest first, then the wait-event aggregates. Core calls this on the
// degraded-mode latch so the history leading up to an I/O failure is on
// record before the engine goes read-only.
func (c *Collector) Dump(w io.Writer) {
	spans := c.Recent()
	fmt.Fprintf(w, "flightrec: %d recent spans (newest first)\n", len(spans))
	for i := len(spans) - 1; i >= 0; i-- {
		sp := spans[i]
		status := "ok"
		if sp.Err != "" {
			status = "ERR " + sp.Err
		}
		fmt.Fprintf(w, "  #%d %s total=%dus parse=%d opt=%d exec=%d commit=%d rows=%d waits[lock=%d wal=%d io=%d]us %s\n",
			sp.Seq, sp.Fingerprint, sp.TotalUS,
			sp.PhaseUS(PhaseParse), sp.PhaseUS(PhaseOptimize),
			sp.PhaseUS(PhaseExecute), sp.PhaseUS(PhaseCommit),
			sp.Rows, sp.WaitUS(WaitLock), sp.WaitUS(WaitWALFlush),
			sp.WaitUS(WaitBufferIO), status)
	}
	fmt.Fprintf(w, "flightrec: wait events\n")
	for _, ws := range c.waits.Snapshot() {
		fmt.Fprintf(w, "  %-14s count=%d total=%dus p50=%d p95=%d p99=%d\n",
			ws.Name, ws.Count, ws.TotalUS, ws.P50US, ws.P95US, ws.P99US)
	}
}
