package flightrec

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"anywheredb/internal/sqlparse"
	"anywheredb/internal/val"
)

// begin opens a span the way core does: the caller supplies the span and
// the fingerprint, the recorder never reads SQL. Each call here stands for a
// connection of its own; beginOn reuses a connection's span.
func begin(c *Collector, sql string) *Span { return beginOn(c, new(Span), sql) }

func beginOn(c *Collector, sp *Span, sql string) *Span {
	return c.Begin(sp, sql, sqlparse.Fingerprint(sql))
}

func TestSpanLifecycle(t *testing.T) {
	var clock atomic.Int64
	c := New(8, clock.Load)
	sp := begin(c, "SELECT a FROM t WHERE b = 42")
	if sp == nil {
		t.Fatal("Begin returned nil with recorder enabled")
	}
	if sp.Fingerprint != "SELECT a FROM t WHERE b = ?" {
		t.Fatalf("fingerprint = %q", sp.Fingerprint)
	}
	sp.AddPhase(PhaseParse, 5)
	sp.AddPhase(PhaseExecute, 100)
	sp.AddWait(WaitLock, 30)
	sp.Batches, sp.SpillBytes = 3, 4096
	c.Finish(sp, 150, 7, "", nil)
	if got := c.spans.Load(); got != 1 {
		t.Fatalf("spans finished = %d", got)
	}
	rec := c.Recent()
	if len(rec) != 1 {
		t.Fatalf("Recent holds %d spans, want 1", len(rec))
	}
	// The ring holds a copy of the sealed span, not the span itself.
	if got := rec[0]; got == sp || got.Seq != sp.Seq || got.SQL != sp.SQL || got.Fingerprint != sp.Fingerprint ||
		got.TotalUS != 150 || got.Rows != 7 || got.PhaseUS(PhaseParse) != 5 || got.PhaseUS(PhaseExecute) != 100 ||
		got.WaitUS(WaitLock) != 30 || got.WaitCount(WaitLock) != 1 || got.Batches != 3 || got.SpillBytes != 4096 {
		t.Fatalf("recorded span = %+v, want a copy of the sealed %+v", got, sp)
	}
	ds := c.Digests().Snapshot()
	if len(ds) != 1 || ds[0].Calls != 1 || ds[0].Rows != 7 {
		t.Fatalf("digest snapshot = %+v", ds)
	}
}

func TestDisabledRecorder(t *testing.T) {
	c := New(8, nil)
	c.SetEnabled(false)
	if sp := begin(c, "SELECT 1"); sp != nil {
		t.Fatal("Begin returned a span while disabled")
	}
	c.Finish(nil, 0, 0, "", nil) // must tolerate nil
	if c.spans.Load() != 0 || len(c.Recent()) != 0 {
		t.Fatal("disabled recorder recorded something")
	}
}

func TestRingWrapKeepsNewest(t *testing.T) {
	c := New(4, nil)
	for i := 0; i < 10; i++ {
		sp := begin(c, "SELECT 1")
		c.Finish(sp, int64(i), 0, "", nil)
	}
	rec := c.Recent()
	if len(rec) != 4 {
		t.Fatalf("ring holds %d spans, want 4", len(rec))
	}
	for i, sp := range rec {
		if want := uint64(7 + i); sp.Seq != want {
			t.Fatalf("slot %d seq = %d, want %d", i, sp.Seq, want)
		}
	}
}

// TestRecentIsACopy: one connection's span is reused statement after
// statement, and the ring wraps under it; a span Recent returned before
// keeps what it recorded, and so does the ring's record of it.
func TestRecentIsACopy(t *testing.T) {
	c := New(4, nil)
	var own Span
	sp := beginOn(c, &own, "SELECT a FROM t WHERE b = 1")
	sp.AddPhase(PhaseExecute, 11)
	sp.AddWait(WaitLock, 3)
	c.Finish(sp, 20, 1, "", nil)
	first := c.Recent()[0]
	for i := 0; i < 3; i++ {
		sp := beginOn(c, &own, "UPDATE t SET a = 2")
		sp.AddPhase(PhaseExecute, 99)
		sp.Batches = 5
		c.Finish(sp, 500, 9, "boom", nil)
	}
	check := func(what string, got *Span) {
		t.Helper()
		if got.Seq != 1 || got.Fingerprint != "SELECT a FROM t WHERE b = ?" || got.TotalUS != 20 || got.Rows != 1 ||
			got.Err != "" || got.PhaseUS(PhaseExecute) != 11 || got.WaitUS(WaitLock) != 3 || got.Batches != 0 {
			t.Fatalf("%s changed by later statements: %+v", what, got)
		}
	}
	check("the span Recent returned", first)
	if rec := c.Recent(); len(rec) != 4 || rec[0] == first {
		t.Fatalf("Recent = %v, want 4 fresh copies", rec)
	} else {
		check("the ring's record", rec[0])
	}
	// One statement more overwrites the oldest slot; the copy stays.
	c.Finish(beginOn(c, &own, "SELECT 1"), 1, 0, "", nil)
	check("the span Recent returned", first)
}

func TestDigestCollapsesLiterals(t *testing.T) {
	c := New(8, nil)
	stmts := []string{
		"SELECT a FROM t WHERE b = 1",
		"SELECT a FROM t WHERE b = 2",
		"select A from T where B = 'x'",
	}
	for _, s := range stmts {
		c.Finish(begin(c, s), 10, 1, "", nil)
	}
	ds := c.Digests().Snapshot()
	if len(ds) != 1 {
		t.Fatalf("digest rows = %d, want 1 (fingerprints did not collapse): %+v", len(ds), ds)
	}
	if ds[0].Calls != 3 {
		t.Fatalf("calls = %d, want 3", ds[0].Calls)
	}
}

func TestDigestOverflowBucket(t *testing.T) {
	tab := NewDigestTable(4)
	for i := 0; i < 8; i++ {
		sp := &Span{Fingerprint: strings.Repeat("x", i+1), TotalUS: 1}
		tab.Observe(sp, nil)
	}
	if tab.Len() != 5 { // 4 distinct + overflow
		t.Fatalf("Len = %d, want 5", tab.Len())
	}
	var overflow *DigestStat
	for _, d := range tab.Snapshot() {
		if d.Fingerprint == "(overflow)" {
			d := d
			overflow = &d
		}
	}
	if overflow == nil || overflow.Calls != 4 {
		t.Fatalf("overflow bucket = %+v, want 4 calls", overflow)
	}
}

func TestWaitsSnapshot(t *testing.T) {
	var w Waits
	for i := int64(1); i <= 100; i++ {
		w.Observe(WaitWALFlush, i)
	}
	snap := w.Snapshot()
	if len(snap) != int(NumWaitKinds) {
		t.Fatalf("snapshot has %d events", len(snap))
	}
	ws := snap[WaitWALFlush]
	if ws.Name != "wal.flush" || ws.Count != 100 || ws.TotalUS != 5050 {
		t.Fatalf("wal.flush stat = %+v", ws)
	}
	if ws.P50US <= 0 || ws.P99US < ws.P50US {
		t.Fatalf("quantiles not monotone: %+v", ws)
	}
	if snap[WaitLock].Count != 0 {
		t.Fatalf("lock.acquire count = %d, want 0", snap[WaitLock].Count)
	}
}

// TestSoleSpan: the only live span is resolved, and none while two are
// live or after the last finishes.
func TestSoleSpan(t *testing.T) {
	c := New(8, nil)
	sp := begin(c, "UPDATE t SET a = 1")
	if got := c.SoleSpan(); got != sp {
		t.Fatal("SoleSpan did not resolve the only live span")
	}
	sp2 := begin(c, "SELECT 1")
	if got := c.SoleSpan(); got != nil {
		t.Fatal("SoleSpan resolved with two live spans")
	}
	c.Finish(sp, 1, 0, "", nil)
	c.Finish(sp2, 1, 0, "", nil)
	if got := c.SoleSpan(); got != nil {
		t.Fatal("SoleSpan resolved with no live span")
	}
}

func TestDump(t *testing.T) {
	c := New(8, nil)
	sp := begin(c, "SELECT a FROM t WHERE b = 9")
	sp.AddWait(WaitBufferIO, 12)
	c.Finish(sp, 34, 2, "", nil)
	c.ObserveWait(WaitBufferIO, 12)
	var buf bytes.Buffer
	c.Dump(&buf)
	out := buf.String()
	for _, want := range []string{"SELECT a FROM t WHERE b = ?", "buffer.read", "total=34us"} {
		if !strings.Contains(out, want) {
			t.Errorf("dump missing %q:\n%s", want, out)
		}
	}
}

// TestRingStress publishes spans from many writers, each reusing its own
// span as a connection does, while readers cut snapshots mid-flight and
// waits are observed concurrently — the -race run of this test is the ring
// buffer's memory-safety proof.
func TestRingStress(t *testing.T) {
	var clock atomic.Int64
	c := New(64, clock.Load)
	const writers = 8
	const perWriter = 500
	var wg sync.WaitGroup
	stop := make(chan struct{})

	var readers sync.WaitGroup
	for r := 0; r < 3; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, sp := range c.Recent() {
					// Every published span must be sealed: its identity
					// fields are readable and its Seq nonzero.
					if sp.Seq == 0 || sp.Fingerprint == "" {
						panic("unsealed span escaped to the ring")
					}
					_ = sp.WaitUS(WaitLock)
					_ = sp.PhaseUS(PhaseExecute)
				}
				c.Digests().Snapshot()
				c.Waits().Snapshot()
			}
		}()
	}

	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var own Span // the writer's connection span
			for i := 0; i < perWriter; i++ {
				clock.Add(1)
				sp := beginOn(c, &own, "SELECT a FROM t WHERE b = 1")
				sp.AddPhase(PhaseExecute, int64(i))
				sp.AddWait(WaitKind(i%int(NumWaitKinds)), int64(i))
				c.ObserveWait(WaitKind(i%int(NumWaitKinds)), int64(i))
				c.Finish(sp, int64(i), 1, "", nil)
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	readers.Wait()

	if got := c.spans.Load(); got != writers*perWriter {
		t.Fatalf("spans finished = %d, want %d", got, writers*perWriter)
	}
	if len(c.Recent()) != 64 {
		t.Fatalf("ring holds %d spans, want 64", len(c.Recent()))
	}
	ds := c.Digests().Snapshot()
	if len(ds) != 1 || ds[0].Calls != writers*perWriter {
		t.Fatalf("digest = %+v", ds)
	}
}

// TestDigestSampleFirstSeenConcurrently: eight writers first-see one
// fingerprint at once, each with its own text and parameters, and go on
// reusing their parameter slice while readers snapshot. The sample is one
// submitted (text, params) pair, every call is counted, and under -race
// the sample shares no memory with a writer's slice.
func TestDigestSampleFirstSeenConcurrently(t *testing.T) {
	c := New(64, nil)
	const writers, perWriter = 8, 200
	start := make(chan struct{})
	stop := make(chan struct{})
	var wg, readers sync.WaitGroup
	readers.Add(1)
	go func() {
		defer readers.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, d := range c.Digests().Snapshot() {
				_ = d.SampleSQL
				for _, p := range d.SampleParams {
					_ = p.I
				}
			}
		}
	}()
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sql := fmt.Sprintf("SELECT a FROM t WHERE b = %d AND c = ?", w)
			params := make([]val.Value, 1)
			<-start
			for i := 0; i < perWriter; i++ {
				params[0] = val.NewInt(int64(w))
				c.Finish(begin(c, sql), 1, 1, "", params)
				params[0] = val.NewInt(-1)
			}
		}(w)
	}
	close(start)
	wg.Wait()
	close(stop)
	readers.Wait()

	ds := c.Digests().Snapshot()
	if len(ds) != 1 || ds[0].Calls != writers*perWriter {
		t.Fatalf("digest = %+v, want one fingerprint called %d times", ds, writers*perWriter)
	}
	d := ds[0]
	if len(d.SampleParams) != 1 || d.SampleParams[0].Kind != val.KInt {
		t.Fatalf("sample params %+v", d.SampleParams)
	}
	w := d.SampleParams[0].I
	if want := fmt.Sprintf("SELECT a FROM t WHERE b = %d AND c = ?", w); w < 0 || w >= writers || d.SampleSQL != want {
		t.Fatalf("sample (%q, %d) is not a submitted pair", d.SampleSQL, w)
	}
}
