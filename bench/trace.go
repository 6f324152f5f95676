package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"time"

	"anywheredb/internal/core"
	"anywheredb/internal/flightrec"
)

// The trace pass wraps every op in a bench-side span "op" whose children
// are one "stmt" span per statement (client send → last reply frame). After
// the fact each stmt is paired with the engine's own flight-recorder span
// for that statement — matched by order, which is exact on one connection —
// giving an "engine" child with the phases parse, optimize, execute, commit
// and the wait events inside them. Nothing in the engine changes: the spans
// are recorded here, around the calls into it, and read from the surface it
// already exports.

// span is one node of the trace as written to the trace file. Spans of one
// op share Op; Parent 0 marks the op's root. Times are nanoseconds since
// the workload's database was opened.
type span struct {
	Op     int    `json:"op"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

type stmtRec struct {
	sql        string
	start, end time.Time
	eng        *flightrec.Span // nil until paired, or if the engine span was lost
}

type opRec struct {
	start, end time.Time
	stmts      []stmtRec
}

// pairEvery bounds how many statements wait for pairing: the flight
// recorder's ring keeps the last 256 spans, so pairing must run before
// that many statements pass.
const pairEvery = 100

type tracer struct {
	on      bool
	db      *core.DB
	cur     *opRec
	ops     []*opRec
	lastSeq uint64 // highest engine span already paired or predating the slice
	nextOp  int    // first op that still has unpaired statements
	pending int    // statements recorded since the last pairing
	lost    int    // statements whose engine span could not be found
}

// start arms the tracer for a traced slice: engine spans recorded before
// this point belong to nobody.
func (t *tracer) start(db *core.DB) {
	t.db = db
	if rec := db.FlightRecorder().Recent(); len(rec) > 0 {
		t.lastSeq = rec[len(rec)-1].Seq
	}
	t.on = true
}

func (t *tracer) stop() {
	t.pair()
	t.on = false
}

func (t *tracer) beginOp(at time.Time) { t.cur = &opRec{start: at} }

func (t *tracer) stmt(sql string, start, end time.Time) {
	t.cur.stmts = append(t.cur.stmts, stmtRec{sql: sql, start: start, end: end})
	t.pending++
}

func (t *tracer) endOp(at time.Time) {
	t.cur.end = at
	t.ops = append(t.ops, t.cur)
	t.cur = nil
	if t.pending >= pairEvery {
		t.pair()
	}
}

// pair matches the statements recorded since the last call with the engine
// spans published since then, in order.
func (t *tracer) pair() {
	var fresh []*flightrec.Span
	for _, sp := range t.db.FlightRecorder().Recent() {
		if sp.Seq > t.lastSeq {
			fresh = append(fresh, sp)
		}
	}
	t.lost += pairInOrder(t.ops[t.nextOp:], fresh)
	if len(fresh) > 0 {
		t.lastSeq = fresh[len(fresh)-1].Seq
	}
	t.nextOp = len(t.ops)
	t.pending = 0
}

// pairInOrder walks statements and engine spans together. A statement
// whose text is not the next engine span's stays unpaired (its whole
// duration then reads as wire time) and the engine span is kept for the
// next statement. It returns the number of statements left unpaired.
func pairInOrder(ops []*opRec, eng []*flightrec.Span) (lost int) {
	for _, op := range ops {
		for i := range op.stmts {
			st := &op.stmts[i]
			if st.eng != nil {
				continue
			}
			if len(eng) > 0 && eng[0].SQL == st.sql {
				st.eng, eng = eng[0], eng[1:]
			} else {
				lost++
			}
		}
	}
	return lost
}

// Layer names of the time budget: the self time of every span of an op is
// charged to exactly one of them, so they sum to the op span.
const (
	layerWire     = "server.wire_us"
	layerCore     = "core.unattributed_us"
	layerParse    = "sqlparse.parse_us"
	layerOptimize = "opt.optimize_us"
	layerExecute  = "exec.execute_self_us"
	layerCommit   = "txn.commit_self_us"
	layerLock     = "lock.acquire_wait_us"
	layerRead     = "buffer.read_wait_us"
	layerSnapshot = "txn.snapshot_wait_us"
	layerFlush    = "wal.flush_wait_us"
)

var budgetLayers = []string{layerWire, layerCore, layerParse, layerOptimize, layerExecute,
	layerCommit, layerLock, layerRead, layerSnapshot, layerFlush}

// layerOf maps a span name to the budget layer its self time belongs to.
// An op's own time (bench bookkeeping between statements) and a stmt's
// time outside the engine (framing, sockets, admission, goroutine
// hand-offs) are both "wire": op span − Σ engine spans.
var layerOf = map[string]string{
	"op": layerWire, "stmt": layerWire, "engine": layerCore,
	"parse": layerParse, "optimize": layerOptimize, "execute": layerExecute, "commit": layerCommit,
	"lock.acquire": layerLock, "buffer.read": layerRead, "txn.snapshot": layerSnapshot, "wal.flush": layerFlush,
}

// spanTree accumulates one op's spans; a child is clipped to its parent so
// that self times can never go negative and always sum to the root.
type spanTree struct {
	op     int
	nextID *int // file-wide ID counter
	base   int  // *nextID when the tree began: spans[i].ID == base+i+1
	spans  []span
}

func (b *spanTree) add(parent int, name string, start, end int64) int {
	if parent != 0 {
		p := b.byID(parent)
		start = min(max(start, p.Start), p.End)
		end = min(max(end, start), p.End)
	}
	*b.nextID++
	b.spans = append(b.spans, span{Op: b.op, ID: *b.nextID, Parent: parent, Name: name, Start: start, End: end})
	return *b.nextID
}

func (b *spanTree) byID(id int) *span { return &b.spans[id-b.base-1] }

// buildSpans expands one recorded op into its span tree. The engine
// reports only durations for its phases and waits, so they are laid out
// back to back from the start of the span that contains them, in the order
// the engine runs them; the engine span itself is placed by its recorded
// start and slid, if need be, to lie inside the stmt that caused it.
func buildSpans(opIdx int, op *opRec, origin time.Time, nextID *int) []span {
	b := &spanTree{op: opIdx, nextID: nextID, base: *nextID}
	ns := func(t time.Time) int64 { return t.Sub(origin).Nanoseconds() }
	root := b.add(0, "op", ns(op.start), ns(op.end))
	for i := range op.stmts {
		st := &op.stmts[i]
		sid := b.add(root, "stmt", ns(st.start), ns(st.end))
		e := st.eng
		if e == nil {
			continue
		}
		stSpan := *b.byID(sid)
		total := e.TotalUS * 1000
		start := e.StartUS * 1000
		if start+total > stSpan.End {
			start = stSpan.End - total
		}
		start = max(start, stSpan.Start)
		eid := b.add(sid, "engine", start, start+total)

		// seq lays children of parent out back to back.
		seq := func(parent int) func(name string, us int64) int {
			cursor := b.byID(parent).Start
			return func(name string, us int64) int {
				if us <= 0 {
					return 0
				}
				id := b.add(parent, name, cursor, cursor+us*1000)
				cursor = b.byID(id).End
				return id
			}
		}
		inEngine := seq(eid)
		inEngine("parse", e.PhaseUS(flightrec.PhaseParse))
		inEngine("txn.snapshot", e.WaitUS(flightrec.WaitSnapshot))
		inEngine("optimize", e.PhaseUS(flightrec.PhaseOptimize))
		// Lock and read waits happen while executing; a statement with no
		// execute phase (INSERT) keeps them directly under the engine span.
		inExec := inEngine
		if xid := inEngine("execute", e.PhaseUS(flightrec.PhaseExecute)); xid != 0 {
			inExec = seq(xid)
		}
		inExec("lock.acquire", e.WaitUS(flightrec.WaitLock))
		inExec("buffer.read", e.WaitUS(flightrec.WaitBufferIO))
		inCommit := inEngine
		if cid := inEngine("commit", e.PhaseUS(flightrec.PhaseCommit)); cid != 0 {
			inCommit = seq(cid)
		}
		inCommit("wal.flush", e.WaitUS(flightrec.WaitWALFlush))
	}
	return b.spans
}

// selfTimes returns, per span ID, the span's duration minus the part of
// its interval that its children cover (overlapping children count once).
func selfTimes(spans []span) map[int]int64 {
	kids := map[int][][2]int64{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		iv := kids[s.ID]
		sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
		covered, edge := int64(0), s.Start
		for _, c := range iv {
			lo, hi := max(c[0], edge), min(c[1], s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.ID] = s.End - s.Start - covered
	}
	return self
}

// traceSummary is the time budget of the traced ops: mean microseconds per
// op by layer (means, not medians, so that the layers add up to the mean
// op span exactly), plus what the trace could not pair.
type traceSummary struct {
	ops      int
	opSpanUS float64
	layerUS  map[string]float64
	lost     int
}

// summarize folds every traced op into the budget and, if path is set,
// writes all spans there as JSON lines.
func (t *tracer) summarize(origin time.Time, path string) (traceSummary, error) {
	sum := traceSummary{ops: len(t.ops), layerUS: map[string]float64{}, lost: t.lost}
	var f *os.File
	var w *bufio.Writer
	var enc *json.Encoder
	if path != "" {
		var err error
		if f, err = os.Create(path); err != nil {
			return sum, err
		}
		defer f.Close() // error paths; the success path checks Close below
		w = bufio.NewWriter(f)
		enc = json.NewEncoder(w)
	}
	nextID := 0
	var opNS int64
	layerNS := map[string]int64{}
	for i, op := range t.ops {
		spans := buildSpans(i+1, op, origin, &nextID)
		opNS += spans[0].End - spans[0].Start
		self := selfTimes(spans)
		for _, s := range spans {
			layerNS[layerOf[s.Name]] += self[s.ID]
			if enc != nil {
				if err := enc.Encode(s); err != nil {
					return sum, err
				}
			}
		}
	}
	if sum.ops > 0 {
		sum.opSpanUS = float64(opNS) / 1e3 / float64(sum.ops)
		for name, v := range layerNS {
			sum.layerUS[name] = float64(v) / 1e3 / float64(sum.ops)
		}
	}
	if f != nil {
		if err := w.Flush(); err != nil {
			return sum, err
		}
		return sum, f.Close()
	}
	return sum, nil
}
