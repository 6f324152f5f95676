package repl

import (
	"bufio"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"anywheredb/internal/core"
	"anywheredb/internal/exec"
	"anywheredb/internal/flightrec"
	"anywheredb/internal/server"
	"anywheredb/internal/server/client"
	"anywheredb/internal/table"
	"anywheredb/internal/telemetry"
	"anywheredb/internal/val"
	"anywheredb/internal/wal"
)

const (
	// chunkSize is the shipping read window.
	chunkSize = 256 << 10
	// maxRouteLagBytes is the apply lag beyond which a replica is not
	// offered read traffic.
	maxRouteLagBytes = 4 << 20
)

// PrimaryOptions configures the primary side of log shipping. Every field
// has a working default; there are no placement or routing knobs.
type PrimaryOptions struct {
	// Addr is the TCP listen address for replica connections
	// ("127.0.0.1:0" when empty).
	Addr string
	// AuthToken, when non-empty, must match each replica hello.
	AuthToken string
	// SyncCommit makes every group commit wait (bounded by SyncTimeout)
	// for one replica to acknowledge the group's bytes as durable before
	// the commit returns to its clients. Off = asynchronous shipping.
	SyncCommit bool
	// SyncTimeout bounds the synchronous-commit acknowledgement wait;
	// on expiry the group degrades to an async ack (counted in
	// repl.sync_degraded) instead of wedging the commit path. Default 2s.
	SyncTimeout time.Duration
	// DrainTimeout bounds the pre-truncate barrier: connected replicas get
	// this long to be shipped the log to its end before the truncate
	// proceeds and stragglers fall back to a full resync. Default 1s.
	DrainTimeout time.Duration
}

func (o *PrimaryOptions) fill() {
	if o.Addr == "" {
		o.Addr = "127.0.0.1:0"
	}
	if o.SyncTimeout <= 0 {
		o.SyncTimeout = 2 * time.Second
	}
	if o.DrainTimeout <= 0 {
		o.DrainTimeout = time.Second
	}
}

// replicaState is one connected replica as the primary sees it.
type replicaState struct {
	id        uint64
	name      string
	conn      net.Conn
	connected time.Time

	mu       sync.Mutex
	readAddr string  // replica's SQL endpoint ("" = not serving reads)
	syncing  bool    // mid-snapshot: not a routing candidate, not barrier-bound
	shipped  wal.LSN // shipper-side sent LSN
	acked    wal.LSN // replica-acked LSN: durable there and applied
	// Routed reads forward over a small pool of SQL connections, dialed
	// lazily: a Client runs one statement at a time, so pooling is what
	// lets concurrent routed reads overlap on one replica (whose own
	// admission control is the real limiter). idle holds connections not
	// currently running a statement; slots caps how many exist at once.
	idle  chan *client.Client
	slots chan struct{}

	inflight atomic.Int64 // routed statements in flight (balance key)
}

// routePoolClients caps the read-forwarding connections per replica.
const routePoolClients = 3

func newReplicaState(name string, nc net.Conn) *replicaState {
	return &replicaState{
		name:      name,
		conn:      nc,
		connected: time.Now(),
		syncing:   true,
		idle:      make(chan *client.Client, routePoolClients),
		slots:     make(chan struct{}, routePoolClients),
	}
}

func (rs *replicaState) setShipped(lsn wal.LSN) {
	rs.mu.Lock()
	rs.shipped = lsn
	rs.mu.Unlock()
}

// Primary ships the database's WAL to every connected replica and routes
// read-only statements to them. One Primary serves one core.DB.
type Primary struct {
	db   *core.DB
	opts PrimaryOptions
	ln   net.Listener
	wg   sync.WaitGroup

	mu       sync.Mutex
	snapMu   sync.Mutex // one snapshot at a time: each begins with a checkpoint
	replicas map[uint64]*replicaState
	nextID   uint64
	routeRR  uint64        // round-robin tiebreak cursor for routing
	ackCh    chan struct{} // closed+replaced on ack arrival or membership change
	drainCh  chan struct{} // closed+replaced on shipped-position advance

	closed atomic.Bool

	stBytes        *telemetry.Counter
	stChunks       *telemetry.Counter
	stAcks         *telemetry.Counter
	stResyncs      *telemetry.Counter
	stSyncAcked    *telemetry.Counter
	stSyncDegraded *telemetry.Counter
	stRouted       *telemetry.Counter
	stFallback     *telemetry.Counter
}

// StartPrimary begins serving replicas for db. The database must be
// file-backed: a resync ships the store files. The WAL's commit hook and
// truncate barrier are installed here and removed by Close.
func StartPrimary(db *core.DB, opts PrimaryOptions) (*Primary, error) {
	opts.fill()
	if db.Dir() == "" {
		return nil, fmt.Errorf("repl: a memory-backed database cannot be a primary (no store files to resync from)")
	}
	ln, err := net.Listen("tcp", opts.Addr)
	if err != nil {
		return nil, err
	}
	p := &Primary{db: db, opts: opts, ln: ln, replicas: map[uint64]*replicaState{}}

	reg := db.Telemetry()
	p.stBytes = reg.Counter("repl.bytes_shipped")
	p.stChunks = reg.Counter("repl.chunks_shipped")
	p.stAcks = reg.Counter("repl.acks")
	p.stResyncs = reg.Counter("repl.resyncs")
	p.stSyncAcked = reg.Counter("repl.sync_acked")
	p.stSyncDegraded = reg.Counter("repl.sync_degraded")
	p.stRouted = reg.Counter("repl.reads_routed")
	p.stFallback = reg.Counter("repl.route_fallbacks")
	reg.GaugeFunc("repl.replicas", func() int64 {
		p.mu.Lock()
		defer p.mu.Unlock()
		return int64(len(p.replicas))
	})
	reg.GaugeFunc("repl.max_apply_lag", func() int64 {
		lag := int64(0)
		for _, rs := range p.snapshotReplicas() {
			if l := p.lagOf(rs); int64(l) > lag {
				lag = int64(l)
			}
		}
		return lag
	})
	db.RegisterVirtualTable("sys.replicas", p.replicasTable)

	w := db.WAL()
	w.SetTruncateBarrier(p.onTruncate)
	w.SetCommitHook(p.onCommit)

	p.wg.Add(1)
	go p.acceptLoop()
	return p, nil
}

// Addr reports the bound replication listen address.
func (p *Primary) Addr() net.Addr { return p.ln.Addr() }

// Close stops shipping: hooks are removed, the listener and every replica
// session close. Connected replicas see a dropped stream and will retry
// against whatever listens here next.
func (p *Primary) Close() error {
	if p.closed.Swap(true) {
		return nil
	}
	p.db.WAL().SetCommitHook(nil)
	p.db.WAL().SetTruncateBarrier(nil)
	p.db.RegisterVirtualTable("sys.replicas", nil)
	p.ln.Close()
	p.mu.Lock()
	for _, rs := range p.replicas {
		rs.conn.Close()
	}
	p.mu.Unlock()
	p.ackBroadcastLocked(true)
	p.wg.Wait()
	return nil
}

func (p *Primary) acceptLoop() {
	defer p.wg.Done()
	for {
		nc, err := p.ln.Accept()
		if err != nil {
			return
		}
		if p.closed.Load() {
			nc.Close()
			continue
		}
		p.wg.Add(1)
		go p.serve(nc)
	}
}

// broadcast helpers: ackCh wakes synchronous-commit waiters, drainCh wakes
// the truncate barrier. Both follow the wal.TailChanged close-and-replace
// idiom.

func (p *Primary) ackWaitCh() <-chan struct{} {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.ackCh == nil {
		p.ackCh = make(chan struct{})
	}
	return p.ackCh
}

func (p *Primary) ackBroadcastLocked(lock bool) {
	if lock {
		p.mu.Lock()
		defer p.mu.Unlock()
	}
	if p.ackCh != nil {
		close(p.ackCh)
		p.ackCh = nil
	}
}

func (p *Primary) drainWaitCh() <-chan struct{} {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.drainCh == nil {
		p.drainCh = make(chan struct{})
	}
	return p.drainCh
}

func (p *Primary) drainBroadcast() {
	p.mu.Lock()
	if p.drainCh != nil {
		close(p.drainCh)
		p.drainCh = nil
	}
	p.mu.Unlock()
}

func (p *Primary) snapshotReplicas() []*replicaState {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]*replicaState, 0, len(p.replicas))
	for _, rs := range p.replicas {
		out = append(out, rs)
	}
	return out
}

// streamingReplicas is the connected set minus anyone still mid-snapshot.
func (p *Primary) streamingReplicas() []*replicaState {
	all := p.snapshotReplicas()
	out := all[:0]
	for _, rs := range all {
		rs.mu.Lock()
		ok := !rs.syncing
		rs.mu.Unlock()
		if ok {
			out = append(out, rs)
		}
	}
	return out
}

// serve runs one replica session: handshake, resync or resume, then the
// shipping loop. A second goroutine reads acks for the session's lifetime.
func (p *Primary) serve(nc net.Conn) {
	defer p.wg.Done()
	defer nc.Close()
	br := bufio.NewReaderSize(nc, 64<<10)
	bw := bufio.NewWriterSize(nc, 256<<10)

	nc.SetReadDeadline(time.Now().Add(10 * time.Second))
	typ, payload, err := server.ReadFrame(br)
	nc.SetReadDeadline(time.Time{})
	if err != nil || typ != msgHello {
		return
	}
	h, err := decodeHello(payload)
	if err != nil || h.Version != replProtoVersion {
		p.sendErr(bw, server.CodeProtocol, "bad replication hello")
		return
	}
	if p.opts.AuthToken != "" && h.Token != p.opts.AuthToken {
		p.sendErr(bw, server.CodeError, "authentication failed")
		return
	}

	rs := newReplicaState(h.Name, nc)
	p.mu.Lock()
	p.nextID++
	rs.id = p.nextID
	p.replicas[rs.id] = rs
	p.ackBroadcastLocked(false)
	p.mu.Unlock()
	defer func() {
		p.mu.Lock()
		delete(p.replicas, rs.id)
		p.ackBroadcastLocked(false)
		p.mu.Unlock()
		p.drainBroadcast()
		// Close pooled read connections that are idle; busy ones close
		// via their statement's error path.
		for {
			select {
			case cl := <-rs.idle:
				cl.Close()
			default:
				return
			}
		}
	}()

	// Ack reader: the session's only frame reader after the handshake.
	// Closing the conn (session end, Primary.Close) unblocks it.
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		for {
			typ, payload, err := server.ReadFrame(br)
			if err != nil {
				nc.Close() // wake a shipper blocked in a send
				return
			}
			switch typ {
			case msgAck:
				lsn, _, err := server.ReadUvarint(payload)
				if err != nil {
					nc.Close()
					return
				}
				rs.mu.Lock()
				rs.acked = lsn
				rs.mu.Unlock()
				p.stAcks.Inc()
				p.ackBroadcastLocked(true)
			case msgReadAddr:
				if addr, _, err := server.ReadString(payload); err == nil {
					rs.mu.Lock()
					rs.readAddr = addr
					rs.mu.Unlock()
				}
			default:
				nc.Close()
				return
			}
		}
	}()
	defer func() { <-readerDone }()

	p.ship(rs, bw, h, readerDone)
}

func (p *Primary) sendErr(bw *bufio.Writer, code byte, msg string) {
	server.WriteFrame(bw, server.MsgError, encodeErr(code, msg))
	bw.Flush()
}

// sendMsg writes and flushes one frame, charging blocked socket time to
// the net.ship wait event.
func (p *Primary) sendMsg(rs *replicaState, bw *bufio.Writer, typ byte, payload []byte) error {
	start := time.Now()
	rs.conn.SetWriteDeadline(time.Now().Add(10 * time.Second))
	err := server.WriteFrame(bw, typ, payload)
	if err == nil {
		err = bw.Flush()
	}
	rs.conn.SetWriteDeadline(time.Time{})
	if fl := p.db.FlightRecorder(); fl.Enabled() {
		fl.ObserveWait(flightrec.WaitNetShip, time.Since(start).Microseconds())
	}
	return err
}

// ship decides resume-vs-resync and then runs the shipping loop until the
// session ends. pos is always the LSN of the next primary-log byte to send.
func (p *Primary) ship(rs *replicaState, bw *bufio.Writer, h helloMsg, sessionDone <-chan struct{}) {
	w := p.db.WAL()
	logID, tail := w.Position()
	start, _ := w.Bounds()

	pos := h.LSN
	if h.LogID == logID && start <= pos && pos <= tail {
		// The replica's in-memory position still names bytes of our log: resume.
		if err := p.sendMsg(rs, bw, msgResume, nil); err != nil {
			return
		}
	} else {
		var err error
		if pos, err = p.snapshot(rs, bw, logID); err != nil {
			return
		}
	}
	rs.mu.Lock()
	rs.syncing = false
	rs.mu.Unlock()

	for {
		if p.closed.Load() {
			return
		}
		// Publish the drained position (the truncate barrier waits on it).
		rs.setShipped(pos)
		p.drainBroadcast()
		b, err := w.ReadChunk(logID, pos, chunkSize)
		switch {
		case err != nil:
			// The log closed, or a truncate left pos below its start (the
			// bytes are gone: the replica's next session resyncs).
			return
		case b == nil:
			// Caught up: wait for more.
			select {
			case <-w.TailChanged():
			case <-sessionDone:
				return // the ack reader saw the connection die
			}
		default:
			if err := p.sendMsg(rs, bw, msgShip, shipMsg{StartLSN: pos, Frames: b}.encode()); err != nil {
				return
			}
			pos += uint64(len(b))
			p.stChunks.Inc()
			p.stBytes.Add(uint64(len(b)))
		}
	}
}

// snapshot serves a full resync: the store files (read fuzzily while the
// database keeps running — any page the copy tears or misses is covered by
// a page image or record in the WAL prefix shipped after it, exactly the
// state a crash would leave) and then the whole WAL prefix, from the log's
// start to its durable end. A truncate racing the copy discards part of the
// prefix and restarts the snapshot.
func (p *Primary) snapshot(rs *replicaState, bw *bufio.Writer, logID uint64) (prefixEnd wal.LSN, err error) {
	p.snapMu.Lock()
	defer p.snapMu.Unlock()
	w := p.db.WAL()
	p.stResyncs.Inc()
	for attempt := 0; ; attempt++ {
		if attempt > 16 {
			return 0, fmt.Errorf("repl: snapshot kept racing truncations")
		}
		// Checkpoint first: it brings the files up to date with the
		// statistics as they stand and, when no transaction is mid-flight,
		// shrinks the shipped prefix to the trailing window.
		if err := p.db.Checkpoint(); err != nil {
			return 0, err
		}
		start, _ := w.Bounds()
		if err := p.sendMsg(rs, bw, msgSnapBegin, encodeSnapBegin(logID, start)); err != nil {
			return 0, err
		}
		if err := p.sendStoreFiles(rs, bw); err != nil {
			return 0, err
		}
		// The WAL prefix is read after the copy so it covers every page
		// image logged by write-backs that raced the file reads.
		pos := start
		for {
			b, rerr := w.ReadChunk(logID, pos, chunkSize)
			if rerr == wal.ErrTruncated {
				break // truncated under us: restart the whole snapshot
			}
			if rerr != nil {
				return 0, rerr
			}
			if b == nil {
				if err := p.sendMsg(rs, bw, msgSnapEnd, server.AppendUvarint(nil, pos)); err != nil {
					return 0, err
				}
				return pos, nil
			}
			if err := p.sendMsg(rs, bw, msgSnapWAL, b); err != nil {
				return 0, err
			}
			pos += uint64(len(b))
		}
	}
}

// sendStoreFiles streams every store file in the data directory (the WAL
// travels separately as the snapshot's prefix).
func (p *Primary) sendStoreFiles(rs *replicaState, bw *bufio.Writer) error {
	entries, err := os.ReadDir(p.db.Dir())
	if err != nil {
		return err
	}
	names := make([]string, 0, len(entries))
	for _, e := range entries {
		if e.IsDir() || e.Name() == "anywhere.log" || !strings.HasSuffix(e.Name(), ".db") {
			continue
		}
		names = append(names, e.Name())
	}
	sort.Strings(names)
	buf := make([]byte, chunkSize)
	for _, name := range names {
		f, err := os.Open(filepath.Join(p.db.Dir(), name))
		if err != nil {
			return err
		}
		off := uint64(0)
		for {
			n, rerr := f.ReadAt(buf, int64(off))
			if n > 0 {
				m := snapFileMsg{Name: name, Off: off, Chunk: buf[:n]}
				if err := p.sendMsg(rs, bw, msgSnapFile, m.encode()); err != nil {
					f.Close()
					return err
				}
				off += uint64(n)
			}
			if rerr != nil {
				break // EOF (or a shrink under the fuzzy read: the prefix covers it)
			}
		}
		f.Close()
	}
	return nil
}

// onTruncate is the WAL's pre-truncate barrier: give every connected,
// streaming replica session a bounded window to be shipped the log to its
// durable end, so it reads on at the same LSN in the new file instead of
// resyncing.
func (p *Primary) onTruncate(end wal.LSN) {
	deadline := time.NewTimer(p.opts.DrainTimeout)
	defer deadline.Stop()
	for {
		drained := true
		for _, rs := range p.snapshotReplicas() {
			rs.mu.Lock()
			lagging := !rs.syncing && rs.shipped < end
			rs.mu.Unlock()
			if lagging {
				drained = false
				break
			}
		}
		if drained || p.closed.Load() {
			return
		}
		ch := p.drainWaitCh()
		select {
		case <-ch:
		case <-deadline.C:
			return // stragglers resync
		}
	}
}

// onCommit is the WAL's synchronous-replication commit hook, run by the
// group-commit flush leader after each successful flush: block until one
// replica acknowledges the group's bytes as durable, or the timeout
// degrades the group to an async ack. With no replicas connected the
// stream is async by definition and the hook returns immediately.
func (p *Primary) onCommit(end wal.LSN) {
	if !p.opts.SyncCommit || p.closed.Load() {
		return
	}
	if len(p.streamingReplicas()) == 0 {
		// No replica is past its snapshot: the stream is asynchronous by
		// definition (this is also what keeps a snapshot's own checkpoint
		// from waiting on the very replica it is serving).
		return
	}
	start := time.Now()
	timer := time.NewTimer(p.opts.SyncTimeout)
	defer timer.Stop()
	defer func() {
		if fl := p.db.FlightRecorder(); fl.Enabled() {
			fl.ObserveWait(flightrec.WaitNetShip, time.Since(start).Microseconds())
		}
	}()
	for {
		if p.closed.Load() {
			// Shutdown, not degradation: replication is ending, and any
			// client still waiting on this commit is losing its connection
			// to the closing server anyway.
			return
		}
		reps := p.streamingReplicas()
		if len(reps) == 0 {
			p.stSyncDegraded.Inc() // the promised replica vanished mid-wait
			return
		}
		for _, rs := range reps {
			rs.mu.Lock()
			acked := rs.acked >= end
			rs.mu.Unlock()
			if acked {
				p.stSyncAcked.Inc()
				return
			}
		}
		ch := p.ackWaitCh()
		select {
		case <-ch:
		case <-timer.C:
			p.stSyncDegraded.Inc()
			return
		}
	}
}

// lagOf is a replica's apply lag in primary-log bytes (the whole durable
// history while it syncs).
func (p *Primary) lagOf(rs *replicaState) uint64 {
	_, tail := p.db.WAL().Position()
	rs.mu.Lock()
	defer rs.mu.Unlock()
	if rs.syncing {
		return tail
	}
	return tail - min(rs.acked, tail)
}

// RouteRead implements server.Options.RouteRead: forward a read-only
// statement to the least-loaded caught-up replica. Anything that is not a
// plain SELECT — or that touches local-only state (sys.* tables, PROPERTY)
// — runs locally (Stmt.Routable). Any forwarding failure falls back to
// local execution, so routing never turns a healthy statement into an error.
func (p *Primary) RouteRead(st *core.Stmt, params []val.Value) (*server.RoutedResult, bool) {
	if p.closed.Load() || !st.Routable {
		return nil, false
	}
	rs := p.pickReplica()
	if rs == nil {
		return nil, false
	}
	rs.inflight.Add(1)
	defer rs.inflight.Add(-1)
	cl, err := p.readClient(rs)
	if err != nil {
		p.stFallback.Inc()
		return nil, false
	}
	rows, err := cl.Query(st.Text, params...)
	rs.releaseClient(cl, err == nil)
	if err != nil {
		p.stFallback.Inc()
		return nil, false
	}
	p.stRouted.Inc()
	return &server.RoutedResult{Cols: rows.Cols, Rows: rows.Data}, true
}

// pickReplica chooses the routing target: among replicas that serve reads
// and are within the lag bound, the one with the fewest routed statements
// in flight (round-robin on ties, so equal replicas share the load).
func (p *Primary) pickReplica() *replicaState {
	reps := p.snapshotReplicas()
	var cands []*replicaState
	for _, rs := range reps {
		rs.mu.Lock()
		ok := !rs.syncing && rs.readAddr != ""
		rs.mu.Unlock()
		if ok && p.lagOf(rs) <= maxRouteLagBytes {
			cands = append(cands, rs)
		}
	}
	if len(cands) == 0 {
		return nil
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].id < cands[j].id })
	p.mu.Lock()
	rr := p.routeRR
	p.routeRR++
	p.mu.Unlock()
	best := cands[rr%uint64(len(cands))]
	for _, rs := range cands {
		if rs.inflight.Load() < best.inflight.Load() {
			best = rs
		}
	}
	return best
}

// readClient checks out a read-forwarding connection from the replica's
// pool: an idle one if available, a fresh dial if the pool is not at
// capacity, otherwise it waits for a statement in flight to finish (the
// replica is saturated; queueing here is the backpressure).
func (p *Primary) readClient(rs *replicaState) (*client.Client, error) {
	select {
	case cl := <-rs.idle:
		return cl, nil
	default:
	}
	select {
	case cl := <-rs.idle:
		return cl, nil
	case rs.slots <- struct{}{}:
		rs.mu.Lock()
		addr := rs.readAddr
		rs.mu.Unlock()
		cl, err := client.Dial(addr, client.Options{Token: p.opts.AuthToken, Name: "repl-router"})
		if err != nil {
			<-rs.slots
			return nil, err
		}
		return cl, nil
	}
}

// releaseClient returns a checked-out connection to the pool, or retires
// it (freeing its slot for a fresh dial) after a statement failure.
func (rs *replicaState) releaseClient(cl *client.Client, healthy bool) {
	if healthy {
		rs.idle <- cl
		return
	}
	cl.Close()
	<-rs.slots
}

// replicasTable is the sys.replicas virtual table: one row per connected
// replica with its stream position, acks, lag, and routing state.
func (p *Primary) replicasTable() ([]table.Column, []exec.Row) {
	cols := []table.Column{
		{Name: "id", Kind: val.KInt},
		{Name: "name", Kind: val.KStr},
		{Name: "read_addr", Kind: val.KStr},
		{Name: "state", Kind: val.KStr},
		{Name: "shipped_lsn", Kind: val.KInt},
		{Name: "acked_lsn", Kind: val.KInt},
		{Name: "lag_bytes", Kind: val.KInt},
		{Name: "inflight_reads", Kind: val.KInt},
		{Name: "age_us", Kind: val.KInt},
	}
	reps := p.snapshotReplicas()
	sort.Slice(reps, func(i, j int) bool { return reps[i].id < reps[j].id })
	rows := make([]exec.Row, 0, len(reps))
	for _, rs := range reps {
		lag := p.lagOf(rs)
		rs.mu.Lock()
		state := "streaming"
		if rs.syncing {
			state = "syncing"
		}
		row := exec.Row{
			val.NewInt(int64(rs.id)),
			val.NewStr(rs.name),
			val.NewStr(rs.readAddr),
			val.NewStr(state),
			val.NewInt(int64(rs.shipped)),
			val.NewInt(int64(rs.acked)),
			val.NewInt(int64(lag)),
			val.NewInt(rs.inflight.Load()),
			val.NewInt(time.Since(rs.connected).Microseconds()),
		}
		rs.mu.Unlock()
		rows = append(rows, row)
	}
	return cols, rows
}
