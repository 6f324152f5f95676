package server

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"anywheredb/internal/core"
	"anywheredb/internal/exec"
	"anywheredb/internal/faultinject"
	"anywheredb/internal/flightrec"
	"anywheredb/internal/lock"
	"anywheredb/internal/table"
	"anywheredb/internal/telemetry"
	"anywheredb/internal/val"
)

// Options configures a network server. Every field has a working default;
// the admission controller itself has no tuning knobs (see gate).
type Options struct {
	// Addr is the TCP listen address ("127.0.0.1:0" when empty).
	Addr string
	// AuthToken, when non-empty, must match the token in each client hello.
	AuthToken string
	// DrainTimeout bounds graceful drain: in-flight statements get this
	// long to finish before being cancelled. Default 5s.
	DrainTimeout time.Duration
	// SendTimeout is the per-connection write deadline covering result
	// streaming. A client that cannot drain its socket within it is
	// disconnected. Default 10s.
	SendTimeout time.Duration
	// BufSize is the per-connection buffered reader/writer size (the
	// bounded send/receive buffers). Default 64KiB.
	BufSize int
	// AdmissionOff disables the admission gate — the experiment baseline
	// of E24.
	AdmissionOff bool

	// RouteRead, when non-nil, is consulted for every statement that
	// arrives outside an explicit transaction, before the admission gate:
	// a handled=true return means the statement was served elsewhere (the
	// replication layer forwards read-only statements to the least-lagged
	// replica) and the returned result is streamed to the client without
	// this instance spending an admission slot or an executor on it. A
	// handled=false return runs the statement locally, so a router that
	// cannot place a statement degrades to normal service, never an error.
	RouteRead func(st *core.Stmt, params []val.Value) (*RoutedResult, bool)
}

// RoutedResult is a statement result produced by an external read router
// instead of the local engine (see Options.RouteRead).
type RoutedResult struct {
	Cols         []string
	Rows         [][]val.Value
	RowsAffected int64
}

func (o *Options) fill() {
	if o.Addr == "" {
		o.Addr = "127.0.0.1:0"
	}
	if o.DrainTimeout <= 0 {
		o.DrainTimeout = 5 * time.Second
	}
	if o.SendTimeout <= 0 {
		o.SendTimeout = 10 * time.Second
	}
	if o.BufSize <= 0 {
		o.BufSize = 64 << 10
	}
}

// recvQueue bounds the per-connection pipeline of decoded-but-unserved
// requests. A client pipelining past it blocks in TCP backpressure — the
// bounded receive side.
const recvQueue = 16

// Server is one network endpoint serving a core.DB.
type Server struct {
	db   *core.DB
	opts Options
	ln   net.Listener
	gate *gate // nil with AdmissionOff

	mu     sync.Mutex
	conns  map[uint64]*srvConn
	nextID uint64

	draining atomic.Bool
	closed   atomic.Bool
	acceptWG sync.WaitGroup
	connWG   sync.WaitGroup
	inflight sync.WaitGroup // statements from admission through response flush

	stConns     *telemetry.Counter
	stStmts     *telemetry.Counter
	stShed      *telemetry.Counter
	stRetryable *telemetry.Counter
	stBytes     *telemetry.Counter
	stSlowKills *telemetry.Counter
	stDrains    *telemetry.Counter
	stQueueUS   *telemetry.Histogram
}

// Start opens the listener and begins serving in the background.
func Start(db *core.DB, opts Options) (*Server, error) {
	opts.fill()
	ln, err := net.Listen("tcp", opts.Addr)
	if err != nil {
		return nil, err
	}
	s := &Server{
		db:    db,
		opts:  opts,
		ln:    ln,
		conns: map[uint64]*srvConn{},
	}
	if !opts.AdmissionOff {
		s.gate = newGate(db.MemGovernor().MPL())
	}
	reg := db.Telemetry()
	s.stConns = reg.Counter("server.conns_total")
	s.stStmts = reg.Counter("server.statements")
	s.stShed = reg.Counter("server.shed")
	s.stRetryable = reg.Counter("server.retryable_errors")
	s.stBytes = reg.Counter("server.bytes_sent")
	s.stSlowKills = reg.Counter("server.slow_disconnects")
	s.stDrains = reg.Counter("server.drains")
	s.stQueueUS = reg.Histogram("server.queue_us")
	reg.GaugeFunc("server.connections", func() int64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		return int64(len(s.conns))
	})
	reg.GaugeFunc("server.admission_width", func() int64 {
		if s.gate == nil {
			return 0
		}
		_, _, _, _, eff, _ := s.gate.snapshot()
		return int64(eff)
	})
	reg.GaugeFunc("server.baseline_p99_us", func() int64 {
		if s.gate == nil {
			return 0
		}
		_, _, _, _, _, base := s.gate.snapshot()
		return base
	})
	reg.GaugeFunc("server.admission_shrinks", func() int64 {
		if s.gate == nil {
			return 0
		}
		_, _, _, shrinks, _, _ := s.gate.snapshot()
		return shrinks
	})
	db.RegisterVirtualTable("sys.connections", s.connectionsTable)

	s.acceptWG.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr reports the bound listen address (useful with port 0).
func (s *Server) Addr() net.Addr { return s.ln.Addr() }

func (s *Server) acceptLoop() {
	defer s.acceptWG.Done()
	for {
		nc, err := s.ln.Accept()
		if err != nil {
			return // listener closed: shutting down
		}
		if s.draining.Load() || s.closed.Load() {
			nc.Close()
			continue
		}
		s.connWG.Add(1)
		go s.serveConn(nc)
	}
}

// --- connection ------------------------------------------------------------

type connState int32

const (
	connIdle connState = iota
	connActive
)

type srvConn struct {
	id   uint64
	s    *Server
	nc   net.Conn
	br   *bufio.Reader
	bw   *bufio.Writer
	core *core.Conn

	deadline time.Duration // connection-default statement deadline (0 = server default)
	name     string        // client-reported name
	started  time.Time

	stmts    map[uint64]*core.Stmt // prepared statements
	nextStmt uint64

	curMu  sync.Mutex
	cancel context.CancelFunc // cancel of the statement in flight, nil when idle

	state atomic.Int32
	nRun  atomic.Int64
	bytes atomic.Int64
	fp    atomic.Value // string: Stmt.Fingerprint of the current / last statement
}

func (c *srvConn) cancelCurrent() {
	c.curMu.Lock()
	cancel := c.cancel
	c.curMu.Unlock()
	if cancel != nil {
		cancel()
	}
}

func (s *Server) serveConn(nc net.Conn) {
	defer s.connWG.Done()
	defer nc.Close()

	c := &srvConn{
		s:       s,
		nc:      nc,
		br:      bufio.NewReaderSize(nc, s.opts.BufSize),
		bw:      bufio.NewWriterSize(nc, s.opts.BufSize),
		started: time.Now(),
		stmts:   map[uint64]*core.Stmt{},
	}
	c.fp.Store("")

	// Handshake: the first frame must be a valid, authenticated hello
	// within a short deadline.
	nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	typ, payload, err := readFrame(c.br)
	if err != nil {
		return
	}
	nc.SetReadDeadline(time.Time{})
	if typ != msgHello {
		c.sendErr(codeProtocol, "expected hello")
		c.flush()
		return
	}
	hello, err := decodeHello(payload)
	if err != nil || hello.Version != ProtoVersion {
		c.sendErr(codeProtocol, "bad hello")
		c.flush()
		return
	}
	if s.opts.AuthToken != "" && hello.Token != s.opts.AuthToken {
		c.sendErr(codeProtocol, "authentication failed")
		c.flush()
		return
	}
	c.name = hello.ClientName
	c.deadline = time.Duration(hello.DeadlineUS) * time.Microsecond

	conn, err := s.db.Connect()
	if err != nil {
		c.sendErr(codeRetry, "server not accepting connections")
		c.flush()
		return
	}
	c.core = conn
	defer conn.Close()
	if c.deadline > 0 {
		conn.SetStatementTimeout(c.deadline)
	}

	s.mu.Lock()
	s.nextID++
	c.id = s.nextID
	s.conns[c.id] = c
	s.mu.Unlock()
	s.stConns.Inc()
	defer func() {
		s.mu.Lock()
		delete(s.conns, c.id)
		s.mu.Unlock()
	}()
	if s.closed.Load() {
		// Teardown swept the connection map between accept and
		// registration: this handler must not outlive the server.
		return
	}

	b := AppendUvarint(nil, ProtoVersion)
	b = AppendUvarint(b, c.id)
	if c.send(msgHelloOK, b) != nil || c.flush() != nil {
		return
	}

	// Reader: pulls frames off the socket. Cancel is handled here, out of
	// band, so it can interrupt the statement the worker is running.
	// Everything else flows through the bounded request queue.
	type request struct {
		typ     byte
		payload []byte
	}
	reqs := make(chan request, recvQueue)
	readerDone := make(chan struct{})
	go func() {
		defer close(reqs)
		defer close(readerDone)
		for {
			typ, payload, err := readFrame(c.br)
			if err != nil {
				return
			}
			if typ == msgCancel {
				c.cancelCurrent()
				continue
			}
			reqs <- request{typ, payload}
			if typ == msgQuit {
				return
			}
		}
	}()
	// The worker owns the write side. When it exits, closing the socket
	// unblocks a reader in readFrame, and draining the queue unblocks a
	// reader parked on a full queue.
	defer func() {
		nc.Close()
		go func() {
			for range reqs {
			}
		}()
		<-readerDone
	}()

	for req := range reqs {
		switch req.typ {
		case msgQuit:
			return
		case msgPrepare:
			sql, _, err := ReadString(req.payload)
			if err != nil {
				c.sendErr(codeProtocol, "bad prepare frame")
				c.flush()
				return
			}
			// Read once, here; a parse error surfaces when the handle runs.
			c.nextStmt++
			c.stmts[c.nextStmt] = s.db.Prepare(sql)
			if c.send(msgPrepareOK, AppendUvarint(nil, c.nextStmt)) != nil || c.flush() != nil {
				return
			}
		case msgCloseStmt:
			id, _, err := ReadUvarint(req.payload)
			if err != nil {
				c.sendErr(codeProtocol, "bad close frame")
				c.flush()
				return
			}
			delete(c.stmts, id)
			if c.send(msgDone, AppendUvarint(nil, 0)) != nil || c.flush() != nil {
				return
			}
		case msgExec:
			m, err := decodeExec(req.payload)
			if err != nil {
				c.sendErr(codeProtocol, "bad exec frame")
				c.flush()
				return
			}
			if err := c.runStatement(m); err != nil {
				return
			}
		default:
			c.sendErr(codeProtocol, fmt.Sprintf("unknown message 0x%02x", req.typ))
			c.flush()
			return
		}
	}
}

// runStatement executes one statement end to end: admission, execution
// under the statement context, and response streaming. A non-nil return
// is connection-fatal (a write failed or the client is too slow).
func (c *srvConn) runStatement(m execMsg) error {
	s := c.s
	st := c.stmts[m.StmtID]
	if m.StmtID == 0 {
		st = s.db.Prepare(m.SQL) // ad hoc: the same read a prepare does
	} else if st == nil {
		if err := c.sendErr(codeProtocol, fmt.Sprintf("unknown statement id %d", m.StmtID)); err != nil {
			return err
		}
		return c.finish()
	}

	// The drain check and the in-flight registration are one atomic step
	// under s.mu (Shutdown flips the flag under the same mutex): a
	// statement either observes draining and is refused, or is counted
	// before inflight.Wait can pass — never a torn in-between.
	s.mu.Lock()
	if s.draining.Load() {
		s.mu.Unlock()
		s.stRetryable.Inc()
		if err := c.sendErr(codeRetry, "server draining"); err != nil {
			return err
		}
		return c.finish()
	}
	s.inflight.Add(1)
	s.mu.Unlock()
	defer s.inflight.Done()

	ctx, cancel := context.WithCancel(context.Background())
	if m.DeadlineUS > 0 {
		ctx, cancel = context.WithTimeout(ctx, time.Duration(m.DeadlineUS)*time.Microsecond)
	}
	c.curMu.Lock()
	c.cancel = cancel
	c.curMu.Unlock()
	c.state.Store(int32(connActive))
	defer func() {
		c.curMu.Lock()
		c.cancel = nil
		c.curMu.Unlock()
		cancel()
	}()

	c.fp.Store(st.Fingerprint)

	// Read routing, ahead of admission: a statement the router can serve on
	// a replica never competes for this instance's admission width. Only
	// statements outside an explicit transaction are offered — an open
	// transaction's snapshot lives here.
	if rt := s.opts.RouteRead; rt != nil && !c.core.InTxn() {
		if rr, handled := rt(st, m.Params); handled {
			s.stStmts.Inc()
			c.nRun.Add(1)
			return c.streamResult(rr.Cols, rr.Rows, rr.RowsAffected)
		}
	}

	// Admission: the self-managing gate queues or sheds when the memory
	// governor's concurrency budget (MPL) is spoken for.
	var release func(int64)
	if s.gate != nil {
		qStart := time.Now()
		rel, err := s.gate.admit(ctx)
		s.stQueueUS.Observe(time.Since(qStart).Microseconds())
		if err != nil {
			s.stShed.Inc()
			s.stRetryable.Inc()
			code := byte(codeRetry)
			text := "admission control shed statement; retry"
			if !errors.Is(err, ErrShed) {
				code = codeCancel
				text = "statement cancelled while queued: " + err.Error()
			}
			if werr := c.sendErr(code, text); werr != nil {
				return werr
			}
			return c.finish()
		}
		release = rel
	}

	start := time.Now()
	res, rows, err := c.core.Run(ctx, st, m.Params)
	latUS := time.Since(start).Microseconds()
	if release != nil {
		release(latUS)
	}
	s.stStmts.Inc()
	c.nRun.Add(1)

	if err != nil {
		code, retry := classify(err)
		if retry {
			s.stRetryable.Inc()
		}
		if werr := c.sendErr(code, err.Error()); werr != nil {
			return werr
		}
		return c.finish()
	}

	var cols []string
	var all [][]val.Value
	if rows != nil {
		cols = rows.Columns()
		all = rows.All()
	}
	return c.streamResult(cols, all, res.RowsAffected)
}

// finish flushes the last frame of a statement's answer. The connection is
// marked idle first: once the client can hold the answer, sys.connections
// must not still show the statement as running.
func (c *srvConn) finish() error {
	c.state.Store(int32(connIdle))
	return c.flush()
}

// streamResult streams one statement result: header, then row batches
// chunked at the engine's batch size, each flushed under the slow-client
// write deadline, then done.
func (c *srvConn) streamResult(cols []string, all [][]val.Value, affected int64) error {
	if len(cols) > 0 {
		if err := c.send(msgRowHeader, encodeRowHeader(cols)); err != nil {
			return err
		}
		for pos := 0; pos < len(all); pos += exec.DefaultBatchSize {
			end := pos + exec.DefaultBatchSize
			if end > len(all) {
				end = len(all)
			}
			if err := c.send(msgRowBatch, encodeRowBatch(all[pos:end])); err != nil {
				return err
			}
			if err := c.flush(); err != nil {
				return err
			}
		}
	}
	if err := c.send(msgDone, appendVarint(nil, affected)); err != nil {
		return err
	}
	return c.finish()
}

// classify maps an execution error to a wire status. Transient faults,
// lock-wait timeouts (possible deadlocks), and admission sheds are
// retryable; context expiry is a cancel; the rest are plain errors.
func classify(err error) (code byte, retryable bool) {
	switch {
	case errors.Is(err, faultinject.ErrTransient), errors.Is(err, lock.ErrTimeout):
		return codeRetry, true
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled),
		errors.Is(err, os.ErrDeadlineExceeded):
		return codeCancel, false
	default:
		return codeError, false
	}
}

func (c *srvConn) send(typ byte, payload []byte) error {
	c.nc.SetWriteDeadline(time.Now().Add(c.s.opts.SendTimeout))
	err := writeFrame(c.bw, typ, payload)
	n := int64(len(payload) + 5)
	c.bytes.Add(n)
	c.s.stBytes.Add(uint64(n))
	if err != nil {
		c.noteSendFailure(err)
	}
	return err
}

// flush pushes buffered frames into the socket under the write deadline,
// charging the blocked time to the net.send wait event. A client that
// cannot drain the bounded buffer within the deadline is disconnected.
func (c *srvConn) flush() error {
	start := time.Now()
	c.nc.SetWriteDeadline(time.Now().Add(c.s.opts.SendTimeout))
	err := c.bw.Flush()
	c.nc.SetWriteDeadline(time.Time{})
	if fl := c.s.db.FlightRecorder(); fl.Enabled() {
		fl.ObserveWait(flightrec.WaitNetSend, time.Since(start).Microseconds())
	}
	if err != nil {
		c.noteSendFailure(err)
	}
	return err
}

func (c *srvConn) noteSendFailure(err error) {
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		c.s.stSlowKills.Inc()
	}
}

func (c *srvConn) sendErr(code byte, text string) error {
	return c.send(msgError, errMsg{Code: code, Message: text}.encode())
}

// --- sys.connections -------------------------------------------------------

func (s *Server) connectionsTable() ([]table.Column, []exec.Row) {
	cols := []table.Column{
		{Name: "id", Kind: val.KInt},
		{Name: "remote_addr", Kind: val.KStr},
		{Name: "state", Kind: val.KStr},
		{Name: "statements", Kind: val.KInt},
		{Name: "bytes_sent", Kind: val.KInt},
		{Name: "fingerprint", Kind: val.KStr},
		{Name: "age_us", Kind: val.KInt},
	}
	s.mu.Lock()
	list := make([]*srvConn, 0, len(s.conns))
	for _, c := range s.conns {
		list = append(list, c)
	}
	s.mu.Unlock()
	sort.Slice(list, func(i, j int) bool { return list[i].id < list[j].id })
	rows := make([]exec.Row, 0, len(list))
	for _, c := range list {
		state := "idle"
		if connState(c.state.Load()) == connActive {
			state = "active"
		}
		fp, _ := c.fp.Load().(string)
		rows = append(rows, exec.Row{
			val.NewInt(int64(c.id)),
			val.NewStr(c.nc.RemoteAddr().String()),
			val.NewStr(state),
			val.NewInt(c.nRun.Load()),
			val.NewInt(c.bytes.Load()),
			val.NewStr(fp),
			val.NewInt(time.Since(c.started).Microseconds()),
		})
	}
	return cols, rows
}

// --- drain / close ---------------------------------------------------------

// Shutdown drains the server gracefully: stop accepting, answer new
// statements with a retryable "draining" error, give in-flight statements
// DrainTimeout to finish (every completed commit's acknowledgment is
// flushed before its connection closes), cancel the stragglers, then
// checkpoint the database.
func (s *Server) Shutdown(ctx context.Context) error {
	if s.closed.Swap(true) {
		return nil
	}
	s.mu.Lock()
	s.draining.Store(true)
	s.mu.Unlock()
	s.stDrains.Inc()
	s.ln.Close()

	// Phase 1: wait for in-flight statements (including their response
	// flushes) under the drain deadline.
	deadline := s.opts.DrainTimeout
	if dl, ok := ctx.Deadline(); ok {
		if d := time.Until(dl); d < deadline {
			deadline = d
		}
	}
	done := make(chan struct{})
	go func() {
		s.inflight.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(deadline):
		// Phase 2: cancel the overruns; they observe the context at the
		// next batch boundary or lock wait and unwind quickly.
		s.cancelAll()
		select {
		case <-done:
		case <-time.After(s.opts.DrainTimeout):
			// A statement is stuck beyond cancellation: abandon it and
			// close the sockets under it.
		}
	}

	s.teardown(true)
	if s.db.Degraded() || s.db.Closed() {
		return nil
	}
	return s.db.Checkpoint()
}

// Close shuts the server down immediately: no drain, no checkpoint.
// In-flight statements are cancelled and connections closed.
func (s *Server) Close() error {
	if s.closed.Swap(true) {
		return nil
	}
	s.mu.Lock()
	s.draining.Store(true)
	s.mu.Unlock()
	s.ln.Close()
	s.cancelAll()
	s.teardown(false)
	return nil
}

func (s *Server) cancelAll() {
	s.mu.Lock()
	list := make([]*srvConn, 0, len(s.conns))
	for _, c := range s.conns {
		list = append(list, c)
	}
	s.mu.Unlock()
	for _, c := range list {
		c.cancelCurrent()
	}
}

// teardown ends every connection handler. Graceful mode half-closes the
// read side only: the reader sees EOF and stops accepting frames, while
// the worker drains its pending queue — each queued statement still gets
// its clean "draining" refusal (or its already-produced response) flushed
// before the socket closes. Abrupt mode resets the sockets outright.
// Either way the write deadlines bound how long a handler can linger.
func (s *Server) teardown(graceful bool) {
	s.mu.Lock()
	for _, c := range s.conns {
		if tc, ok := c.nc.(*net.TCPConn); graceful && ok {
			tc.CloseRead()
		} else {
			c.nc.Close()
		}
	}
	s.mu.Unlock()
	s.connWG.Wait()
	s.acceptWG.Wait()
	s.db.RegisterVirtualTable("sys.connections", nil)
}
