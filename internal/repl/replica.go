package repl

import (
	"bufio"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"anywheredb/internal/core"
	"anywheredb/internal/server"
	"anywheredb/internal/wal"
)

const (
	// ackInterval is the progress-heartbeat period: acks also ride every
	// applied chunk, so this only bounds idle staleness.
	ackInterval = 200 * time.Millisecond
	// retryInterval is the reconnect backoff after a lost primary.
	retryInterval = 500 * time.Millisecond
)

// ReplicaOptions configures one read replica process.
type ReplicaOptions struct {
	// Dir is the replica's own data directory. Its contents are disposable:
	// a restarted replica always resyncs from the primary.
	Dir string
	// PrimaryAddr is the primary's replication listen address.
	PrimaryAddr string
	// Token authenticates against the primary (and protects the replica's
	// own read endpoint).
	Token string
	// Name identifies this replica in the primary's sys.replicas table.
	Name string
	// ReadListen is the listen address for the replica's SQL read endpoint
	// ("127.0.0.1:0" when empty). Whatever port the first listen binds is
	// pinned and reused across resyncs, so routed clients stay valid.
	ReadListen string
	// Core is the template for the replica's database instance (MPL, pool
	// size, device, flight recorder...). Dir and ReplicaMode are overridden.
	Core core.Options
	// DialTimeout bounds each connect attempt (default 5s).
	DialTimeout time.Duration
}

func (o *ReplicaOptions) fill() {
	if o.ReadListen == "" {
		o.ReadListen = "127.0.0.1:0"
	}
	if o.DialTimeout <= 0 {
		o.DialTimeout = 5 * time.Second
	}
	if o.Name == "" {
		o.Name = "replica"
	}
}

// streamPos is the replica's position in the primary's log. It lives only
// in memory: a replica restart always renegotiates from zero (= resync).
type streamPos struct {
	logID uint64
	lsn   wal.LSN
}

// Replica connects to a primary, syncs a copy of the database, applies the
// shipped stream, and serves read-only SQL on its own endpoint. It keeps
// retrying through primary restarts until Stop.
type Replica struct {
	opts ReplicaOptions

	mu       sync.Mutex
	db       *core.DB
	srv      *server.Server
	applier  *core.Applier
	pos      streamPos
	partial  []byte // buffered bytes of a frame split across ship chunks
	readAddr string // pinned after the first successful listen
	conn     net.Conn

	stop    chan struct{}
	stopped atomic.Bool
	ready   chan struct{}
	readyMu sync.Mutex
	wg      sync.WaitGroup

	resyncs atomic.Int64
}

// StartReplica launches the replica's connect/sync/apply loop.
func StartReplica(opts ReplicaOptions) (*Replica, error) {
	opts.fill()
	if opts.Dir == "" || opts.PrimaryAddr == "" {
		return nil, fmt.Errorf("repl: replica needs Dir and PrimaryAddr")
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, err
	}
	r := &Replica{opts: opts, stop: make(chan struct{}), ready: make(chan struct{})}
	r.wg.Add(1)
	go r.run()
	return r, nil
}

// DB exposes the replica's current database instance (nil before the first
// sync completes; replaced by every resync).
func (r *Replica) DB() *core.DB {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.db
}

// ReadAddr is the replica's SQL endpoint ("" before the first sync).
func (r *Replica) ReadAddr() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.readAddr
}

// Resyncs counts full snapshot syncs this replica has performed.
func (r *Replica) Resyncs() int64 { return r.resyncs.Load() }

// WaitReady blocks until the replica is streaming and serving reads (true)
// or the timeout passes (false).
func (r *Replica) WaitReady(d time.Duration) bool {
	select {
	case <-r.readyCh():
		return true
	case <-time.After(d):
		return false
	}
}

func (r *Replica) readyCh() <-chan struct{} {
	r.readyMu.Lock()
	defer r.readyMu.Unlock()
	return r.ready
}

func (r *Replica) signalReady() {
	r.readyMu.Lock()
	select {
	case <-r.ready:
	default:
		close(r.ready)
	}
	r.readyMu.Unlock()
}

// Stop ends replication abruptly: the primary session drops, the read
// server closes, and the database crash-stops — no checkpoint, so the
// local WAL keeps every in-flight shipped transaction for a later Promote.
func (r *Replica) Stop() {
	if r.stopped.Swap(true) {
		return
	}
	close(r.stop)
	r.mu.Lock()
	conn := r.conn
	r.mu.Unlock()
	if conn != nil {
		conn.Close()
	}
	r.wg.Wait()
	r.mu.Lock()
	srv, db := r.srv, r.db
	r.srv, r.db = nil, nil
	r.mu.Unlock()
	if srv != nil {
		srv.Close()
	}
	if db != nil {
		db.Crash()
	}
}

// Promote reopens a stopped replica's data directory as a writable
// primary-capable database. Recovery replays the replica's local WAL —
// every acknowledged commit is durable there — and undoes transactions
// whose commit never arrived; the index trees are rebuilt because the
// replica never maintained them.
func Promote(dir string, tmpl core.Options) (*core.DB, error) {
	tmpl.Dir = dir
	tmpl.ReplicaMode = false
	tmpl.RebuildIndexesOnOpen = true
	return core.Open(tmpl)
}

// run is the reconnect loop: each session either resumes in place or
// resyncs from scratch, then streams until the connection dies.
func (r *Replica) run() {
	defer r.wg.Done()
	for {
		if r.stopped.Load() {
			return
		}
		if err := r.session(); err != nil && !r.stopped.Load() {
			// Session errors are expected operation (primary restarting,
			// network blip): back off and retry.
			select {
			case <-time.After(retryInterval):
			case <-r.stop:
				return
			}
			continue
		}
		if r.stopped.Load() {
			return
		}
	}
}

// session runs one primary connection to completion.
func (r *Replica) session() error {
	nc, err := net.DialTimeout("tcp", r.opts.PrimaryAddr, r.opts.DialTimeout)
	if err != nil {
		return err
	}
	r.mu.Lock()
	if r.stopped.Load() {
		r.mu.Unlock()
		nc.Close()
		return nil
	}
	r.conn = nc
	pos := r.pos
	r.mu.Unlock()
	defer func() {
		nc.Close()
		r.mu.Lock()
		r.conn = nil
		r.mu.Unlock()
	}()

	br := bufio.NewReaderSize(nc, 256<<10)
	var wmu sync.Mutex // serializes the stream loop's acks with heartbeats
	bw := bufio.NewWriterSize(nc, 32<<10)
	send := func(typ byte, payload []byte) error {
		wmu.Lock()
		defer wmu.Unlock()
		nc.SetWriteDeadline(time.Now().Add(10 * time.Second))
		err := server.WriteFrame(bw, typ, payload)
		if err == nil {
			err = bw.Flush()
		}
		nc.SetWriteDeadline(time.Time{})
		return err
	}

	hello := helloMsg{
		Version: replProtoVersion, Token: r.opts.Token, Name: r.opts.Name,
		LogID: pos.logID, LSN: pos.lsn,
	}
	if err := send(msgHello, hello.encode()); err != nil {
		return err
	}

	typ, payload, err := server.ReadFrame(br)
	if err != nil {
		return err
	}
	switch typ {
	case msgResume:
		// Our in-memory position survived: db, applier, partial all stand.
	case msgSnapBegin:
		if err := r.resync(br, typ, payload); err != nil {
			// A failed snapshot leaves no usable state behind.
			r.invalidate()
			return err
		}
	case server.MsgError:
		return wireErr(payload)
	default:
		return fmt.Errorf("repl: unexpected message 0x%02x after hello", typ)
	}

	// (Re)announce the read endpoint: the primary's per-session state
	// starts empty even on a resume.
	r.mu.Lock()
	addr := r.readAddr
	r.mu.Unlock()
	if addr != "" {
		if err := send(msgReadAddr, server.AppendString(nil, addr)); err != nil {
			return err
		}
	}
	r.sendAck(send)
	r.signalReady()

	// Idle heartbeat: progress acks normally ride every applied chunk.
	hbDone := make(chan struct{})
	defer close(hbDone)
	go func() {
		t := time.NewTicker(ackInterval)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				r.sendAck(send)
			case <-hbDone:
				return
			case <-r.stop:
				return
			}
		}
	}()

	for {
		typ, payload, err := server.ReadFrame(br)
		if err != nil {
			return err
		}
		switch typ {
		case msgShip:
			m, err := decodeShip(payload)
			if err != nil {
				return err
			}
			ckpt, err := r.applyChunk(m)
			if err != nil {
				// Wrong offset, corrupt frame, unknown table: the stream
				// state is unusable — force a snapshot next session.
				r.invalidate()
				return err
			}
			r.sendAck(send)
			if ckpt {
				// The primary logs RecCheckpoint just before it truncates
				// its log: checkpoint too, so the local log is truncated
				// rather than growing forever. Here, at the chunk boundary,
				// every ingested record has been applied.
				if err := r.DB().Checkpoint(); err != nil {
					r.invalidate()
					return err
				}
			}
		case server.MsgError:
			return wireErr(payload)
		default:
			return fmt.Errorf("repl: unexpected stream message 0x%02x", typ)
		}
	}
}

// sendAck reports the stream position: a chunk is ingested into the local
// synced WAL and applied before the position moves past it.
func (r *Replica) sendAck(send func(byte, []byte) error) {
	r.mu.Lock()
	lsn := r.pos.lsn
	r.mu.Unlock()
	send(msgAck, server.AppendUvarint(nil, lsn))
}

// invalidate wipes the stream position so the next session hellos with
// zeros and the primary serves a fresh snapshot.
func (r *Replica) invalidate() {
	r.mu.Lock()
	r.pos = streamPos{}
	r.partial = nil
	r.mu.Unlock()
}

// applyChunk ingests one shipped chunk: whole frames go into the local WAL
// (durability for the ack) and through the applier; a trailing partial
// frame is buffered for the next chunk. ckpt reports that the frames held
// a RecCheckpoint.
func (r *Replica) applyChunk(m shipMsg) (ckpt bool, err error) {
	r.mu.Lock()
	db, applier := r.db, r.applier
	expect := r.pos.lsn + uint64(len(r.partial))
	r.mu.Unlock()
	if db == nil || applier == nil {
		return false, fmt.Errorf("repl: ship before sync")
	}
	if m.StartLSN != expect {
		return false, fmt.Errorf("repl: stream gap: got chunk at %d, expected %d", m.StartLSN, expect)
	}
	r.partial = append(r.partial, m.Frames...)

	var recs []*wal.Record
	consumed, err := wal.DecodeFrames(r.partial, func(_ int, rec *wal.Record) error {
		recs = append(recs, rec)
		ckpt = ckpt || rec.Type == wal.RecCheckpoint
		return nil
	})
	if err != nil || consumed == 0 {
		return false, err
	}
	// Durable first, then visible: the ack promises both.
	if err := ingestApply(db, applier, r.partial[:consumed], recs); err != nil {
		return false, err
	}
	rest := r.partial[consumed:]
	r.mu.Lock()
	r.partial = append(r.partial[:0], rest...)
	r.pos.lsn += uint64(consumed)
	r.mu.Unlock()
	return ckpt, nil
}

// resync receives a full snapshot: the primary's store files plus the WAL
// prefix [start, prefixEnd), which becomes the local log at the same LSNs,
// so they compare as they did on the primary with the LSNs stamped in the
// copied pages. The copy is fuzzy — the primary keeps running — but file
// bytes + prefix are exactly what a crash at prefixEnd would have left on
// the primary's disk (an in-place write waits until the log durably holds
// an image of the page logged since start and every record after it, so
// any torn or mid-write page the copy caught is repaired from the prefix).
// Opening the directory therefore runs ordinary crash recovery: redo
// everything, undo transactions with no commit in the prefix. Those undone
// transactions are still live on the primary, so their records are
// re-applied through the streaming applier (making them pending MVCC state
// that commits when the stream ships the commit record) and re-ingested
// into the local WAL (so a promotion can undo them if the commit never
// arrives).
func (r *Replica) resync(br *bufio.Reader, typ byte, payload []byte) error {
	r.resyncs.Add(1)
restart:
	logID, start, err := decodeSnapBegin(payload)
	if err != nil {
		return err
	}
	if err := r.teardown(); err != nil {
		return err
	}

	var prefix []byte
	files := map[string]*os.File{}
	closeFiles := func() {
		for _, f := range files {
			f.Close()
		}
	}

	for {
		typ, payload, err = server.ReadFrame(br)
		if err != nil {
			closeFiles()
			return err
		}
		switch typ {
		case msgSnapBegin:
			// The primary's log truncated mid-snapshot; it starts over.
			closeFiles()
			goto restart
		case msgSnapFile:
			m, err := decodeSnapFile(payload)
			if err != nil {
				closeFiles()
				return err
			}
			if !validSnapName(m.Name) {
				closeFiles()
				return fmt.Errorf("repl: snapshot names unsafe file %q", m.Name)
			}
			f, ok := files[m.Name]
			if !ok {
				f, err = os.OpenFile(filepath.Join(r.opts.Dir, m.Name), os.O_CREATE|os.O_WRONLY, 0o644)
				if err != nil {
					closeFiles()
					return err
				}
				files[m.Name] = f
			}
			if _, err := f.WriteAt(m.Chunk, int64(m.Off)); err != nil {
				closeFiles()
				return err
			}
		case msgSnapWAL:
			prefix = append(prefix, payload...)
		case msgSnapEnd:
			prefixEnd, _, err := server.ReadUvarint(payload)
			if err != nil {
				closeFiles()
				return err
			}
			if start+uint64(len(prefix)) != prefixEnd {
				closeFiles()
				return fmt.Errorf("repl: snapshot prefix from %d is %d bytes, primary says it ends at %d", start, len(prefix), prefixEnd)
			}
			for _, f := range files {
				if err := f.Sync(); err != nil {
					closeFiles()
					return err
				}
			}
			closeFiles()
			if err := wal.WriteLog(filepath.Join(r.opts.Dir, "anywhere.log"), start, prefix); err != nil {
				return err
			}
			return r.openFromSnapshot(logID, prefixEnd, prefix)
		case server.MsgError:
			closeFiles()
			return wireErr(payload)
		default:
			closeFiles()
			return fmt.Errorf("repl: unexpected snapshot message 0x%02x", typ)
		}
	}
}

// validSnapName accepts only the flat store-file names a primary ships.
func validSnapName(name string) bool {
	return name != "" && !strings.ContainsAny(name, "/\\") && name != ".." &&
		strings.HasSuffix(name, ".db")
}

// teardown closes the read server and crash-stops the previous database
// instance, then empties the data directory for the incoming snapshot.
func (r *Replica) teardown() error {
	r.mu.Lock()
	srv, db := r.srv, r.db
	r.srv, r.db, r.applier = nil, nil, nil
	r.pos = streamPos{}
	r.partial = nil
	r.mu.Unlock()
	if srv != nil {
		srv.Close()
	}
	if db != nil {
		db.Crash()
	}
	entries, err := os.ReadDir(r.opts.Dir)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if err := os.RemoveAll(filepath.Join(r.opts.Dir, e.Name())); err != nil {
			return err
		}
	}
	return nil
}

// openFromSnapshot opens the copied directory (running crash recovery),
// re-establishes the primary's in-flight transactions, and starts the read
// endpoint.
func (r *Replica) openFromSnapshot(logID uint64, prefixEnd wal.LSN, prefix []byte) error {
	tmpl := r.opts.Core
	tmpl.Dir = r.opts.Dir
	tmpl.ReplicaMode = true
	tmpl.RebuildIndexesOnOpen = false
	db, err := core.Open(tmpl)
	if err != nil {
		return err
	}
	applier := db.NewApplier()

	if err := r.repassUnsettled(db, applier, prefix); err != nil {
		db.Crash()
		return err
	}

	reg := db.Telemetry()
	reg.GaugeFunc("repl.apply_records", func() int64 { return int64(applier.Records) })
	reg.GaugeFunc("repl.apply_commits", func() int64 { return int64(applier.Commits) })
	reg.GaugeFunc("repl.apply_inflight", func() int64 { return int64(applier.InFlight()) })
	reg.GaugeFunc("repl.stream_lsn", func() int64 {
		r.mu.Lock()
		defer r.mu.Unlock()
		return int64(r.pos.lsn)
	})
	reg.GaugeFunc("repl.resyncs", func() int64 { return r.resyncs.Load() })

	// Start (or restart) the read endpoint on the pinned address.
	r.mu.Lock()
	listen := r.readAddr
	r.mu.Unlock()
	if listen == "" {
		listen = r.opts.ReadListen
	}
	srv, err := server.Start(db, server.Options{Addr: listen, AuthToken: r.opts.Token})
	if err != nil {
		db.Crash()
		return err
	}

	r.mu.Lock()
	r.db, r.applier, r.srv = db, applier, srv
	r.readAddr = srv.Addr().String()
	r.pos = streamPos{logID: logID, lsn: prefixEnd}
	r.partial = nil
	r.mu.Unlock()
	return nil
}

// repassUnsettled replays the snapshot prefix's unfinished transactions.
// Recovery just undid them (no commit in the prefix), but they are still
// live on the primary and the stream will keep shipping their records: the
// applier must know them as in-flight, their row versions must exist as
// uncommitted MVCC state, and their records must be back in the local WAL
// so a promotion's recovery sees the full story.
func (r *Replica) repassUnsettled(db *core.DB, applier *core.Applier, prefix []byte) error {
	settled := map[uint64]bool{}
	if _, err := wal.DecodeFrames(prefix, func(_ int, rec *wal.Record) error {
		if rec.Type == wal.RecCommit || rec.Type == wal.RecRollback {
			settled[rec.Txn] = true
		}
		return nil
	}); err != nil {
		return err
	}

	var raw []byte
	var recs []*wal.Record
	off := 0
	consumed, err := wal.DecodeFrames(prefix, func(frameLen int, rec *wal.Record) error {
		if rec.Txn != 0 && !settled[rec.Txn] && rec.Type != wal.RecPageImage && rec.Type != wal.RecCheckpoint {
			raw = append(raw, prefix[off:off+frameLen]...)
			recs = append(recs, rec)
		}
		off += frameLen
		return nil
	})
	if err != nil {
		return err
	}
	if consumed != len(prefix) {
		return fmt.Errorf("repl: snapshot prefix has a torn tail (%d of %d bytes)", consumed, len(prefix))
	}
	if len(recs) == 0 {
		return nil
	}
	return ingestApply(db, applier, raw, recs)
}

// ingestApply makes the whole frames raw, whose records are recs, durable
// in the local log, and then applies each record at the LSN it got there.
func ingestApply(db *core.DB, applier *core.Applier, raw []byte, recs []*wal.Record) error {
	lsn, err := db.WAL().IngestRaw(raw, len(recs))
	if err != nil {
		return err
	}
	for _, rec := range recs {
		lsn += wal.FrameLen(rec)
		rec.LSN = lsn
		if err := applier.Apply(rec); err != nil {
			return err
		}
	}
	return nil
}
