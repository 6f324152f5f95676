// Package wal implements the transaction log: a separate append-only file
// of physiological redo/undo records with CRC-protected framing, plus the
// crash-recovery scan (redo committed work, undo losers).
//
// Each database consists of a main database file and a separate transaction
// log file (§1); the log is an ordinary OS file.
package wal

import (
	"crypto/rand"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math/bits"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"anywheredb/internal/faultinject"
	"anywheredb/internal/store"
	"anywheredb/internal/telemetry"
)

// RecType enumerates log record kinds.
type RecType uint8

const (
	RecBegin RecType = iota + 1
	RecCommit
	RecRollback
	RecInsert
	RecDelete
	RecUpdate
	RecCheckpoint
	// RecPageLink records heap-chain growth: Page is the old tail, After
	// carries the 8-byte id of the page linked after it. Chain linkage is
	// physical structure shared by every transaction that later inserts
	// into the new page, so recovery redoes these records whatever becomes
	// of their transaction (like any record, onto pages stamped older than
	// them) and never undoes them — an abandoned empty page is harmless, an
	// unreachable committed row is not.
	RecPageLink
	// RecPageImage carries a full page image in After. The buffer pool
	// writes a data page in place only once the log durably holds an image
	// of the page from its current contents, and every record describing a
	// change since that image (see buffer.ImageLog): one image per page per
	// checkpoint, PostgreSQL's full-page-writes rule. So a torn or partial
	// page write can always be repaired from the log: recovery restores the
	// newest image of each page, then redoes every record newer than the
	// LSN stamped in it. The image need not have reached the page — an
	// eviction logs it and writes later, riding whichever flush comes next —
	// so recovery may restore bytes the page never held, which is as safe as
	// restoring bytes it did: they are a state the page passed through.
	// Without it, a torn write destroys rows whose log records an earlier
	// checkpoint truncated, and no amount of replay can bring them back.
	RecPageImage
	// RecColSegDrop invalidates a table's columnar segments: Table is the
	// owner. It is logged before the data record of any update/delete that
	// touches a columnar table, and recovery honors it unconditionally —
	// even for losers — because dropping a valid acceleration structure is
	// harmless while scanning a stale one is not. The row heap stays
	// authoritative either way.
	RecColSegDrop
)

var recNames = map[RecType]string{
	RecBegin: "begin", RecCommit: "commit", RecRollback: "rollback",
	RecInsert: "insert", RecDelete: "delete", RecUpdate: "update",
	RecCheckpoint: "checkpoint", RecPageLink: "pagelink",
	RecPageImage: "pageimage", RecColSegDrop: "colsegdrop",
}

func (t RecType) String() string {
	if s, ok := recNames[t]; ok {
		return s
	}
	return fmt.Sprintf("rectype(%d)", uint8(t))
}

// Record is one physiological log record. Insert carries the new row image
// in After; Delete carries the old image in Before; Update carries both.
type Record struct {
	Type   RecType
	Txn    uint64
	Table  uint64
	Page   store.PageID
	Slot   uint32
	Before []byte
	After  []byte
	// LSN is the record's end-LSN in the log it was read from or ingested
	// into (Scan, IngestRaw); it is not encoded.
	LSN LSN
}

// ErrClosed is returned by flush paths once CloseNoFlush has run. Before
// this sentinel existed, a flush racing Crash/Close could fall into the
// memory-backed write path (l.f == nil looks exactly like mem mode), report
// success, and acknowledge a commit whose bytes never reached disk.
var ErrClosed = fmt.Errorf("wal: log is closed")

// ErrTruncated is returned by ReadChunk and ScanFrom for a position below
// the log's start: a truncate discarded the bytes there. A log-shipping
// consumer that sees it can only resync.
var ErrTruncated = fmt.Errorf("wal: log position was truncated away")

// LSN is a log sequence number: a byte position in the log's history that
// never goes back, not across Truncate nor a reopen. Append returns a
// record's *end* LSN, so the record is durable exactly when FlushedLSN() >=
// that value, and FlushTo(lsn) is the wait for it. Shipping positions
// (Position, ReadChunk) are LSNs too.
type LSN = uint64

// Options configures a log beyond its path.
type Options struct {
	// CommitFlushDelay is the group-commit gather window: a flush leader
	// sleeps this long before sealing the buffer, letting more committers
	// append their records into the batch. 0 flushes immediately (the
	// lowest-latency setting; batching then arises only from committers
	// that pile up behind an in-flight fsync).
	CommitFlushDelay time.Duration
}

// flushGroup is one in-flight group commit. The leader creates it, seals
// the buffer into it, performs the write+sync, publishes err, and closes
// done. Followers whose commit LSN the group covers wait on done and share
// err — on failure, *every* transaction in the group sees the error.
type flushGroup struct {
	done chan struct{}
	err  error // written before done is closed

	// Guarded by Log.mu until done is closed:
	sealed  bool   // buffer swap has happened; end is final
	end     uint64 // durable tail if the flush succeeds
	members int    // committers waiting on this group (leader included)
}

// Log is an append-only transaction log. It is safe for concurrent use.
//
// Durability is group commit with a sealed-buffer swap: one leader writes
// and syncs the sealed buffer for the whole batch while followers block on
// the group's done channel, and concurrent Appends land in the next buffer
// instead of queueing behind the in-flight fsync.
type Log struct {
	mu     sync.Mutex
	f      *os.File // nil when memory-backed
	path   string   // f's path: Truncate renames a new file onto it
	mem    []byte
	memMu  sync.Mutex // guards mem (written outside mu by the flush leader)
	memLog bool       // created memory-backed (empty path); f is nil by design
	closed bool       // CloseNoFlush ran: every later flush fails with ErrClosed
	opts   Options
	tail   uint64 // durable end offset (advanced only after a synced flush)
	end    uint64 // next append offset: tail + in-flight bytes + len(buffer)
	buffer []byte // active (unsealed) pending bytes; appends land here
	spare  []byte // the last successfully flushed buffer, emptied for reuse

	// A truncated log begins with a header, hdr bytes long: a RecCheckpoint
	// whose After is start, the LSN its records begin after. File offset off
	// is LSN start+off-hdr. Guarded by mu.
	start LSN
	hdr   uint64

	// epochMu is held shared by every in-place page write from the check
	// that the log holds what the write needs to the end of the write
	// (HoldEpoch), and exclusively by Truncate: a truncate can never fall
	// between a write-back's check and its write.
	epochMu sync.RWMutex

	// logID is the log's identity for the shipping handshake, a random value
	// per Open: a restarted primary is a different log even at the same
	// path, so a position (logID, LSN) never names another log's bytes.
	logID uint64

	// tailCh is closed and replaced whenever the durable tail advances, the
	// log truncates, or the log closes — the shipping loop's wakeup.
	tailCh chan struct{}

	// commitHook, when set, is called by the group-commit flush leader after
	// each successful non-empty flush, outside l.mu, before the group's
	// waiters are released. Synchronous replication rides it: the hook
	// blocks until a replica acknowledges the group's end LSN, so every
	// committer in the group observes the replica ack before its Commit
	// returns.
	commitHook atomic.Pointer[func(end LSN)]

	// truncBarrier, when set, is called by Truncate before the reset,
	// outside l.mu, with the durable end LSN: it gives log shippers a bounded
	// window to ship the log to that end (they read via ReadChunk, which
	// never needs this goroutine's locks), so a caught-up replica reads on at
	// the same LSN in the new file instead of resyncing.
	truncBarrier atomic.Pointer[func(end LSN)]

	inflight *flushGroup // the in-flight group commit (nil if none)

	// Fault handling, set once before concurrent use (SetInjector).
	inj   faultinject.Injector
	pol   faultinject.RetryPolicy
	stats *faultinject.Stats

	records     atomic.Uint64 // records appended
	checkpoints atomic.Uint64 // checkpoint records appended
	flushes     atomic.Uint64 // non-empty flushes (one fsync each)
	truncates   atomic.Uint64
	bytes       atomic.Uint64 // payload+frame bytes appended

	groupCommits atomic.Uint64 // flushes that retired more than one waiter
	flushWaiters atomic.Uint64 // FlushTo calls that blocked as followers
	// commitsPerFlush observes the number of waiters each non-empty flush
	// retired; bound at AttachTelemetry time (observations before that are
	// dropped, which only affects pre-registry startup flushes).
	commitsPerFlush atomic.Pointer[telemetry.Histogram]

	// flushWaitObs, when set, is called once per FlushTo call that blocked
	// for durability — a follower's group wait or the leader's own
	// write+fsync — with the blocked wall-clock microseconds. The fast path
	// (tail already covers lsn) reports nothing. Feeds the flight
	// recorder's "wal.flush" wait event.
	flushWaitObs atomic.Pointer[func(us int64)]
}

// SetFlushWaitObserver installs (or replaces) the durability-wait
// observer. A nil f uninstalls.
func (l *Log) SetFlushWaitObserver(f func(us int64)) {
	if f == nil {
		l.flushWaitObs.Store(nil)
		return
	}
	l.flushWaitObs.Store(&f)
}

// SetInjector installs fault interception and transient-retry handling for
// the group-commit flush path. Must be called before the log is used
// concurrently. stats may be nil.
func (l *Log) SetInjector(inj faultinject.Injector, pol faultinject.RetryPolicy, stats *faultinject.Stats) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.inj = inj
	l.pol = pol
	l.stats = stats
}

// AttachTelemetry publishes the log's counters into reg under "wal.".
func (l *Log) AttachTelemetry(reg *telemetry.Registry) {
	reg.GaugeFunc("wal.records", func() int64 { return int64(l.records.Load()) })
	reg.GaugeFunc("wal.checkpoints", func() int64 { return int64(l.checkpoints.Load()) })
	reg.GaugeFunc("wal.flushes", func() int64 { return int64(l.flushes.Load()) })
	reg.GaugeFunc("wal.truncates", func() int64 { return int64(l.truncates.Load()) })
	reg.GaugeFunc("wal.bytes_appended", func() int64 { return int64(l.bytes.Load()) })
	reg.GaugeFunc("wal.group_commits", func() int64 { return int64(l.groupCommits.Load()) })
	reg.GaugeFunc("wal.flush_waiters", func() int64 { return int64(l.flushWaiters.Load()) })
	l.commitsPerFlush.Store(reg.Histogram("wal.commits_per_flush"))
}

// Open opens (or creates) the log file at path. An empty path yields a
// memory-backed log for tests.
func Open(path string) (*Log, error) { return OpenOptions(path, Options{}) }

// OpenOptions opens the log with explicit options.
func OpenOptions(path string, opts Options) (*Log, error) {
	l := &Log{opts: opts, logID: randomID()}
	if path == "" {
		l.memLog = true
		return l, nil
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: open: %w", err)
	}
	info, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	l.f = f
	// Rewind the append position to the end of the valid record prefix:
	// a crash can leave a torn frame at the tail, and appending after it
	// would strand the new records behind garbage Scan refuses to cross.
	// Damage that is provably mid-log — a complete-but-corrupt frame with
	// intact records after it — is not a crash remnant and fails the open.
	data := make([]byte, info.Size())
	if _, err := f.ReadAt(data, 0); err != nil && info.Size() > 0 {
		f.Close()
		return nil, fmt.Errorf("wal: open scan: %w", err)
	}
	prefix, err := validPrefix(data)
	if err != nil {
		f.Close()
		return nil, err
	}
	if prefix > 0 {
		n := 8 + uint64(binary.LittleEndian.Uint32(data))
		if r, _ := decode(data[8:n]); r.Type == RecCheckpoint && len(r.After) == 8 {
			l.start, l.hdr = binary.LittleEndian.Uint64(r.After), n
		}
	}
	l.path, l.tail = path, prefix
	l.end = l.tail
	return l, nil
}

// lsnOf is the LSN of file offset off. Called with l.mu held.
func (l *Log) lsnOf(off uint64) LSN { return l.start + off - l.hdr }

// randomID draws the per-Open log identity.
func randomID() uint64 {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic(fmt.Sprintf("wal: random log id: %v", err))
	}
	// Never zero: consumers use logID 0 as "no position yet".
	return binary.LittleEndian.Uint64(b[:]) | 1
}

// validPrefix walks frames from the start and returns the byte offset just
// past the last intact record. An incomplete final frame, or a damaged one
// with nothing readable after it, is the unflushed remnant of a crash and
// terminates the walk silently. A damaged frame followed by an intact
// record is mid-log corruption — committed records live past the damage and
// silently dropping them would un-commit acknowledged work — so that case
// is a loud ErrCorrupt.
func validPrefix(data []byte) (uint64, error) {
	off := uint64(0)
	for off+8 <= uint64(len(data)) {
		n := binary.LittleEndian.Uint32(data[off:])
		sum := binary.LittleEndian.Uint32(data[off+4:])
		end := off + 8 + uint64(n)
		if end > uint64(len(data)) {
			return off, nil // torn tail: the frame never finished landing
		}
		payload := data[off+8 : end]
		ok := crc32.ChecksumIEEE(payload) == sum
		if ok {
			if _, err := decode(payload); err != nil {
				ok = false
			}
		}
		if !ok {
			if frameIntactAt(data, end) {
				return off, faultinject.Corrupt(fmt.Errorf(
					"wal: corrupt record at offset %d with intact records after it (%d trailing bytes)",
					off, uint64(len(data))-end))
			}
			return off, nil // corrupt tail: last flush died mid-write
		}
		off = end
	}
	return off, nil
}

// frameIntactAt reports whether a complete, CRC-valid, decodable frame
// starts at off. validPrefix uses it to tell mid-log corruption (real
// records continue after the damage) from a torn tail.
func frameIntactAt(data []byte, off uint64) bool {
	if off+8 > uint64(len(data)) {
		return false
	}
	n := binary.LittleEndian.Uint32(data[off:])
	sum := binary.LittleEndian.Uint32(data[off+4:])
	end := off + 8 + uint64(n)
	if end > uint64(len(data)) {
		return false
	}
	payload := data[off+8 : end]
	if crc32.ChecksumIEEE(payload) != sum {
		return false
	}
	_, err := decode(payload)
	return err == nil
}

// appendFrame encodes r as one frame — payload length, payload CRC,
// payload — at the end of dst, growing it at most once, and returns the
// extended slice. The payload is written exactly once, in place.
func appendFrame(dst []byte, r *Record) []byte {
	n := int(FrameLen(r)) - 8
	dst = slices.Grow(dst, 8+n)
	off := len(dst)
	dst = append(dst[:off+8], byte(r.Type))
	dst = binary.AppendUvarint(dst, r.Txn)
	dst = binary.AppendUvarint(dst, r.Table)
	dst = binary.AppendUvarint(dst, uint64(r.Page))
	dst = binary.AppendUvarint(dst, uint64(r.Slot))
	dst = binary.AppendUvarint(dst, uint64(len(r.Before)))
	dst = append(dst, r.Before...)
	dst = binary.AppendUvarint(dst, uint64(len(r.After)))
	dst = append(dst, r.After...)
	binary.LittleEndian.PutUint32(dst[off:], uint32(n))
	binary.LittleEndian.PutUint32(dst[off+4:], crc32.ChecksumIEEE(dst[off+8:]))
	return dst
}

// FrameLen is the length of r's frame in a log: a record decoded from a
// frame ends FrameLen bytes past where the frame starts.
func FrameLen(r *Record) uint64 {
	return uint64(9 + uvarintLen(r.Txn) + uvarintLen(r.Table) + uvarintLen(uint64(r.Page)) +
		uvarintLen(uint64(r.Slot)) + uvarintLen(uint64(len(r.Before))) + len(r.Before) +
		uvarintLen(uint64(len(r.After))) + len(r.After))
}

// uvarintLen is the length of x's uvarint encoding.
func uvarintLen(x uint64) int { return (bits.Len64(x|1) + 6) / 7 }

func decode(b []byte) (*Record, error) {
	bad := fmt.Errorf("wal: corrupt record")
	if len(b) < 1 {
		return nil, bad
	}
	r := &Record{Type: RecType(b[0])}
	b = b[1:]
	uv := func() uint64 {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			b = nil
			return 0
		}
		b = b[n:]
		return v
	}
	r.Txn = uv()
	r.Table = uv()
	r.Page = store.PageID(uv())
	r.Slot = uint32(uv())
	bn := uv()
	if b == nil || uint64(len(b)) < bn {
		return nil, bad
	}
	r.Before = append([]byte(nil), b[:bn]...)
	b = b[bn:]
	an := uv()
	if b == nil || uint64(len(b)) < an {
		return nil, bad
	}
	r.After = append([]byte(nil), b[:an]...)
	return r, nil
}

// Append adds a record to the log buffer and returns its end-LSN: the
// record is durable exactly when the durable tail (FlushedLSN) reaches the
// returned value, so a committer passes it straight to FlushTo.
func (l *Log) Append(r *Record) LSN {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.appendLocked(r)
}

func (l *Log) appendLocked(r *Record) LSN {
	before := len(l.buffer)
	l.buffer = appendFrame(l.buffer, r)
	n := uint64(len(l.buffer) - before)
	l.end += n
	l.records.Add(1)
	l.bytes.Add(n)
	if r.Type == RecCheckpoint {
		l.checkpoints.Add(1)
	}
	return l.lsnOf(l.end)
}

// LogImage appends a full image of page id (a RecPageImage record outside
// any transaction) without flushing it, and returns its end-LSN. The buffer
// pool calls it before an in-place write; the write itself waits until
// Bounds reports the image durable — typically on the back of the next
// commit's flush.
func (l *Log) LogImage(id store.PageID, data []byte) LSN {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.appendLocked(&Record{Type: RecPageImage, Page: id, After: data})
}

// Bounds reports the LSN the log's contents start after and the LSN it is
// durable through (0 once closed). Call it between HoldEpoch and
// ReleaseEpoch to keep the answer true for the write that depends on it.
func (l *Log) Bounds() (start, durable LSN) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return l.start, 0
	}
	return l.start, l.lsnOf(l.tail)
}

// HoldEpoch keeps Truncate from running until the matching ReleaseEpoch.
// Holds may overlap; none may be taken twice by one goroutine.
func (l *Log) HoldEpoch() { l.epochMu.RLock() }

// ReleaseEpoch ends a HoldEpoch.
func (l *Log) ReleaseEpoch() { l.epochMu.RUnlock() }

// Flush forces every record appended so far to stable storage (group
// commit: one flush covers every record appended since the last).
func (l *Log) Flush() error {
	return l.FlushTo(l.PendingLSN())
}

// FlushTo blocks until the durable tail covers lsn (an end-LSN returned by
// Append), flushing if needed. One leader performs the write+sync for the
// whole batch while followers wait on the group; appends made during the
// in-flight fsync land in the next buffer (sealed-buffer swap) and do not
// block.
//
// Failure semantics: when a group's flush fails, every transaction waiting
// on that group gets the error, and the sealed bytes return to the pending
// buffer — the records are not durable, the tail has not advanced, and a
// later flush (e.g. of the rollback records failed committers append) may
// still land them. Transient flush
// faults are retried with bounded exponential backoff; a crashing flush
// may land a torn prefix, which the recovery Scan drops at the first
// incomplete frame.
func (l *Log) FlushTo(lsn LSN) error {
	// blocked marks that this call waited for durability (follower wait or
	// leader write+fsync); the deferred observer reports the blocked time
	// once per call. The fast path below never sets it.
	var blockStart time.Time
	blocked := false
	defer func() {
		if blocked {
			if f := l.flushWaitObs.Load(); f != nil {
				(*f)(time.Since(blockStart).Microseconds())
			}
		}
	}()
	l.mu.Lock()
	if end := l.lsnOf(l.end); lsn > end {
		lsn = end
	}
	for {
		if l.lsnOf(l.tail) >= lsn {
			l.mu.Unlock()
			return nil
		}
		// Checked after the tail: records that were durable before the close
		// still report success; anything needing a new flush fails.
		if l.closed {
			l.mu.Unlock()
			return ErrClosed
		}
		g := l.inflight
		if g == nil {
			break // become the leader
		}
		if !blocked {
			blockStart, blocked = time.Now(), true
		}
		if !g.sealed || l.lsnOf(g.end) >= lsn {
			// Follower: an unsealed group will seal everything appended so
			// far (including our record); a sealed group covers us iff its
			// end does. Either way this group's flush decides our fate.
			g.members++
			l.flushWaiters.Add(1)
			l.mu.Unlock()
			<-g.done
			return g.err
		}
		// The in-flight flush was sealed before our record; wait for it to
		// retire, then re-evaluate (its successor will cover us).
		l.mu.Unlock()
		<-g.done
		l.mu.Lock()
	}

	// Leader (l.mu held): publish the group, optionally linger to gather
	// more committers, then seal the buffer and flush it outside the mutex.
	g := &flushGroup{done: make(chan struct{}), members: 1}
	l.inflight = g
	if d := l.opts.CommitFlushDelay; d > 0 {
		l.mu.Unlock()
		time.Sleep(d)
		l.mu.Lock()
	}
	sealed := l.buffer
	l.buffer, l.spare = l.spare, nil
	base := l.tail
	g.sealed = true
	g.end = base + uint64(len(sealed))
	l.mu.Unlock()

	var err error
	if len(sealed) > 0 {
		if !blocked {
			blockStart, blocked = time.Now(), true
		}
		err = faultinject.Retry(l.pol, l.stats, func() error {
			return l.flushOnce(base, sealed)
		})
	}

	l.mu.Lock()
	callHook, hookEnd := false, l.lsnOf(g.end)
	if err == nil {
		l.tail = g.end
		if len(sealed) > 0 {
			l.flushes.Add(1)
			if g.members > 1 {
				l.groupCommits.Add(1)
			}
			if h := l.commitsPerFlush.Load(); h != nil {
				h.Observe(int64(g.members))
			}
			l.tailBroadcastLocked()
			callHook = true
		}
		// The flushed buffer becomes the next one appends fill, unless it
		// grew past what a commit stream needs (a checkpoint's images).
		if cap(sealed) <= maxSpare {
			l.spare = sealed[:0]
		}
	} else {
		// The group failed: its records stay pending ahead of anything
		// appended meanwhile, so the log's byte order (and every assigned
		// LSN) is preserved for a later flush attempt.
		l.buffer = append(sealed, l.buffer...)
	}
	l.mu.Unlock()

	// Synchronous-replication ack rides the leader: the group stays
	// in-flight (followers blocked on done, late committers queue behind
	// it) until the hook returns. The hook bounds its own wait, so a dead
	// replica degrades the group to an async ack instead of wedging it.
	if callHook {
		if h := l.commitHook.Load(); h != nil {
			(*h)(hookEnd)
		}
	}

	l.mu.Lock()
	g.err = err
	l.inflight = nil
	close(g.done)
	l.mu.Unlock()
	return err
}

// maxSpare caps the capacity of a flushed buffer kept for reuse.
const maxSpare = 1 << 20

// tailBroadcastLocked wakes every TailChanged waiter. Called with l.mu held
// whenever the durable tail moves, the log truncates, or the log closes.
func (l *Log) tailBroadcastLocked() {
	if l.tailCh != nil {
		close(l.tailCh)
		l.tailCh = nil
	}
}

// TailChanged returns a channel that is closed the next time the durable
// tail advances, the log truncates, or the log closes. The shipping loop
// waits on it when it has drained the durable log, then re-reads Position.
func (l *Log) TailChanged() <-chan struct{} {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		ch := make(chan struct{})
		close(ch)
		return ch
	}
	if l.tailCh == nil {
		l.tailCh = make(chan struct{})
	}
	return l.tailCh
}

// SetCommitHook installs (or, with nil, removes) the synchronous-
// replication commit hook, which each successful flush calls with the end
// LSN it made durable; see the field comment.
func (l *Log) SetCommitHook(f func(end LSN)) {
	if f == nil {
		l.commitHook.Store(nil)
		return
	}
	l.commitHook.Store(&f)
}

// SetTruncateBarrier installs (or, with nil, removes) the pre-truncate
// drain barrier; see the field comment.
func (l *Log) SetTruncateBarrier(f func(end LSN)) {
	if f == nil {
		l.truncBarrier.Store(nil)
		return
	}
	l.truncBarrier.Store(&f)
}

// flushOnce attempts one write+sync of b at offset base, consulting the
// injector first. On a torn flush the surviving prefix is written before
// the error is surfaced; the tail does not advance, so the caller's view
// is "commit failed" while the medium holds an incomplete frame — exactly
// the state a real power loss leaves behind.
func (l *Log) flushOnce(base uint64, b []byte) error {
	out := b
	if l.inj != nil {
		repl, ferr := l.inj.Fault(faultinject.OpWALFlush, base, b)
		if ferr != nil {
			if repl != nil {
				l.writeRaw(base, repl)
			}
			return ferr
		}
		if repl != nil {
			out = repl // silent corruption: the medium gets altered bytes
		}
	}
	if err := l.writeRaw(base, out); err != nil {
		return fmt.Errorf("wal: flush: %w", err)
	}
	return nil
}

// writeRaw lands bytes at offset base and syncs. It is called by the flush
// leader without l.mu held; the write target [base, base+len(b)) is always
// at or past the durable tail, so it never overlaps the range Scan reads.
func (l *Log) writeRaw(base uint64, b []byte) error {
	if len(b) == 0 {
		return nil
	}
	if l.f != nil {
		if _, err := l.f.WriteAt(b, int64(base)); err != nil {
			return fmt.Errorf("wal: flush: %w", err)
		}
		if err := l.f.Sync(); err != nil {
			return fmt.Errorf("wal: sync: %w", err)
		}
		return nil
	}
	if !l.memLog {
		// File-backed log whose file is gone: the log was closed under us.
		// Falling through to the memory buffer would fake durability.
		return ErrClosed
	}
	l.memMu.Lock()
	if need := int(base) + len(b); need > len(l.mem) {
		l.mem = append(l.mem, make([]byte, need-len(l.mem))...)
	}
	copy(l.mem[base:], b)
	l.memMu.Unlock()
	return nil
}

// FlushedLSN reports the LSN up to which the log is durable. It advances
// only when a sealed buffer has been written and synced, so it never
// covers a record still sitting in an unsealed (or in-flight) buffer.
func (l *Log) FlushedLSN() LSN {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.lsnOf(l.tail)
}

// PendingLSN reports the end-LSN of the last appended record (the durable
// tail plus everything still buffered or in flight).
func (l *Log) PendingLSN() LSN {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.lsnOf(l.end)
}

// Position reports the log's identity and the LSN it is durable through —
// the primary's side of the shipping handshake.
func (l *Log) Position() (logID uint64, durable LSN) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.logID, l.lsnOf(l.tail)
}

// drainLocked waits until no flush is in flight. Called with l.mu held;
// reacquires it before returning. Truncate and CloseNoFlush use it so the
// file is never truncated or closed under an in-flight leader's WriteAt.
func (l *Log) drainLocked() {
	for l.inflight != nil {
		g := l.inflight
		l.mu.Unlock()
		<-g.done
		l.mu.Lock()
	}
}

// scanChunkSize is the read-window size for ScanFrom. A variable, not a
// constant, so the allocation-bound regression test can shrink it and prove
// the scan never materializes more than one window.
var scanChunkSize = 256 << 10

// Scan iterates over every durable record in LSN order. A truncated or
// corrupt tail terminates the scan silently (it is the unflushed remnant of
// a crash); a damaged frame with durable records after it is mid-log
// corruption and fails with an error wrapping faultinject.ErrCorrupt.
func (l *Log) Scan(fn func(lsn LSN, r *Record) error) error {
	return l.ScanFrom(0, fn)
}

// ScanFrom iterates over the durable records at and past LSN from (which
// must be a frame boundary: zero, or an end-LSN from Append), passing each
// one's start LSN and setting its end-LSN in r.LSN; a truncated log's header
// is not a record. It reads the log in bounded windows rather than
// materializing it — peak memory is one window (scanChunkSize, or one frame
// if larger) regardless of log size — and holds no log mutex across reads:
// the durable range [0, tail) is never rewritten, so the walk cannot race
// the flush leader; a truncate that replaces the file mid-walk fails it with
// ErrTruncated. Recovery's Analyze is ScanFrom(0).
func (l *Log) ScanFrom(from LSN, fn func(lsn LSN, r *Record) error) error {
	l.mu.Lock()
	tail, f, start, hdr := l.tail, l.f, l.start, l.hdr
	l.mu.Unlock()
	from = max(from, start) - start + hdr
	if from >= tail {
		return nil
	}

	buf := make([]byte, scanChunkSize)
	winStart, winLen := from, uint64(0) // buf[:winLen] mirrors log[winStart:winStart+winLen]
	refill := func(at, need uint64) error {
		if need > uint64(len(buf)) {
			buf = make([]byte, need) // one oversized frame
		}
		n := tail - at
		if n > uint64(len(buf)) {
			n = uint64(len(buf))
		}
		if err := l.readAt(f, start, buf[:n], at); err != nil {
			return err
		}
		winStart, winLen = at, n
		return nil
	}

	off := from
	for off+8 <= tail {
		if off < winStart || off+8 > winStart+winLen {
			if err := refill(off, 8); err != nil {
				return err
			}
		}
		rel := off - winStart
		n := binary.LittleEndian.Uint32(buf[rel:])
		sum := binary.LittleEndian.Uint32(buf[rel+4:])
		end := off + 8 + uint64(n)
		if end > tail {
			return nil // incomplete frame at the durable tail
		}
		if end > winStart+winLen {
			if err := refill(off, 8+uint64(n)); err != nil {
				return err
			}
			rel = 0
		}
		payload := buf[rel+8 : rel+8+uint64(n)]
		ok := crc32.ChecksumIEEE(payload) == sum
		var r *Record
		if ok {
			var err error
			if r, err = decode(payload); err != nil {
				ok = false
			}
		}
		if !ok {
			if end < tail {
				// Durable bytes continue past the damage: committed records
				// would be silently dropped. Fail loudly instead.
				return faultinject.Corrupt(fmt.Errorf(
					"wal: corrupt record at lsn %d with %d durable bytes after it", off, tail-end))
			}
			return nil // corrupt final frame: crash remnant
		}
		r.LSN = start + end - hdr
		if err := fn(start+off-hdr, r); err != nil {
			return err
		}
		off = end
	}
	return nil
}

// ReadChunk returns up to max raw durable bytes of the log named logID,
// starting at LSN from, for shipping to a replica. It fails with
// ErrTruncated when from is below the log's start — a truncate discarded
// those bytes — and with another error when from is past the durable tail
// or logID names a different Open. A nil, nil return means the shipper is
// caught up: wait on TailChanged. A truncate leaves every position at or
// past the durable tail valid, since the new log starts exactly there, so a
// caught-up shipper reads across one at the same LSN. No lock is held
// during the file read.
func (l *Log) ReadChunk(logID uint64, from LSN, max int) ([]byte, error) {
	l.mu.Lock()
	start, tail, f := l.start, l.lsnOf(l.tail), l.f
	off := from - start + l.hdr
	var err error
	switch {
	case l.closed:
		err = ErrClosed
	case logID != l.logID:
		err = fmt.Errorf("wal: position names log %#x, not this log %#x", logID, l.logID)
	case from < start:
		err = ErrTruncated
	case from > tail:
		err = fmt.Errorf("wal: position %d is past the durable tail %d", from, tail)
	}
	l.mu.Unlock()
	if err != nil || from == tail {
		return nil, err
	}
	out := make([]byte, min(tail-from, uint64(max)))
	if err := l.readAt(f, start, out, off); err != nil {
		return nil, err
	}
	return out, nil
}

// readAt fills dst from offset off of f, the file that held the log while
// its records began after LSN start (nil for a memory-backed log), below
// its durable tail. A truncate that replaced the file since fails the read
// with ErrTruncated: the new log starts at or past that tail, so the bytes
// wanted are gone.
func (l *Log) readAt(f *os.File, start LSN, dst []byte, off uint64) error {
	var err error
	if !l.memLog {
		if _, err = f.ReadAt(dst, int64(off)); err == nil {
			return nil
		}
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	switch {
	case l.start != start:
		return ErrTruncated
	case !l.memLog && l.closed:
		return ErrClosed
	case !l.memLog:
		return fmt.Errorf("wal: read: %w", err)
	}
	// Memory-backed: mem is the file, and under mu no truncate replaces it.
	l.memMu.Lock()
	defer l.memMu.Unlock()
	if off+uint64(len(dst)) > uint64(len(l.mem)) {
		return fmt.Errorf("wal: read past memory log end")
	}
	copy(dst, l.mem[off:])
	return nil
}

// DecodeFrames walks the whole frames at the start of b — a byte range
// shipped from another log via ReadChunk — calling fn with each frame's
// total length (header plus payload) and decoded record. It returns the
// number of bytes consumed: a trailing partial frame is left for the caller
// to buffer until the rest arrives (ReadChunk windows cut at byte, not
// frame, boundaries). A complete frame that fails its CRC or decode is a
// transport-corruption error, never a torn tail — the primary only ships
// bytes below its durable tail, which are always intact.
func DecodeFrames(b []byte, fn func(frameLen int, r *Record) error) (consumed int, err error) {
	off := 0
	for off+8 <= len(b) {
		n := int(binary.LittleEndian.Uint32(b[off:]))
		sum := binary.LittleEndian.Uint32(b[off+4:])
		end := off + 8 + n
		if end > len(b) {
			return off, nil // partial frame: wait for the rest of the chunk
		}
		payload := b[off+8 : end]
		if crc32.ChecksumIEEE(payload) != sum {
			return off, faultinject.Corrupt(fmt.Errorf("wal: shipped frame at offset %d fails CRC", off))
		}
		r, derr := decode(payload)
		if derr != nil {
			return off, faultinject.Corrupt(fmt.Errorf("wal: shipped frame at offset %d undecodable", off))
		}
		if fn != nil {
			if err := fn(end-off, r); err != nil {
				return off, err
			}
		}
		off = end
	}
	return off, nil
}

// IngestRaw appends pre-framed record bytes — a chunk shipped from a
// primary's log — and flushes them to stable storage before returning the
// LSN they start after in this log. nrecs is the number of records the
// chunk contains (counter bookkeeping only). The chunk must hold whole
// frames: the replica's own appends (the page images its buffer pool logs
// before writing back) interleave at frame granularity, so a split frame
// would corrupt the local log mid-stream. The applier buffers any partial
// frame and ingests it once complete.
func (l *Log) IngestRaw(frames []byte, nrecs int) (start LSN, err error) {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return 0, ErrClosed
	}
	start = l.lsnOf(l.end)
	l.buffer = append(l.buffer, frames...)
	l.end += uint64(len(frames))
	l.mu.Unlock()
	l.records.Add(uint64(nrecs))
	l.bytes.Add(uint64(len(frames)))
	return start, l.FlushTo(start + uint64(len(frames)))
}

// RecoveryPlan summarizes a log scan for crash recovery.
type RecoveryPlan struct {
	// Redo holds, in LSN order, every data record of committed
	// transactions and every RecPageLink: chain growth is redone regardless
	// of the owning transaction's fate, and never undone (see RecPageLink).
	Redo []*Record
	// Undo holds the data records of uncommitted ("loser") transactions, in
	// reverse LSN order, ready to be compensated.
	Undo []*Record
	// Images maps each page to its newest full-page image (see
	// RecPageImage). Recovery writes these back first, repairing any torn
	// in-place write, then redoes onto each page every record newer than the
	// LSN stamped in it. An image logged under a transaction id is one of a
	// set that is only good whole (the pages of the catalog chain): it counts
	// from that transaction's commit record, and not at all without one — a
	// log flush can tear between two of them.
	Images map[store.PageID]*Record
	// ColSegDrops is the set of table ids whose columnar segments must not
	// be attached: those invalidated by any logged RecColSegDrop, honored
	// unconditionally (see RecColSegDrop), and every table with a loser
	// record — an insert that is about to be undone could have been baked
	// into a snapshot built before its rollback.
	ColSegDrops map[uint64]bool
	// Committed is the set of committed transaction ids.
	Committed map[uint64]bool
}

// Analyze scans the log and partitions work into redo and undo sets.
func (l *Log) Analyze() (*RecoveryPlan, error) {
	plan := &RecoveryPlan{
		Committed:   map[uint64]bool{},
		Images:      map[store.PageID]*Record{},
		ColSegDrops: map[uint64]bool{},
	}
	var all []*Record
	held := map[uint64][]*Record{} // images logged under a transaction not yet seen to commit
	err := l.Scan(func(_ LSN, r *Record) error {
		switch r.Type {
		case RecCommit:
			plan.Committed[r.Txn] = true
			for _, img := range held[r.Txn] {
				plan.Images[img.Page] = img
			}
			delete(held, r.Txn)
		case RecRollback:
			// Rolled-back work is treated like a loser: it must be undone,
			// but an explicit rollback already compensated it before the
			// crash, so mark it committed-to-nothing.
			plan.Committed[r.Txn] = false
		case RecInsert, RecDelete, RecUpdate, RecPageLink:
			all = append(all, r)
		case RecPageImage:
			if r.Txn != 0 {
				held[r.Txn] = append(held[r.Txn], r)
			} else {
				plan.Images[r.Page] = r // later image supersedes earlier
			}
		case RecColSegDrop:
			plan.ColSegDrops[r.Table] = true
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, r := range all {
		if plan.Committed[r.Txn] || r.Type == RecPageLink {
			plan.Redo = append(plan.Redo, r)
		}
	}
	for i := len(all) - 1; i >= 0; i-- {
		if !plan.Committed[all[i].Txn] && all[i].Type != RecPageLink {
			plan.Undo = append(plan.Undo, all[i])
			plan.ColSegDrops[all[i].Table] = true
		}
	}
	return plan, nil
}

// Truncate discards the durable log after a checkpoint has made its
// contents redundant. An in-flight group flush is drained first so the
// truncation never races the leader's WriteAt.
//
// LSNs go on from where the durable log ended: the new file is a header
// naming that LSN, put in place of the old one by a synced rename, so a
// crash leaves one log or the other, never an empty one that would restart
// LSNs below the pages already stamped. Records appended but not yet
// flushed are carried over behind the header at the LSNs they were handed
// out with, so a committer racing the checkpoint still lands its record.
// A shipping position below that end now fails with ErrTruncated; one at it
// reads on in the new file.
//
// Truncate waits out every in-place page write between its check of the
// log and its write (HoldEpoch), and consults the injector's "wal.truncate"
// crashpoint once none is left: a write that tore at a crash must find its
// image still in the log at recovery.
func (l *Log) Truncate() error {
	// Give the shippers a bounded window to ship the log to its end, so
	// caught-up replicas cross the truncate without a full resync. The
	// barrier runs without l.mu (shippers need ReadChunk); a flush racing it
	// can move the end past what they shipped, and a replica left below the
	// new start resyncs.
	if b := l.truncBarrier.Load(); b != nil {
		l.mu.Lock()
		l.drainLocked()
		end := l.lsnOf(l.tail)
		l.mu.Unlock()
		(*b)(end)
	}
	l.epochMu.Lock()
	defer l.epochMu.Unlock()
	if l.inj != nil {
		if err := l.inj.Crashpoint("wal.truncate"); err != nil {
			return err
		}
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.drainLocked()
	if l.closed {
		return ErrClosed
	}
	start := l.lsnOf(l.tail)
	hdr := header(start)
	var err error
	if l.f != nil {
		var f *os.File
		if f, err = replaceFile(l.path, hdr); f == nil {
			return fmt.Errorf("wal: truncate: %w", err)
		}
		l.f.Close()
		l.f = f
	}
	l.memMu.Lock()
	l.mem = hdr
	l.memMu.Unlock()
	l.start, l.hdr = start, uint64(len(hdr))
	l.tail = l.hdr
	l.end = l.tail + uint64(len(l.buffer))
	l.truncates.Add(1)
	l.tailBroadcastLocked()
	return err
}

// header is the first frame of a log whose records begin after LSN start.
func header(start LSN) []byte {
	return appendFrame(nil, &Record{Type: RecCheckpoint, After: binary.LittleEndian.AppendUint64(nil, start)})
}

// WriteLog puts at path a log holding frames — whole frames read from
// another log with ReadChunk from LSN start — at the LSNs they have there.
// A replica writes its snapshot's log prefix this way.
func WriteLog(path string, start LSN, frames []byte) error {
	f, err := replaceFile(path, append(header(start), frames...))
	if f != nil {
		f.Close()
	}
	return err
}

// replaceFile puts a synced file holding exactly b at path, renaming it
// over the one there, and returns it open for reading and writing — with
// the error of syncing the directory, which makes the rename durable, if
// that alone failed.
func replaceFile(path string, b []byte) (*os.File, error) {
	tmp := path + ".new"
	f, err := os.OpenFile(tmp, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	if _, err = f.Write(b); err == nil {
		err = f.Sync()
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		f.Close()
		return nil, err
	}
	dir, err := os.Open(filepath.Dir(path))
	if err == nil {
		err = dir.Sync()
		dir.Close()
	}
	return f, err
}

// Close flushes and closes the log.
func (l *Log) Close() error {
	if err := l.Flush(); err != nil {
		return err
	}
	return l.CloseNoFlush()
}

// CloseNoFlush discards the unflushed buffer and closes the log file — the
// simulated power-loss path. The dropped buffer is exactly the log state a
// real crash would lose: records appended but never group-committed.
func (l *Log) CloseNoFlush() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.drainLocked()
	l.buffer = l.buffer[:0]
	l.end = l.tail
	// Latch closed before the file goes away: a commit racing this close
	// must fail its flush (and ack nothing) rather than write into thin
	// air. Applies to memory-backed logs too — a crashed instance must not
	// keep acknowledging commits into its own vanishing heap.
	l.closed = true
	l.tailBroadcastLocked()
	if l.f != nil {
		err := l.f.Close()
		l.f = nil
		return err
	}
	return nil
}
