// Package store manages the database's files: the main database file, up to
// 12 additional dbspaces, and the temporary file used for intermediate
// results and stolen heap pages.
//
// As in the paper (§1), databases are ordinary OS files that can be copied
// with file utilities, and their on-disk encoding is byte-order stable so
// files are portable across CPU architectures. Raw partitions are not
// supported. Every read and write is charged to a device simulator so that
// plan costs are measurable in virtual time.
package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"

	"anywheredb/internal/device"
	"anywheredb/internal/faultinject"
	"anywheredb/internal/page"
)

// FileID identifies one of the database's files.
type FileID uint8

const (
	// MainFile is the main database file.
	MainFile FileID = 0
	// MaxDBSpaces is the number of additional database files permitted.
	MaxDBSpaces = 12
	// TempFile holds intermediate results, spilled partitions, and stolen
	// heap pages. Its contents do not survive restart.
	TempFile FileID = 15
)

// PageID addresses a page: the file in the top byte, the page index within
// the file in the low 56 bits. Page index 0 of every file is its header
// page; PageID 0 is therefore never a valid data page and doubles as "nil".
type PageID uint64

// MakePageID assembles a page id.
func MakePageID(f FileID, idx uint64) PageID { return PageID(uint64(f)<<56 | idx&(1<<56-1)) }

// File reports the file component.
func (p PageID) File() FileID { return FileID(p >> 56) }

// Index reports the page index within the file.
func (p PageID) Index() uint64 { return uint64(p) & (1<<56 - 1) }

func (p PageID) String() string { return fmt.Sprintf("%d:%d", p.File(), p.Index()) }

// backing abstracts the byte storage of one file so tests can run on memory.
type backing interface {
	ReadAt(b []byte, off int64) (int, error)
	WriteAt(b []byte, off int64) (int, error)
	Truncate(size int64) error
	Sync() error
	Close() error
}

// memFile is an in-memory backing used by tests and temp files.
type memFile struct {
	mu   sync.Mutex
	data []byte
}

func (m *memFile) ReadAt(b []byte, off int64) (int, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if off >= int64(len(m.data)) {
		for i := range b {
			b[i] = 0
		}
		return len(b), nil
	}
	n := copy(b, m.data[off:])
	for i := n; i < len(b); i++ {
		b[i] = 0
	}
	return len(b), nil
}

func (m *memFile) WriteAt(b []byte, off int64) (int, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if need := off + int64(len(b)); need > int64(len(m.data)) {
		// Double the backing array: a file extended page by page is then
		// copied O(log n) times, not once per page.
		if old := m.data; need > int64(cap(old)) {
			m.data = make([]byte, need, max(need, 2*int64(cap(old))))
			copy(m.data, old)
		} else {
			m.data = old[:need]
			clear(m.data[len(old):]) // a Truncate may have left bytes here
		}
	}
	copy(m.data[off:], b)
	return len(b), nil
}

func (m *memFile) Truncate(size int64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if size < int64(len(m.data)) {
		m.data = m.data[:size]
	}
	return nil
}

func (m *memFile) Sync() error  { return nil }
func (m *memFile) Close() error { return nil }

// fileState is the in-memory mirror of one file's header page.
type fileState struct {
	back      backing
	pageCount uint64 // pages allocated, including header page
	freeHead  uint64 // head of free-page chain (page index), 0 = none
	present   bool
}

// Options configures a Store.
type Options struct {
	// Dir is the directory for database files. Empty means fully in-memory
	// (used by tests and by the temp file in any case).
	Dir string
	// Device charges I/O latency; nil means device.RAM{}.
	Device device.Device
	// InMemory forces memory backing even when Dir is set.
	InMemory bool
	// Fault, when set, is consulted before every page Read/Write with the
	// operation name ("read" or "write"); returning a non-nil error aborts
	// the operation before it reaches the backing file. Deprecated in
	// favour of Injector — it is adapted into one at Open — but kept so
	// existing fault-injection tests work unchanged.
	Fault func(op string, id PageID) error
	// Injector, when set, intercepts page I/O with the full faultinject
	// protocol: classified errors, torn writes, and silent corruption.
	// Takes precedence over Fault. Nil in production.
	Injector faultinject.Injector
}

// legacyFault adapts the old Fault hook to the Injector interface: reads
// and writes map to their operation names; ops the old hook never saw
// (sync) pass through.
type legacyFault struct {
	fn func(op string, id PageID) error
}

func (l legacyFault) Fault(op faultinject.Op, arg uint64, _ []byte) ([]byte, error) {
	switch op {
	case faultinject.OpRead:
		return nil, l.fn("read", PageID(arg))
	case faultinject.OpWrite:
		return nil, l.fn("write", PageID(arg))
	}
	return nil, nil
}

func (l legacyFault) Crashpoint(string) error { return nil }

// Store is the page-file layer. It is safe for concurrent use.
type Store struct {
	opts Options
	dev  device.Device
	inj  faultinject.Injector

	mu    sync.Mutex
	files [16]fileState
}

const headerMagic = "ANYWHDB1"

// Open creates or opens a database's files. The main file always exists
// after Open; dbspaces are created on demand by AddDBSpace; the temp file
// is always memory-backed and starts empty.
func Open(opts Options) (*Store, error) {
	s := &Store{opts: opts, dev: opts.Device, inj: opts.Injector}
	if s.dev == nil {
		s.dev = device.RAM{}
	}
	if s.inj == nil && opts.Fault != nil {
		s.inj = legacyFault{fn: opts.Fault}
	}
	if err := s.openFile(MainFile); err != nil {
		return nil, err
	}
	// Temp file: fresh every open.
	s.files[TempFile] = fileState{back: &memFile{}, pageCount: 1, present: true}
	return s, nil
}

func (s *Store) filePath(f FileID) string {
	name := "main.db"
	if f != MainFile {
		name = fmt.Sprintf("dbspace%02d.db", f)
	}
	return filepath.Join(s.opts.Dir, name)
}

func (s *Store) openFile(f FileID) error {
	st := &s.files[f]
	if st.present {
		return nil
	}
	if s.opts.Dir == "" || s.opts.InMemory {
		st.back = &memFile{}
		st.pageCount = 1
		st.present = true
		return s.writeHeader(f)
	}
	path := s.filePath(f)
	fd, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return fmt.Errorf("store: open %s: %w", path, err)
	}
	st.back = fd
	st.present = true
	info, err := fd.Stat()
	if err != nil {
		return err
	}
	if info.Size() == 0 {
		st.pageCount = 1
		return s.writeHeader(f)
	}
	return s.readHeader(f)
}

// AddDBSpace creates an additional database file. The paper permits up to
// 12 of them.
func (s *Store) AddDBSpace(f FileID) error {
	if f == MainFile || f == TempFile || f > MaxDBSpaces {
		return fmt.Errorf("store: invalid dbspace id %d", f)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.openFile(f)
}

func (s *Store) writeHeader(f FileID) error {
	st := &s.files[f]
	var hdr [page.Size]byte
	copy(hdr[:], headerMagic)
	binary.LittleEndian.PutUint32(hdr[8:], page.Size)
	binary.LittleEndian.PutUint64(hdr[16:], st.pageCount)
	binary.LittleEndian.PutUint64(hdr[24:], st.freeHead)
	if _, err := st.back.WriteAt(hdr[:], 0); err != nil {
		return fmt.Errorf("store: write header %d: %w", f, err)
	}
	return nil
}

func (s *Store) readHeader(f FileID) error {
	st := &s.files[f]
	var hdr [page.Size]byte
	if _, err := st.back.ReadAt(hdr[:], 0); err != nil {
		return fmt.Errorf("store: read header %d: %w", f, err)
	}
	if string(hdr[:8]) != headerMagic {
		return fmt.Errorf("store: file %d is not a database file", f)
	}
	if ps := binary.LittleEndian.Uint32(hdr[8:]); ps != page.Size {
		return fmt.Errorf("store: file %d has page size %d, want %d", f, ps, page.Size)
	}
	st.pageCount = binary.LittleEndian.Uint64(hdr[16:])
	st.freeHead = binary.LittleEndian.Uint64(hdr[24:])
	return nil
}

// Alloc allocates a page in file f, reusing a freed page when possible.
// The returned page's contents are undefined; callers must Init it.
func (s *Store) Alloc(f FileID) (PageID, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := &s.files[f]
	if !st.present {
		return 0, fmt.Errorf("store: file %d not open", f)
	}
	if st.freeHead != 0 {
		idx := st.freeHead
		// The freed page's Next field chains to the following free page.
		var buf [page.Size]byte
		if err := s.readPageLocked(f, idx, buf[:]); err != nil {
			return 0, err
		}
		if p := page.Buf(buf[:]); p.Type() == page.TypeFree {
			st.freeHead = p.Next()
			return MakePageID(f, idx), s.persistFreeList(f)
		}
		// Not a free page: the list is stale. Abandon it rather than hand
		// out a page that is in use.
		st.freeHead = 0
	}
	idx := st.pageCount
	st.pageCount++
	return MakePageID(f, idx), nil
}

// Free returns pages of one file to that file's free chain.
func (s *Store) Free(ids ...PageID) error {
	if len(ids) == 0 {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	f := ids[0].File()
	st := &s.files[f]
	if !st.present {
		return fmt.Errorf("store: file %d not open", f)
	}
	var buf [page.Size]byte
	p := page.Buf(buf[:])
	for _, id := range ids {
		p.Init(page.TypeFree)
		p.SetNext(st.freeHead)
		if err := s.writePageLocked(f, id.Index(), buf[:]); err != nil {
			return err
		}
		st.freeHead = id.Index()
	}
	return s.persistFreeList(f)
}

// persistFreeList writes file f's header after its free chain changed. The
// header is otherwise written only at Sync, and a crash would bring back a
// chain head that has since been handed out: the next Alloc would give a
// page in use to a second owner. The temporary file does not outlive the
// process and is skipped.
func (s *Store) persistFreeList(f FileID) error {
	if f == TempFile {
		return nil
	}
	return s.writeHeader(f)
}

// FreeList walks file f's free chain and returns the pages on it. Crash
// recovery asks before it restores logged page images: an image of a page
// on the chain was taken before the page was freed, and writing it back
// would put the old content — and a next pointer that is no chain link —
// under the allocator. Should a page on the chain not be a free page after
// all, the chain is cut there; the pages behind the cut are lost to the
// file.
func (s *Store) FreeList(f FileID) ([]PageID, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := &s.files[f]
	var buf [page.Size]byte
	p := page.Buf(buf[:])
	var ids []PageID
	prev := uint64(0)
	for idx := st.freeHead; idx != 0; prev, idx = idx, p.Next() {
		if err := s.readPageLocked(f, idx, buf[:]); err != nil {
			return nil, err
		}
		if p.Type() == page.TypeFree && uint64(len(ids)) < st.pageCount {
			ids = append(ids, MakePageID(f, idx))
			continue
		}
		if prev == 0 {
			st.freeHead = 0
			return ids, s.persistFreeList(f)
		}
		p.Init(page.TypeFree)
		return ids, s.writePageLocked(f, prev, buf[:])
	}
	return ids, nil
}

// Read fills buf with the page's contents, charging the device.
func (s *Store) Read(id PageID, buf []byte) error {
	s.dev.Read(int64(id.Index())*page.Size, page.Size)
	if s.inj != nil {
		if _, err := s.inj.Fault(faultinject.OpRead, uint64(id), nil); err != nil {
			return err
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.readPageLocked(id.File(), id.Index(), buf)
}

// Write stores the page's contents, charging the device. An injector may
// tear the write (a prefix reaches the medium before the error surfaces)
// or silently corrupt it (the medium receives altered bytes, the caller
// sees success).
func (s *Store) Write(id PageID, buf []byte) error {
	s.dev.Write(int64(id.Index())*page.Size, page.Size)
	if s.inj != nil {
		repl, ferr := s.inj.Fault(faultinject.OpWrite, uint64(id), buf[:page.Size])
		if repl != nil {
			s.mu.Lock()
			werr := s.writeRawLocked(id.File(), id.Index(), repl)
			s.mu.Unlock()
			if ferr == nil {
				ferr = werr
			}
			return ferr // the (torn or corrupt) replacement is all that lands
		}
		if ferr != nil {
			return ferr
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.writePageLocked(id.File(), id.Index(), buf)
}

func (s *Store) readPageLocked(f FileID, idx uint64, buf []byte) error {
	st := &s.files[f]
	n, err := st.back.ReadAt(buf[:page.Size], int64(idx)*page.Size)
	if errors.Is(err, io.EOF) {
		// Reading past the file's end yields a zero page: recovery redoes
		// work onto pages that were allocated but never written back.
		for i := n; i < page.Size; i++ {
			buf[i] = 0
		}
		return nil
	}
	if err != nil {
		return fmt.Errorf("store: read %d:%d: %w", f, idx, err)
	}
	return nil
}

// writeRawLocked lands a partial (torn) page image at the page's offset.
func (s *Store) writeRawLocked(f FileID, idx uint64, b []byte) error {
	st := &s.files[f]
	if len(b) == 0 {
		return nil
	}
	if _, err := st.back.WriteAt(b, int64(idx)*page.Size); err != nil {
		return fmt.Errorf("store: write %d:%d: %w", f, idx, err)
	}
	return nil
}

func (s *Store) writePageLocked(f FileID, idx uint64, buf []byte) error {
	st := &s.files[f]
	if _, err := st.back.WriteAt(buf[:page.Size], int64(idx)*page.Size); err != nil {
		return fmt.Errorf("store: write %d:%d: %w", f, idx, err)
	}
	return nil
}

// EnsureAllocated grows file f's in-memory page count to cover id. Crash
// recovery calls it for every page the durable log references: the on-disk
// header (written only at Sync) can predate pages that were allocated and
// logged before the crash, and without the bump a later Alloc would hand
// the same index out twice.
func (s *Store) EnsureAllocated(id PageID) {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := &s.files[id.File()]
	if !st.present {
		return
	}
	if idx := id.Index(); idx >= st.pageCount {
		st.pageCount = idx + 1
	}
}

// PageCount reports the pages allocated in file f (including its header).
func (s *Store) PageCount(f FileID) uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.files[f].pageCount
}

// TotalBytes reports the database's total size in bytes across all files,
// including the temporary file — the quantity used by the buffer pool
// governor's soft upper bound (Eq. 1).
func (s *Store) TotalBytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var n int64
	for i := range s.files {
		if s.files[i].present {
			n += int64(s.files[i].pageCount) * page.Size
		}
	}
	return n
}

// Sync flushes headers and file contents to stable storage.
func (s *Store) Sync() error {
	if s.inj != nil {
		if _, err := s.inj.Fault(faultinject.OpSync, 0, nil); err != nil {
			return err
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for f := range s.files {
		if !s.files[f].present {
			continue
		}
		if err := s.writeHeader(FileID(f)); err != nil {
			return err
		}
		if err := s.files[f].back.Sync(); err != nil {
			return err
		}
	}
	s.dev.Flush()
	return nil
}

// ResetTemp discards the temporary file's contents.
func (s *Store) ResetTemp() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.files[TempFile] = fileState{back: &memFile{}, pageCount: 1, present: true}
}

// Close syncs and closes all files.
func (s *Store) Close() error {
	if err := s.Sync(); err != nil {
		return err
	}
	return s.CloseNoSync()
}

// CloseNoSync closes all files without syncing or rewriting headers — the
// simulated power-loss path. Whatever the headers said at the last Sync is
// what recovery will see; in-memory page counts and free chains are lost.
func (s *Store) CloseNoSync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for f := range s.files {
		if s.files[f].present {
			if err := s.files[f].back.Close(); err != nil {
				return err
			}
			s.files[f].present = false
		}
	}
	return nil
}

// Device exposes the store's device simulator (for calibration).
func (s *Store) Device() device.Device { return s.dev }
