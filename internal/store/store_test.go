package store

import (
	"path/filepath"
	"runtime"
	"testing"

	"anywheredb/internal/page"
)

func memStore(t *testing.T) *Store {
	t.Helper()
	s, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func TestPageIDPacking(t *testing.T) {
	id := MakePageID(TempFile, 12345)
	if id.File() != TempFile || id.Index() != 12345 {
		t.Fatalf("round trip: file=%d idx=%d", id.File(), id.Index())
	}
	if id.String() != "15:12345" {
		t.Fatalf("String = %q", id.String())
	}
}

func TestAllocSequential(t *testing.T) {
	s := memStore(t)
	a, err := s.Alloc(MainFile)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := s.Alloc(MainFile)
	if a.Index() != 1 || b.Index() != 2 {
		t.Fatalf("alloc indexes %d,%d, want 1,2 (0 is the header)", a.Index(), b.Index())
	}
	if s.PageCount(MainFile) != 3 {
		t.Fatalf("page count %d, want 3", s.PageCount(MainFile))
	}
}

func TestReadWriteRoundTrip(t *testing.T) {
	s := memStore(t)
	id, _ := s.Alloc(MainFile)
	out := make(page.Buf, page.Size)
	out.Init(page.TypeTable)
	out.Insert([]byte("persisted row"))
	if err := s.Write(id, out); err != nil {
		t.Fatal(err)
	}
	in := make(page.Buf, page.Size)
	if err := s.Read(id, in); err != nil {
		t.Fatal(err)
	}
	if string(in.Cell(0)) != "persisted row" {
		t.Fatalf("read back %q", in.Cell(0))
	}
}

func TestFreeAndReuse(t *testing.T) {
	s := memStore(t)
	a, _ := s.Alloc(MainFile)
	b, _ := s.Alloc(MainFile)
	if err := s.Free(a); err != nil {
		t.Fatal(err)
	}
	if err := s.Free(b); err != nil {
		t.Fatal(err)
	}
	// LIFO reuse through the free chain.
	c, _ := s.Alloc(MainFile)
	d, _ := s.Alloc(MainFile)
	if c != b || d != a {
		t.Fatalf("reuse order got %v,%v want %v,%v", c, d, b, a)
	}
	// Chain exhausted: next alloc extends the file.
	e, _ := s.Alloc(MainFile)
	if e.Index() != 3 {
		t.Fatalf("post-chain alloc %v, want index 3", e)
	}
}

func TestAllocUnopenedFile(t *testing.T) {
	s := memStore(t)
	if _, err := s.Alloc(5); err == nil {
		t.Fatal("alloc in unopened file should fail")
	}
}

func TestTotalBytesIncludesTemp(t *testing.T) {
	s := memStore(t)
	before := s.TotalBytes()
	if _, err := s.Alloc(TempFile); err != nil {
		t.Fatal(err)
	}
	if got := s.TotalBytes(); got != before+page.Size {
		t.Fatalf("TotalBytes %d, want %d", got, before+page.Size)
	}
}

func TestPersistenceAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	id, _ := s.Alloc(MainFile)
	out := make(page.Buf, page.Size)
	out.Init(page.TypeTable)
	out.Insert([]byte("durable"))
	if err := s.Write(id, out); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.PageCount(MainFile) != 2 {
		t.Fatalf("page count after reopen = %d, want 2", s2.PageCount(MainFile))
	}
	in := make(page.Buf, page.Size)
	if err := s2.Read(id, in); err != nil {
		t.Fatal(err)
	}
	if string(in.Cell(0)) != "durable" {
		t.Fatalf("read back %q", in.Cell(0))
	}
	// The database is an ordinary OS file.
	if _, err := filepath.Glob(filepath.Join(dir, "main.db")); err != nil {
		t.Fatal(err)
	}
}

func TestCorruptHeaderRejected(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	// Clobber the magic.
	path := filepath.Join(dir, "main.db")
	if err := clobber(path); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(Options{Dir: dir}); err == nil {
		t.Fatal("corrupt header should be rejected")
	}
}

// TestFreeChainSurvivesCrash: the header is written when the free chain
// changes, not only at Sync, so a crash cannot bring back a chain head that
// has since been handed out (the next Alloc would give the page a second
// owner).
func TestFreeChainSurvivesCrash(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	a, _ := s.Alloc(MainFile)
	b, _ := s.Alloc(MainFile)
	if err := s.Free(a, b); err != nil {
		t.Fatal(err)
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	if got, _ := s.Alloc(MainFile); got != b {
		t.Fatalf("pop got %v, want %v", got, b)
	}
	s.CloseNoSync() // crash: b is in use, the header was last synced with b at the head

	s2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got, _ := s2.Alloc(MainFile); got != a {
		t.Fatalf("after the crash Alloc returned %v, want %v (%v is in use)", got, a, b)
	}
}

// TestFreeListCutsAtForeignPage: a page on the chain that is not a free
// page ends the chain there, for FreeList (recovery) and for Alloc alike.
func TestFreeListCutsAtForeignPage(t *testing.T) {
	s := memStore(t)
	var ids []PageID
	for i := 0; i < 4; i++ {
		id, _ := s.Alloc(MainFile)
		ids = append(ids, id)
	}
	if err := s.Free(ids...); err != nil { // chain: ids[3] → ids[2] → ids[1] → ids[0]
		t.Fatal(err)
	}
	foreign := make(page.Buf, page.Size)
	foreign.Init(page.TypeIndex)
	foreign.SetNext(uint64(ids[3])) // a pointer that would loop the chain
	if err := s.Write(ids[1], foreign); err != nil {
		t.Fatal(err)
	}
	free, err := s.FreeList(MainFile)
	if err != nil {
		t.Fatal(err)
	}
	if len(free) != 2 || free[0] != ids[3] || free[1] != ids[2] {
		t.Fatalf("FreeList = %v, want [%v %v]", free, ids[3], ids[2])
	}
	got := []PageID{}
	for i := 0; i < 3; i++ {
		id, _ := s.Alloc(MainFile)
		got = append(got, id)
	}
	if got[0] != ids[3] || got[1] != ids[2] || got[2].Index() != 5 {
		t.Fatalf("allocs after the cut = %v, want %v, %v, then a fresh page", got, ids[3], ids[2])
	}

	// The same foreign page at the head: Alloc abandons the chain.
	s2 := memStore(t)
	x, _ := s2.Alloc(MainFile)
	s2.Free(x)
	s2.Write(x, foreign)
	if id, _ := s2.Alloc(MainFile); id == x {
		t.Fatalf("Alloc handed out %v, which is not a free page", x)
	}
}

// The temp file of every database is a memFile that grows one page at a
// time as heaps spill: extending it must not copy the whole file per page.
func TestMemFileGrowsGeometrically(t *testing.T) {
	const pages = 4096
	var m memFile
	pg := make([]byte, page.Size)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < pages; i++ {
		pg[0], pg[page.Size-1] = byte(i), byte(i>>8)
		if _, err := m.WriteAt(pg, int64(i)*page.Size); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	final := uint64(pages * page.Size)
	if got := after.TotalAlloc - before.TotalAlloc; got >= 4*final {
		t.Fatalf("growing to %d bytes allocated %d, want < 4x", final, got)
	}
	for i := 0; i < pages; i++ {
		if _, err := m.ReadAt(pg, int64(i)*page.Size); err != nil {
			t.Fatal(err)
		}
		if pg[0] != byte(i) || pg[page.Size-1] != byte(i>>8) || pg[1] != 0 {
			t.Fatalf("page %d read back wrong", i)
		}
	}
	if err := m.Truncate(10 * page.Size); err != nil {
		t.Fatal(err)
	}
	if len(m.data) != 10*page.Size {
		t.Fatalf("after Truncate len %d", len(m.data))
	}
	// Regrowing past a truncation reads zeros, not the old contents.
	if _, err := m.WriteAt(pg[:1], 12*page.Size); err != nil {
		t.Fatal(err)
	}
	if _, err := m.ReadAt(pg, 11*page.Size); err != nil {
		t.Fatal(err)
	}
	for _, b := range pg {
		if b != 0 {
			t.Fatal("stale bytes after Truncate and regrow")
		}
	}
}
