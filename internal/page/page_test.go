package page

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func newPage(t Type) Buf {
	p := Buf(make([]byte, Size))
	p.Init(t)
	return p
}

func TestInitAndHeader(t *testing.T) {
	p := newPage(TypeTable)
	if p.Type() != TypeTable {
		t.Fatalf("type = %v, want table", p.Type())
	}
	if p.NumSlots() != 0 {
		t.Fatalf("new page has %d slots", p.NumSlots())
	}
	p.SetLSN(42)
	p.SetNext(7)
	p.SetOwner(99)
	if p.LSN() != 42 || p.Next() != 7 || p.Owner() != 99 {
		t.Fatal("header round trip failed")
	}
}

func TestInsertAndRead(t *testing.T) {
	p := newPage(TypeTable)
	s1 := p.Insert([]byte("hello"))
	s2 := p.Insert([]byte("world!"))
	if s1 != 0 || s2 != 1 {
		t.Fatalf("slots = %d,%d, want 0,1", s1, s2)
	}
	if !bytes.Equal(p.Cell(s1), []byte("hello")) {
		t.Fatalf("cell 0 = %q", p.Cell(s1))
	}
	if !bytes.Equal(p.Cell(s2), []byte("world!")) {
		t.Fatalf("cell 1 = %q", p.Cell(s2))
	}
}

func TestDeleteAndSlotReuse(t *testing.T) {
	p := newPage(TypeTable)
	p.Insert([]byte("aaa"))
	s := p.Insert([]byte("bbb"))
	p.Insert([]byte("ccc"))
	if !p.Delete(s) {
		t.Fatal("Delete failed")
	}
	if p.Cell(s) != nil {
		t.Fatal("deleted cell still readable")
	}
	if p.LiveCells() != 2 {
		t.Fatalf("LiveCells = %d, want 2", p.LiveCells())
	}
	// Next insert reuses the freed slot.
	s2 := p.Insert([]byte("ddd"))
	if s2 != s {
		t.Fatalf("insert reused slot %d, want %d", s2, s)
	}
	if p.Delete(s) != true {
		t.Fatal("re-delete of reused slot should succeed")
	}
	if p.Delete(s) {
		t.Fatal("double delete should fail")
	}
	if p.Delete(99) {
		t.Fatal("delete of bogus slot should fail")
	}
}

func TestUpdateInPlaceAndResize(t *testing.T) {
	p := newPage(TypeTable)
	s := p.Insert([]byte("12345"))
	if !p.Update(s, []byte("abcde")) {
		t.Fatal("same-size update failed")
	}
	if !bytes.Equal(p.Cell(s), []byte("abcde")) {
		t.Fatal("in-place update content wrong")
	}
	if !p.Update(s, []byte("a much longer cell value")) {
		t.Fatal("grow update failed")
	}
	if !bytes.Equal(p.Cell(s), []byte("a much longer cell value")) {
		t.Fatal("grow update content wrong")
	}
	if !p.Update(s, []byte("x")) {
		t.Fatal("shrink update failed")
	}
	if !bytes.Equal(p.Cell(s), []byte("x")) {
		t.Fatal("shrink update content wrong")
	}
}

func TestUpdateMissingSlot(t *testing.T) {
	p := newPage(TypeTable)
	if p.Update(0, []byte("x")) {
		t.Fatal("update of missing slot should fail")
	}
}

func TestFillUntilFull(t *testing.T) {
	p := newPage(TypeTable)
	cell := make([]byte, 100)
	n := 0
	for {
		if p.Insert(cell) == -1 {
			break
		}
		n++
	}
	if n < (Size-HeaderSize)/110 {
		t.Fatalf("only %d cells of 100 bytes fit", n)
	}
	if p.FreeSpace() >= 100 {
		t.Fatalf("page claims %d free bytes but rejected insert", p.FreeSpace())
	}
}

func TestCompactReclaimsGarbage(t *testing.T) {
	p := newPage(TypeTable)
	var slots []int
	cell := make([]byte, 200)
	for {
		s := p.Insert(cell)
		if s == -1 {
			break
		}
		slots = append(slots, s)
	}
	// Delete every other cell, then insert cells that only fit post-compaction.
	for i := 0; i < len(slots); i += 2 {
		p.Delete(slots[i])
	}
	big := make([]byte, 300)
	for i := range big {
		big[i] = byte(i)
	}
	s := p.Insert(big)
	if s == -1 {
		t.Fatal("insert after deletes should succeed via compaction")
	}
	if !bytes.Equal(p.Cell(s), big) {
		t.Fatal("content corrupted by compaction")
	}
	// Survivors intact.
	for i := 1; i < len(slots); i += 2 {
		if !bytes.Equal(p.Cell(slots[i]), cell) {
			t.Fatalf("survivor slot %d corrupted", slots[i])
		}
	}
}

func TestCellOutOfRange(t *testing.T) {
	p := newPage(TypeTable)
	if p.Cell(-1) != nil || p.Cell(0) != nil || p.Cell(100) != nil {
		t.Fatal("out-of-range Cell should return nil")
	}
}

func TestTypeString(t *testing.T) {
	if TypeTable.String() != "table" || TypeHeap.String() != "heap" {
		t.Fatal("Type.String mismatch")
	}
	if Type(200).String() == "" {
		t.Fatal("unknown type should still render")
	}
}

// Property: any sequence of inserts/deletes/updates keeps live cell contents
// retrievable and never corrupts other cells.
func TestQuickRandomOps(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := newPage(TypeTable)
		contents := map[int][]byte{}
		for op := 0; op < 300; op++ {
			switch rng.Intn(3) {
			case 0: // insert
				c := make([]byte, 1+rng.Intn(120))
				rng.Read(c)
				if s := p.Insert(c); s != -1 {
					contents[s] = c
				}
			case 1: // delete
				for s := range contents {
					p.Delete(s)
					delete(contents, s)
					break
				}
			case 2: // update
				for s := range contents {
					c := make([]byte, 1+rng.Intn(120))
					rng.Read(c)
					if p.Update(s, c) {
						contents[s] = c
					}
					break
				}
			}
			for s, want := range contents {
				if !bytes.Equal(p.Cell(s), want) {
					t.Logf("seed %d: slot %d corrupted", seed, s)
					return false
				}
			}
		}
		if p.LiveCells() != len(contents) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// Property: a page changed only through InsertOrdered and RemoveOrdered is
// a reference slice — same cells, same positions, no deleted slot — through
// any sequence of the two, compactions included, and refuses a cell exactly
// when FreeSpace says it does not fit.
func TestQuickOrderedOps(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := newPage(TypeIndex)
		var ref [][]byte
		for op := 0; op < 600; op++ {
			if len(ref) > 0 && rng.Intn(5) < 2 {
				pos := rng.Intn(len(ref))
				if !p.RemoveOrdered(pos) {
					return false
				}
				ref = append(ref[:pos], ref[pos+1:]...)
			} else {
				c := make([]byte, 1+rng.Intn(150))
				rng.Read(c)
				pos := rng.Intn(len(ref) + 1)
				fits := len(c) <= p.FreeSpace()
				if p.InsertOrdered(pos, c) != fits {
					t.Logf("seed %d: %d-byte cell, FreeSpace %d", seed, len(c), p.FreeSpace())
					return false
				}
				if fits {
					ref = append(ref[:pos], append([][]byte{c}, ref[pos:]...)...)
				}
			}
			if p.NumSlots() != len(ref) || p.LiveCells() != len(ref) {
				return false
			}
			for i, want := range ref {
				if !bytes.Equal(p.Cell(i), want) {
					t.Logf("seed %d: position %d corrupted after op %d", seed, i, op)
					return false
				}
			}
		}
		return !p.InsertOrdered(len(ref)+1, []byte{1}) && !p.RemoveOrdered(len(ref))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestCompactAllocatesNothing(t *testing.T) {
	p := newPage(TypeTable)
	for p.Insert(make([]byte, 40)) != -1 {
	}
	for i := 0; i < p.NumSlots(); i += 2 {
		p.Delete(i)
	}
	if n := testing.AllocsPerRun(10, p.Compact); n != 0 {
		t.Fatalf("Compact made %v allocations", n)
	}
}

func TestFreeSpaceAccounting(t *testing.T) {
	p := newPage(TypeTable)
	before := p.FreeSpace()
	p.Insert(make([]byte, 50))
	after := p.FreeSpace()
	if before-after != 50+4 {
		t.Fatalf("free space delta %d, want 54", before-after)
	}
}

func TestInsertSparseFillsSlotGaps(t *testing.T) {
	p := newPage(TypeTable)
	if !p.InsertSparse(0, []byte("zero")) {
		t.Fatal("sparse insert at 0")
	}
	// Slot 5 with 1..4 never allocated: the gap a recovery redo pass sees
	// where loser transactions' slots were.
	if !p.InsertSparse(5, []byte("five")) {
		t.Fatal("sparse insert past the end")
	}
	if p.NumSlots() != 6 {
		t.Fatalf("NumSlots = %d, want 6", p.NumSlots())
	}
	for i := 1; i < 5; i++ {
		if p.Cell(i) != nil {
			t.Fatalf("padded slot %d not empty: %q", i, p.Cell(i))
		}
	}
	if string(p.Cell(0)) != "zero" || string(p.Cell(5)) != "five" {
		t.Fatalf("cells corrupted: %q %q", p.Cell(0), p.Cell(5))
	}
	// Padded slots behave as ordinary deleted slots: InsertAt restores into
	// them, Insert reuses them.
	if !p.InsertAt(2, []byte("two")) {
		t.Fatal("InsertAt into padded slot")
	}
	if s := p.Insert([]byte("reuse")); s != 1 {
		t.Fatalf("Insert reused slot %d, want 1", s)
	}
	// Occupied target refuses.
	if p.InsertSparse(5, []byte("clobber")) {
		t.Fatal("sparse insert overwrote an occupied slot")
	}
	// No room for the grown slot array + cell: refuse, do not corrupt.
	q := newPage(TypeTable)
	if q.InsertSparse(2000, make([]byte, Size)) {
		t.Fatal("sparse insert accepted an impossible fit")
	}
}

func ExampleBuf() {
	p := Buf(make([]byte, Size))
	p.Init(TypeTable)
	s := p.Insert([]byte("a row"))
	fmt.Println(string(p.Cell(s)))
	// Output: a row
}
