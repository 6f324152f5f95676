// Package page defines the on-page layout shared by every consumer of the
// buffer pool.
//
// A novel feature of the system being reproduced (§2.1) is that the buffer
// pool is a single heterogeneous pool of same-sized frames holding table
// pages, index pages, undo and redo log pages, bitmaps, free pages, and
// connection-heap pages. This package provides the common header and a
// slotted-page layout for variable-length cells.
package page

import (
	"encoding/binary"
	"fmt"
)

// Size is the frame size used throughout the engine. All page frames are
// the same size to support efficient buffer pool management.
const Size = 4096

// Type tags the content of a page frame.
type Type uint8

const (
	TypeFree Type = iota
	TypeTable
	TypeIndex
	TypeHeap
	TypeUndo
	TypeRedo
	TypeBitmap
	TypeCatalog
	TypeTemp
	TypeLockTable
	// TypeColSeg holds a chunk of a table's serialized columnar segment
	// blob (see internal/colseg); chained like catalog pages.
	TypeColSeg
)

var typeNames = [...]string{"free", "table", "index", "heap", "undo", "redo", "bitmap", "catalog", "temp", "locktable", "colseg"}

func (t Type) String() string {
	if int(t) < len(typeNames) {
		return typeNames[t]
	}
	return fmt.Sprintf("type(%d)", uint8(t))
}

// Header layout (32 bytes):
//
//	off 0     type
//	off 1     flags
//	off 2-3   slot count (uint16)
//	off 4-5   cellStart: lowest byte used by cell data (uint16)
//	off 6-7   garbage bytes reclaimable by compaction (uint16)
//	off 8-15  LSN of last modification (uint64)
//	off 16-23 next page number in chain, 0 = none (uint64)
//	off 24-31 owner object id (uint64)
const (
	HeaderSize = 32

	offType      = 0
	offFlags     = 1
	offNSlots    = 2
	offCellStart = 4
	offGarbage   = 6
	offLSN       = 8
	offNext      = 16
	offOwner     = 24

	slotSize = 4 // offset uint16 + length uint16
)

// Buf wraps a page-sized byte slice with typed accessors. It does not own
// the memory; the buffer pool does.
type Buf []byte

// Init formats the page as an empty page of the given type.
func (p Buf) Init(t Type) {
	for i := range p {
		p[i] = 0
	}
	p[offType] = byte(t)
	p.setCellStart(uint16(len(p)))
}

// Type reports the page's type tag.
func (p Buf) Type() Type { return Type(p[offType]) }

// LSN reports the log sequence number of the last change to the page.
func (p Buf) LSN() uint64 { return binary.LittleEndian.Uint64(p[offLSN:]) }

// SetLSN records the LSN of a change.
func (p Buf) SetLSN(lsn uint64) { binary.LittleEndian.PutUint64(p[offLSN:], lsn) }

// Next reports the next page number in this page's chain (0 = end).
func (p Buf) Next() uint64 { return binary.LittleEndian.Uint64(p[offNext:]) }

// SetNext links the page to a successor.
func (p Buf) SetNext(n uint64) { binary.LittleEndian.PutUint64(p[offNext:], n) }

// Owner reports the object id (table/index) the page belongs to.
func (p Buf) Owner() uint64 { return binary.LittleEndian.Uint64(p[offOwner:]) }

// SetOwner records the owning object id.
func (p Buf) SetOwner(id uint64) { binary.LittleEndian.PutUint64(p[offOwner:], id) }

// NumSlots reports the number of slots, including deleted ones.
func (p Buf) NumSlots() int { return int(binary.LittleEndian.Uint16(p[offNSlots:])) }

func (p Buf) setNumSlots(n int)     { binary.LittleEndian.PutUint16(p[offNSlots:], uint16(n)) }
func (p Buf) cellStart() uint16     { return binary.LittleEndian.Uint16(p[offCellStart:]) }
func (p Buf) setCellStart(v uint16) { binary.LittleEndian.PutUint16(p[offCellStart:], v) }
func (p Buf) garbage() uint16       { return binary.LittleEndian.Uint16(p[offGarbage:]) }
func (p Buf) setGarbage(v uint16)   { binary.LittleEndian.PutUint16(p[offGarbage:], v) }
func (p Buf) slotPos(i int) int     { return HeaderSize + i*slotSize }
func (p Buf) slot(i int) (off, n uint16) {
	pos := p.slotPos(i)
	return binary.LittleEndian.Uint16(p[pos:]), binary.LittleEndian.Uint16(p[pos+2:])
}
func (p Buf) setSlot(i int, off, n uint16) {
	pos := p.slotPos(i)
	binary.LittleEndian.PutUint16(p[pos:], off)
	binary.LittleEndian.PutUint16(p[pos+2:], n)
}

// FreeSpace reports the bytes available for one more cell (accounting for
// its slot), after compaction if needed.
func (p Buf) FreeSpace() int {
	contig := int(p.cellStart()) - (HeaderSize + p.NumSlots()*slotSize)
	free := contig + int(p.garbage()) - slotSize
	if free < 0 {
		return 0
	}
	return free
}

// Insert adds a cell and returns its slot index, or -1 if the page is full.
func (p Buf) Insert(cell []byte) int {
	need := len(cell)
	if need > p.FreeSpace() {
		return -1
	}
	contig := int(p.cellStart()) - (HeaderSize + (p.NumSlots()+1)*slotSize)
	if contig < need {
		p.Compact()
	}
	// Reuse a deleted slot if one exists.
	slot := -1
	for i := 0; i < p.NumSlots(); i++ {
		if off, _ := p.slot(i); off == 0 {
			slot = i
			break
		}
	}
	if slot == -1 {
		slot = p.NumSlots()
		p.setNumSlots(slot + 1)
	}
	start := p.cellStart() - uint16(need)
	copy(p[start:], cell)
	p.setCellStart(start)
	p.setSlot(slot, start, uint16(need))
	return slot
}

// InsertAt places a cell into a specific slot, which must be either a
// currently-deleted slot or exactly one past the last slot. Used by
// transaction undo to restore a row at its original record id. Returns
// false if the slot is occupied, out of range, or space is lacking.
func (p Buf) InsertAt(slot int, cell []byte) bool {
	n := p.NumSlots()
	if slot < 0 || slot > n {
		return false
	}
	if slot < n {
		if off, _ := p.slot(slot); off != 0 {
			return false
		}
	}
	extra := 0
	if slot == n {
		extra = slotSize
	}
	contig := int(p.cellStart()) - (HeaderSize + n*slotSize) - extra
	if contig+int(p.garbage()) < len(cell) {
		return false
	}
	if contig < len(cell) {
		p.Compact()
	}
	if slot == n {
		p.setNumSlots(n + 1)
	}
	start := p.cellStart() - uint16(len(cell))
	copy(p[start:], cell)
	p.setCellStart(start)
	p.setSlot(slot, start, uint16(len(cell)))
	return true
}

// InsertSparse places a cell into a specific slot like InsertAt, but also
// accepts a slot past the end of the slot array: intermediate slots are
// created empty (deleted). Crash recovery needs this — redo replays only
// committed inserts, so the slot sequence it sees has holes where loser
// transactions' slots were, and refusing the gap would silently drop a
// committed row. The padded slots are exactly the state the losers' slots
// end up in anyway (allocated, empty, reusable).
func (p Buf) InsertSparse(slot int, cell []byte) bool {
	n := p.NumSlots()
	if slot < 0 {
		return false
	}
	if slot < n {
		return p.InsertAt(slot, cell)
	}
	grow := (slot + 1 - n) * slotSize
	contig := int(p.cellStart()) - (HeaderSize + n*slotSize)
	if contig+int(p.garbage()) < grow+len(cell) {
		return false
	}
	if contig < grow+len(cell) {
		p.Compact()
	}
	// Zero the new slot-array region: it may hold stale cell bytes.
	for i := n; i <= slot; i++ {
		p.setSlot(i, 0, 0)
	}
	p.setNumSlots(slot + 1)
	start := p.cellStart() - uint16(len(cell))
	copy(p[start:], cell)
	p.setCellStart(start)
	p.setSlot(slot, start, uint16(len(cell)))
	return true
}

// Cell returns the contents of slot i, or nil if the slot is deleted or out
// of range. The returned slice aliases the page.
func (p Buf) Cell(i int) []byte {
	if i < 0 || i >= p.NumSlots() {
		return nil
	}
	off, n := p.slot(i)
	if off == 0 {
		return nil
	}
	return p[off : off+n]
}

// Delete removes slot i's cell. The slot index remains allocated (so record
// ids stay stable) and may be reused by a later Insert.
func (p Buf) Delete(i int) bool {
	if i < 0 || i >= p.NumSlots() {
		return false
	}
	off, n := p.slot(i)
	if off == 0 {
		return false
	}
	p.setSlot(i, 0, 0)
	p.setGarbage(p.garbage() + n)
	_ = off
	return true
}

// Update replaces slot i's cell, in place when sizes match, otherwise by
// delete+reinsert into the same slot. Returns false if there is no room.
func (p Buf) Update(i int, cell []byte) bool {
	if i < 0 || i >= p.NumSlots() {
		return false
	}
	off, n := p.slot(i)
	if off == 0 {
		return false
	}
	if int(n) == len(cell) {
		copy(p[off:], cell)
		return true
	}
	// Check space as if the old cell were garbage.
	contig := int(p.cellStart()) - (HeaderSize + p.NumSlots()*slotSize)
	if contig+int(p.garbage())+int(n) < len(cell) {
		return false
	}
	p.setSlot(i, 0, 0)
	p.setGarbage(p.garbage() + n)
	if contig < len(cell) {
		p.Compact()
	}
	start := p.cellStart() - uint16(len(cell))
	copy(p[start:], cell)
	p.setCellStart(start)
	p.setSlot(i, start, uint16(len(cell)))
	return true
}

// Compact rewrites live cells contiguously at the end of the page,
// reclaiming garbage left by deletes and updates. Cells are copied out of
// one scratch image of the page, so compaction allocates nothing.
func (p Buf) Compact() {
	var old [Size]byte
	copy(old[:], p)
	start := uint16(len(p))
	for i, n := 0, p.NumSlots(); i < n; i++ {
		off, sz := p.slot(i)
		if off == 0 {
			continue
		}
		start -= sz
		copy(p[start:], old[off:off+sz])
		p.setSlot(i, start, sz)
	}
	p.setCellStart(start)
	p.setGarbage(0)
}

// InsertOrdered places a cell at slot position pos and shifts the slots at
// and after pos up by one, so a page whose slot order is its key order
// keeps it with one cell written. It reports false when pos is out of range
// or the cell does not fit. Ordered pages must be changed only through
// InsertOrdered and RemoveOrdered: neither leaves a deleted slot behind,
// and InsertOrdered does not expect one.
func (p Buf) InsertOrdered(pos int, cell []byte) bool {
	n := p.NumSlots()
	if pos < 0 || pos > n || len(cell) > p.FreeSpace() {
		return false
	}
	if int(p.cellStart())-(HeaderSize+(n+1)*slotSize) < len(cell) {
		p.Compact()
	}
	copy(p[p.slotPos(pos+1):p.slotPos(n+1)], p[p.slotPos(pos):p.slotPos(n)])
	p.setNumSlots(n + 1)
	start := p.cellStart() - uint16(len(cell))
	copy(p[start:], cell)
	p.setCellStart(start)
	p.setSlot(pos, start, uint16(len(cell)))
	return true
}

// RemoveOrdered deletes the cell at slot position pos and shifts the slots
// after it down by one, the inverse of InsertOrdered.
func (p Buf) RemoveOrdered(pos int) bool {
	n := p.NumSlots()
	if pos < 0 || pos >= n {
		return false
	}
	_, sz := p.slot(pos)
	copy(p[p.slotPos(pos):p.slotPos(n-1)], p[p.slotPos(pos+1):p.slotPos(n)])
	p.setNumSlots(n - 1)
	p.setGarbage(p.garbage() + sz)
	return true
}

// LiveCells reports the number of non-deleted cells.
func (p Buf) LiveCells() int {
	n := 0
	for i := 0; i < p.NumSlots(); i++ {
		if off, _ := p.slot(i); off != 0 {
			n++
		}
	}
	return n
}
