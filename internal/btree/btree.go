// Package btree implements B+-trees over the buffer pool, used for table
// indexes and for the low-memory fallback structures of §4.3.
//
// Index statistics — number of distinct values, number of leaf pages, and
// a clustering statistic — are maintained in real time during operation
// (§3.2) and feed the optimizer's cost model directly; there is no
// UPDATE STATISTICS step to schedule.
package btree

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"anywheredb/internal/buffer"
	"anywheredb/internal/page"
	"anywheredb/internal/store"
)

// Stats are the real-time index statistics of §3.2.
type Stats struct {
	Entries   atomic.Int64
	LeafPages atomic.Int64
	Height    atomic.Int64
	// Distinct approximates the number of distinct keys; maintained
	// incrementally by comparing each inserted key with its neighbour.
	Distinct atomic.Int64
	// ClusteredPairs / TotalPairs estimate how well index order matches
	// table order: a pair is clustered when adjacent index entries point
	// into the same table page.
	ClusteredPairs atomic.Int64
	TotalPairs     atomic.Int64
}

// Clustering returns the fraction of adjacent entries pointing to the same
// table page (1.0 for a fully clustered index).
func (s *Stats) Clustering() float64 {
	tp := s.TotalPairs.Load()
	if tp == 0 {
		return 1
	}
	return float64(s.ClusteredPairs.Load()) / float64(tp)
}

// Tree is a B+-tree. Keys and values are byte strings; keys compare
// bytewise (use val.EncodeKey for typed keys). Non-unique trees may hold
// duplicate keys. A Tree is safe for concurrent use via a coarse latch.
type Tree struct {
	pool  *buffer.Pool
	st    *store.Store
	file  store.FileID
	objID uint64

	mu   sync.RWMutex
	root store.PageID

	Stats Stats
}

const (
	flagLeaf = 1 << 0
	// maxCell keeps any two cells insertable into an empty page, so a split
	// always succeeds.
	maxCell = (page.Size - page.HeaderSize - 16) / 2
)

// A cell is uvarint(len(key)) key uvarint(len(value)) value. Nodes are read
// where they lie: cellKey and cellKV return slices of the page, valid only
// while the caller holds the frame's latch.

func appendCell(b, key, value []byte) []byte {
	b = binary.AppendUvarint(b, uint64(len(key)))
	b = append(b, key...)
	b = binary.AppendUvarint(b, uint64(len(value)))
	return append(b, value...)
}

func cellKey(c []byte) []byte {
	kl, n := binary.Uvarint(c)
	return c[n : n+int(kl)]
}

func cellKV(c []byte) (key, value []byte) {
	kl, n := binary.Uvarint(c)
	key = c[n : n+int(kl)]
	c = c[n+int(kl):]
	vl, n := binary.Uvarint(c)
	return key, c[n : n+int(vl)]
}

// Create allocates an empty tree (a single leaf root) in the given file.
func Create(pool *buffer.Pool, st *store.Store, file store.FileID, objID uint64) (*Tree, error) {
	t := &Tree{pool: pool, st: st, file: file, objID: objID}
	f, err := pool.NewPage(file, page.TypeIndex)
	if err != nil {
		return nil, err
	}
	f.Lock() // a new frame is already in ResidentPages' sight
	f.Data.SetOwner(objID)
	setFlags(f.Data, flagLeaf)
	f.Unlock()
	t.root = f.ID
	pool.Unpin(f, true)
	t.Stats.LeafPages.Store(1)
	t.Stats.Height.Store(1)
	return t, nil
}

// Attach opens an existing tree rooted at root.
func Attach(pool *buffer.Pool, st *store.Store, root store.PageID, objID uint64) *Tree {
	t := &Tree{pool: pool, st: st, file: root.File(), objID: objID, root: root}
	t.rebuildStats()
	return t
}

// Root reports the current root page (persist it in the catalog).
func (t *Tree) Root() store.PageID {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.root
}

// Drop returns the pages of the tree rooted at root to their file and
// reports how many it freed. The tree must have no users. It may be one a
// crash left behind: its pages then date from different moments, and a
// child pointer can name a page that has since become something else. So a
// page is followed and freed only if it is an index page owned by owner,
// and only once; what the walk cannot reach stays lost to the file.
func Drop(pool *buffer.Pool, st *store.Store, root store.PageID, owner uint64) int {
	seen := map[store.PageID]bool{}
	var pages []store.PageID
	for stack := []store.PageID{root}; len(stack) > 0; {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if id == 0 || seen[id] || id.File() != root.File() || id.Index() >= st.PageCount(id.File()) {
			continue
		}
		seen[id] = true
		f, err := pool.Get(id)
		if err != nil {
			continue
		}
		f.RLock()
		ok := f.Data.Type() == page.TypeIndex && f.Data.Owner() == owner
		if ok && !isLeaf(f.Data) {
			stack = append(stack, store.PageID(f.Data.Next())) // leftmost child
			for i := 0; i < f.Data.NumSlots(); i++ {
				_, child := cellKV(f.Data.Cell(i))
				stack = append(stack, pageIDFromBytes(child))
			}
		}
		f.RUnlock()
		pool.Unpin(f, false)
		if ok {
			pages = append(pages, id)
		}
	}
	for _, id := range pages {
		pool.Discard(id)
	}
	_ = st.Free(pages...)
	return len(pages)
}

func setFlags(p page.Buf, f byte) { p[1] = f }
func flags(p page.Buf) byte       { return p[1] }
func isLeaf(p page.Buf) bool      { return flags(p)&flagLeaf != 0 }

// bound says which end of a run of equal keys a node search lands on.
type bound bool

const (
	// lower finds the first cell with key ≥ k. Seek, Search and Delete use
	// it at every level: a separator equal to k sends them left, because a
	// leaf split whose halves meet inside a run of k promotes k itself (see
	// separator), so the run of k can start left of its separator.
	lower bound = false
	// upper finds the first cell with key > k. Insert and InsertUnique use
	// it at every level, so a duplicate lands after the existing run of its
	// key.
	upper bound = true
)

// searchNode binary-searches a node's cells in place (slot order is key
// order: nodes change only through page.InsertOrdered and RemoveOrdered)
// and returns the position of the first cell at or past the bound. It is
// the only node search in the package and allocates nothing.
func searchNode(p page.Buf, key []byte, b bound) int {
	lo, hi := 0, p.NumSlots()
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		c := bytes.Compare(cellKey(p.Cell(mid)), key)
		if c < 0 || (c == 0 && b == upper) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// childAt returns the child of internal node p that a search landing on
// position pos leads to: the cell before pos, or the leftmost child (kept
// in the page's next field) when pos is 0.
func childAt(p page.Buf, pos int) store.PageID {
	if pos == 0 {
		return store.PageID(p.Next())
	}
	_, v := cellKV(p.Cell(pos - 1))
	return pageIDFromBytes(v)
}

// images recycles the page-sized scratch copies a split redistributes from
// and an Iterator reads its current leaf from.
var images = sync.Pool{New: func() any { return new([page.Size]byte) }}

// ErrDuplicate is InsertUnique's refusal: the tree already holds the key.
var ErrDuplicate = errors.New("btree: duplicate key")

// Insert adds a (key, value) pair. Duplicate keys are permitted.
func (t *Tree) Insert(key, value []byte) error { return t.insert(key, value, false) }

// InsertUnique adds a (key, value) pair unless the tree already holds key,
// in which case it changes nothing and returns ErrDuplicate. The check is
// part of the insert's own descent, under the same latch hold, so of two
// callers racing with one key exactly one succeeds. It looks at one cell,
// the one before the insert position in the leaf the upper-bound descent
// reaches, and that is complete for a tree without duplicates: there every
// separator is greater than each key left of it and at most each key right
// of it, so the descent (right at a separator ≤ key, left at one above)
// reaches the only leaf that can hold key, and key sorts last among that
// leaf's cells ≤ key.
func (t *Tree) InsertUnique(key, value []byte) error { return t.insert(key, value, true) }

func (t *Tree) insert(key, value []byte, unique bool) error {
	if len(key)+len(value) > maxCell {
		return fmt.Errorf("btree: entry too large (%d bytes)", len(key)+len(value))
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	split, err := t.insertAt(t.root, key, value, unique, true)
	if err != nil {
		return err
	}
	if split != nil {
		// Root split: new internal root with the old root as leftmost child.
		f, err := t.pool.NewPage(t.file, page.TypeIndex)
		if err != nil {
			return err
		}
		f.Lock()
		f.Data.SetOwner(t.objID)
		setFlags(f.Data, 0)
		f.Data.SetNext(uint64(t.root)) // leftmost child
		ok := f.Data.InsertOrdered(0, appendCell(nil, split.sepKey, pageIDBytes(split.right)))
		f.Unlock()
		if !ok {
			t.pool.Unpin(f, true)
			return fmt.Errorf("btree: root split insert failed")
		}
		t.root = f.ID
		t.pool.Unpin(f, true)
		t.Stats.Height.Add(1)
	}
	return nil
}

type splitResult struct {
	sepKey []byte
	right  store.PageID
}

func pageIDBytes(id store.PageID) []byte {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(id))
	return b[:]
}

func pageIDFromBytes(b []byte) store.PageID {
	return store.PageID(binary.LittleEndian.Uint64(b))
}

// insertAt inserts into the subtree rooted at node id; rightmost says the
// node is the last of its level (the root is, and so is the last child of
// a rightmost node). With unique set, a leaf that holds key refuses it.
func (t *Tree) insertAt(id store.PageID, key, value []byte, unique, rightmost bool) (*splitResult, error) {
	f, err := t.pool.Get(id)
	if err != nil {
		return nil, err
	}
	f.Lock()
	leaf := isLeaf(f.Data)
	if !leaf {
		pos := searchNode(f.Data, key, upper)
		child, last := childAt(f.Data, pos), pos == f.Data.NumSlots()
		f.Unlock()
		t.pool.Unpin(f, false)
		split, err := t.insertAt(child, key, value, unique, rightmost && last)
		if err != nil || split == nil {
			return nil, err
		}
		// The child split: its separator goes into this node.
		if f, err = t.pool.Get(id); err != nil {
			return nil, err
		}
		f.Lock()
		key, value = split.sepKey, pageIDBytes(split.right)
	}
	pos := searchNode(f.Data, key, upper)
	if leaf {
		if unique && pos > 0 && bytes.Equal(cellKey(f.Data.Cell(pos-1)), key) {
			f.Unlock()
			t.pool.Unpin(f, false)
			return nil, ErrDuplicate
		}
		t.noteInsert(f.Data, pos, key, value)
	}
	// An ascending insert: the new cell goes past the last one of the last
	// node of its level, and its key is greater (not a duplicate run, which
	// a split must still cut in the middle).
	n := f.Data.NumSlots()
	ascending := rightmost && pos == n && (n == 0 || bytes.Compare(key, cellKey(f.Data.Cell(n-1))) > 0)
	res, err := t.insertCell(f, pos, key, value, ascending)
	f.Unlock()
	t.pool.Unpin(f, true)
	if err == nil && leaf {
		t.Stats.Entries.Add(1)
	}
	return res, err
}

// noteInsert keeps the real-time statistics (distinct keys, clustering) by
// reading the new entry's two neighbours in place.
func (t *Tree) noteInsert(p page.Buf, pos int, key, value []byte) {
	distinct := true
	if pos < p.NumSlots() && bytes.Equal(cellKey(p.Cell(pos)), key) {
		distinct = false
	}
	if pos > 0 {
		prevKey, prevVal := cellKV(p.Cell(pos - 1))
		if bytes.Equal(prevKey, key) {
			distinct = false
		}
		// Clustering: compare the table page of the new entry's RID with its
		// predecessor's. Values that are not RIDs simply skew toward clustered.
		t.Stats.TotalPairs.Add(1)
		if ridPage(prevVal) == ridPage(value) {
			t.Stats.ClusteredPairs.Add(1)
		}
	}
	if distinct {
		t.Stats.Distinct.Add(1)
	}
}

func ridPage(v []byte) uint64 {
	if len(v) < 8 {
		return 0
	}
	return binary.LittleEndian.Uint64(v) >> 8 // ignore slot byte-ish low bits
}

// insertCell adds (key, value) to the node in f at position pos, moving no
// other cell, and splits the node when the cell does not fit. The caller
// holds the frame latch and unpins afterwards.
func (t *Tree) insertCell(f *buffer.Frame, pos int, key, value []byte, ascending bool) (*splitResult, error) {
	var buf [128]byte
	cell := appendCell(buf[:0], key, value)
	// A node is full 8 bytes early, as it always has been.
	if len(cell)+8 <= f.Data.FreeSpace() {
		if !f.Data.InsertOrdered(pos, cell) {
			return nil, fmt.Errorf("btree: node overflow inserting a %d-byte cell", len(cell))
		}
		return nil, nil
	}
	return t.split(f, pos, cell, ascending)
}

// split redistributes the node in f plus the new cell at pos over f and a
// new right sibling: the left half stays, the rest moves. An ascending
// insert (see insertAt) moves only the new cell instead, so that keys
// arriving in order fill each node before they start the next one: a leaf
// keeps every old cell, an internal node all but its last, whose key moves
// up. Both pages are written once, from a scratch image of the old node.
func (t *Tree) split(f *buffer.Frame, pos int, cell []byte, ascending bool) (*splitResult, error) {
	rf, err := t.pool.NewPage(t.file, page.TypeIndex)
	if err != nil {
		return nil, err
	}
	defer t.pool.Unpin(rf, true)
	rf.Lock() // f is latched by the caller
	defer rf.Unlock()
	img := images.Get().(*[page.Size]byte)
	defer images.Put(img)
	copy(img[:], f.Data)
	old := page.Buf(img[:])
	// at is the i-th cell of the old node with the new cell in its place.
	at := func(i int) []byte {
		switch {
		case i < pos:
			return old.Cell(i)
		case i == pos:
			return cell
		}
		return old.Cell(i - 1)
	}
	n := old.NumSlots() + 1
	mid := n / 2
	leaf := isLeaf(old)
	switch {
	case ascending && leaf:
		mid = n - 1
	case ascending && n >= 3:
		mid = n - 2
	}

	left, right := f.Data, rf.Data
	left.Init(page.TypeIndex)
	for _, p := range []page.Buf{left, right} {
		setFlags(p, flags(old))
		p.SetOwner(old.Owner())
	}
	sepKey, sepVal := cellKV(at(mid))
	if leaf {
		sepKey = separator(cellKey(at(mid-1)), sepKey)
	}
	sepKey = append([]byte(nil), sepKey...)
	from := mid
	if leaf {
		// Maintain the leaf sibling chain.
		right.SetNext(old.Next())
		left.SetNext(uint64(rf.ID))
		t.Stats.LeafPages.Add(1)
	} else {
		// The middle cell's key moves up; its child becomes the right
		// node's leftmost child.
		right.SetNext(uint64(pageIDFromBytes(sepVal)))
		left.SetNext(old.Next())
		from = mid + 1
	}
	for i := 0; i < mid; i++ {
		if !left.InsertOrdered(i, at(i)) {
			return nil, fmt.Errorf("btree: left half of a split overflows at cell %d of %d", i, n)
		}
	}
	for i := from; i < n; i++ {
		if !right.InsertOrdered(i-from, at(i)) {
			return nil, fmt.Errorf("btree: right half of a split overflows at cell %d of %d", i, n)
		}
	}
	return &splitResult{sepKey: sepKey, right: rf.ID}, nil
}

// separator returns what a leaf split promotes: the shortest prefix of
// right, the right node's first key, that sorts after left, the left
// node's last key (Bayer and Unterauer's suffix truncation). It is above
// every key of the left node and at most every key of the right one, which
// is all a separator must be, and a shorter one widens the parent's
// fan-out. Equal keys, a run of duplicates the split cuts, keep the full
// key.
func separator(left, right []byte) []byte {
	i := 0
	for i < len(left) && i < len(right) && left[i] == right[i] {
		i++
	}
	if i == len(right) {
		return right
	}
	return right[:i+1]
}

// descend pins and latches (exclusively when write is set) the leaf that
// key's lower bound leads to.
func (t *Tree) descend(key []byte, write bool) (*buffer.Frame, error) {
	id := t.root
	for {
		f, err := t.pool.Get(id)
		if err != nil {
			return nil, err
		}
		latch(f, write)
		if isLeaf(f.Data) {
			return f, nil
		}
		id = childAt(f.Data, searchNode(f.Data, key, lower))
		t.release(f, write)
	}
}

func latch(f *buffer.Frame, write bool) {
	if write {
		f.Lock()
	} else {
		f.RLock()
	}
}

// release unlatches and unpins a frame latched by latch. The page is marked
// dirty only by the caller that changed it.
func (t *Tree) release(f *buffer.Frame, write bool) {
	if write {
		f.Unlock()
	} else {
		f.RUnlock()
	}
	t.pool.Unpin(f, false)
}

// seekLeaf returns the latched leaf holding the first entry with key ≥ k
// and that entry's position, following the sibling chain past leaves that
// hold no such entry (k is greater than every key of the leaf its lower
// bound leads to, or the leaf has been emptied by deletes). The frame is
// nil when the tree holds no such entry.
func (t *Tree) seekLeaf(k []byte, write bool) (*buffer.Frame, int, error) {
	f, err := t.descend(k, write)
	if err != nil {
		return nil, 0, err
	}
	pos := searchNode(f.Data, k, lower)
	for pos >= f.Data.NumSlots() {
		if f, err = t.nextLeaf(f, write); f == nil {
			return nil, 0, err
		}
		pos = 0
	}
	return f, pos, nil
}

// nextLeaf releases leaf f and returns its right sibling latched the same
// way, or nil at the end of the chain.
func (t *Tree) nextLeaf(f *buffer.Frame, write bool) (*buffer.Frame, error) {
	next := f.Data.Next()
	t.release(f, write)
	if next == 0 {
		return nil, nil
	}
	f, err := t.pool.Get(store.PageID(next))
	if err != nil {
		return nil, err
	}
	latch(f, write)
	return f, nil
}

// Delete removes one entry matching key and (if value is non-nil) value.
// It reports whether an entry was removed. Nodes are allowed to underflow;
// empty leaves stay in the chain until the tree is rebuilt.
func (t *Tree) Delete(key, value []byte) (bool, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	f, pos, err := t.seekLeaf(key, true)
	// The run of equal keys may continue over any number of siblings.
	for ; f != nil; pos = 0 {
		for ; pos < f.Data.NumSlots(); pos++ {
			k, v := cellKV(f.Data.Cell(pos))
			if !bytes.Equal(k, key) {
				t.release(f, true)
				return false, nil
			}
			if value == nil || bytes.Equal(v, value) {
				f.Data.RemoveOrdered(pos)
				f.MarkDirty()
				t.release(f, true)
				t.Stats.Entries.Add(-1)
				return true, nil
			}
		}
		f, err = t.nextLeaf(f, true)
	}
	return false, err
}

// Search returns the value of the first entry with exactly this key.
func (t *Tree) Search(key []byte) ([]byte, bool, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	f, pos, err := t.seekLeaf(key, false)
	if f == nil {
		return nil, false, err
	}
	defer t.release(f, false)
	k, v := cellKV(f.Data.Cell(pos))
	if !bytes.Equal(k, key) {
		return nil, false, nil
	}
	return append([]byte(nil), v...), true, nil
}

// Iterator walks leaf entries in key order. It reads from its own image of
// the current leaf — cells and sibling pointer copied together under the
// leaf's latch — and holds no pin or latch between calls, so a concurrent
// split of that leaf can neither hide an entry from the scan nor show it
// one twice. Key and Value alias the image: they are valid until the next
// call to Next or Close.
type Iterator struct {
	t   *Tree
	img *[page.Size]byte // nil once the scan is exhausted or closed
	pos int
	err error
}

// Seek positions an iterator at the first entry with key ≥ k.
func (t *Tree) Seek(k []byte) (*Iterator, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	f, pos, err := t.seekLeaf(k, false)
	if err != nil {
		return nil, err
	}
	it := &Iterator{t: t, pos: pos}
	if f != nil {
		it.img = images.Get().(*[page.Size]byte)
		copy(it.img[:], f.Data)
		t.release(f, false)
	}
	return it, nil
}

// First positions an iterator at the smallest key.
func (t *Tree) First() (*Iterator, error) { return t.Seek(nil) }

func (it *Iterator) leaf() page.Buf { return page.Buf(it.img[:]) }

// Valid reports whether the iterator is positioned on an entry.
func (it *Iterator) Valid() bool { return it.img != nil }

// Key returns the current entry's key.
func (it *Iterator) Key() []byte { return cellKey(it.leaf().Cell(it.pos)) }

// Value returns the current entry's value.
func (it *Iterator) Value() []byte {
	_, v := cellKV(it.leaf().Cell(it.pos))
	return v
}

// Err reports any error encountered while iterating.
func (it *Iterator) Err() error { return it.err }

// Next advances to the following entry, crossing leaf pages via the
// sibling chain and skipping leaves emptied by deletes.
func (it *Iterator) Next() {
	if !it.Valid() {
		return
	}
	it.pos++
	for it.pos >= it.leaf().NumSlots() {
		next := it.leaf().Next()
		if next == 0 {
			it.Close()
			return
		}
		f, err := it.t.pool.Get(store.PageID(next))
		if err != nil {
			it.err = err
			it.Close()
			return
		}
		f.RLock()
		copy(it.img[:], f.Data)
		it.t.release(f, false)
		it.pos = 0
	}
}

// Close releases the iterator's leaf image.
func (it *Iterator) Close() {
	if it.img != nil {
		images.Put(it.img)
		it.img = nil
	}
}

// rebuildStats recomputes statistics by walking the tree (used by Attach).
func (t *Tree) rebuildStats() {
	t.Stats = Stats{}
	it, err := t.First()
	if err != nil {
		return
	}
	defer it.Close()
	var prevKey, prevVal []byte
	leaves := int64(0) // leaves holding an entry: the scan enters each at position 0
	for ; it.Valid(); it.Next() {
		if it.pos == 0 {
			leaves++
		}
		t.Stats.Entries.Add(1)
		if prevKey == nil || !bytes.Equal(prevKey, it.Key()) {
			t.Stats.Distinct.Add(1)
		}
		if prevKey != nil {
			t.Stats.TotalPairs.Add(1)
			if ridPage(prevVal) == ridPage(it.Value()) {
				t.Stats.ClusteredPairs.Add(1)
			}
		}
		prevKey = append(prevKey[:0], it.Key()...)
		prevVal = append(prevVal[:0], it.Value()...)
	}
	t.Stats.LeafPages.Store(max(leaves, 1))
	// Height: descend leftmost.
	h := int64(1)
	id := t.root
	for {
		f, err := t.pool.Get(id)
		if err != nil {
			break
		}
		f.RLock()
		leaf := isLeaf(f.Data)
		next := f.Data.Next()
		f.RUnlock()
		t.pool.Unpin(f, false)
		if leaf {
			break
		}
		h++
		id = store.PageID(next)
	}
	t.Stats.Height.Store(h)
}
