// Package table implements heap tables: chains of slotted pages in the
// buffer pool, with transactional insert/update/delete, index maintenance,
// and automatic statistics upkeep — every DML statement updates the
// histograms of the modified columns (§3.2).
package table

import (
	"encoding/binary"
	"errors"
	"fmt"
	"maps"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"anywheredb/internal/btree"
	"anywheredb/internal/buffer"
	"anywheredb/internal/lock"
	"anywheredb/internal/mvcc"
	"anywheredb/internal/page"
	"anywheredb/internal/stats"
	"anywheredb/internal/store"
	"anywheredb/internal/txn"
	"anywheredb/internal/val"
	"anywheredb/internal/wal"
)

// ErrRowTooLarge is returned for rows exceeding one page's capacity.
var ErrRowTooLarge = errors.New("table: row exceeds page capacity")

// ErrNotFound is returned when a RID does not address a live row.
var ErrNotFound = errors.New("table: row not found")

// ErrUnique is returned when an insert or update would give a unique index
// a key it already holds.
var ErrUnique = errors.New("table: unique index violation")

// Column describes one column.
type Column struct {
	Name string
	Kind val.Kind
}

// RID addresses a row: its page and slot.
type RID struct {
	Page store.PageID
	Slot int
}

// Bytes encodes the RID for storage as an index value.
func (r RID) Bytes() []byte {
	var b [12]byte
	binary.LittleEndian.PutUint64(b[:], uint64(r.Page))
	binary.LittleEndian.PutUint32(b[8:], uint32(r.Slot))
	return b[:]
}

// RIDFromBytes decodes an index value back into a RID.
func RIDFromBytes(b []byte) RID {
	return RID{
		Page: store.PageID(binary.LittleEndian.Uint64(b)),
		Slot: int(binary.LittleEndian.Uint32(b[8:])),
	}
}

func (r RID) String() string { return fmt.Sprintf("%v.%d", r.Page, r.Slot) }

// Index is a secondary index over a table.
type Index struct {
	ID     uint64
	Name   string
	Cols   []int // column ordinals, in key order
	Unique bool
	Tree   *btree.Tree
}

// Key builds the index key for a row.
func (ix *Index) Key(row []val.Value) []byte { return ix.AppendKey(nil, row) }

// AppendKey appends the index key for a row to dst.
func (ix *Index) AppendKey(dst []byte, row []val.Value) []byte {
	for _, c := range ix.Cols {
		dst = val.AppendKey(dst, row[c])
	}
	return dst
}

// Table is a heap table.
type Table struct {
	ID      uint64
	Name    string
	Columns []Column

	pool *buffer.Pool
	st   *store.Store
	file store.FileID

	mu    sync.Mutex
	first store.PageID
	last  store.PageID

	rows  atomic.Int64
	pages atomic.Int64

	// colstate is the immutable columnar snapshot (nil = row-only); colGen
	// (under mu) counts update/delete mutations so an in-flight build can
	// detect that it raced a writer. See colseg.go.
	colstate atomic.Pointer[ColState]
	colGen   uint64
	// SegmentRows overrides the rows per sealed segment (0 = default).
	SegmentRows int
	// OnColsegDrop, when set (by core), is called after a hot-path
	// invalidation so the engine can count it and de-promote the table.
	OnColsegDrop func()

	// versions holds the row version chains for snapshot reads: the
	// pre-image of every in-flight (and not-yet-vacuumed committed) write,
	// keyed by heap location. The heap always has the newest version;
	// snapshot readers resolve backwards through here. Volatile by design:
	// recovery resolves every transaction, so chains restart empty.
	versions *mvcc.Store

	// Hists holds one self-managing histogram per column.
	Hists []*stats.Histogram
	// StrStats holds long-string statistics for string columns (nil for
	// other kinds).
	StrStats []*stats.StringStats

	// Indexes changes only by replacement, under ixMu (AddIndexIn,
	// RemoveIndex). Whatever can run beside a schema change — planners and
	// snapshot readers take no table lock — reads it through IndexList; the
	// field itself is for code that has the table to itself.
	Indexes []*Index
	ixMu    sync.RWMutex
}

// Create makes an empty table with one (empty) page.
func Create(pool *buffer.Pool, st *store.Store, file store.FileID, id uint64, name string, cols []Column) (*Table, error) {
	t := &Table{ID: id, Name: name, Columns: cols, pool: pool, st: st, file: file, versions: mvcc.NewStore()}
	f, err := pool.NewPage(file, page.TypeTable)
	if err != nil {
		return nil, err
	}
	f.Lock() // a new frame is already in ResidentPages' sight
	f.Data.SetOwner(id)
	f.Unlock()
	t.first, t.last = f.ID, f.ID
	pool.Unpin(f, true)
	t.pages.Store(1)
	t.initStats()
	return t, nil
}

// Attach opens an existing table chain and recounts rows.
func Attach(pool *buffer.Pool, st *store.Store, id uint64, name string, cols []Column, first store.PageID) (*Table, error) {
	t := &Table{ID: id, Name: name, Columns: cols, pool: pool, st: st, file: first.File(), first: first, last: first, versions: mvcc.NewStore()}
	t.initStats()
	// Walk the chain to find the tail and count rows/pages.
	var rows, pages int64
	cur := first
	for cur != 0 {
		f, err := pool.Get(cur)
		if err != nil {
			return nil, err
		}
		f.RLock()
		rows += int64(f.Data.LiveCells())
		next := f.Data.Next()
		f.RUnlock()
		pool.Unpin(f, false)
		pages++
		t.last = cur
		cur = store.PageID(next)
	}
	t.rows.Store(rows)
	t.pages.Store(pages)
	return t, nil
}

func (t *Table) initStats() {
	t.Hists = make([]*stats.Histogram, len(t.Columns))
	t.StrStats = make([]*stats.StringStats, len(t.Columns))
	for i, c := range t.Columns {
		t.Hists[i] = stats.NewHistogram(c.Kind)
		if c.Kind == val.KStr {
			t.StrStats[i] = stats.NewStringStats()
		}
	}
}

// ColumnIndex returns the ordinal of a named column, or -1.
func (t *Table) ColumnIndex(name string) int {
	for i, c := range t.Columns {
		if c.Name == name {
			return i
		}
	}
	return -1
}

// RowCount reports the live row count.
func (t *Table) RowCount() int64 { return t.rows.Load() }

// PageCount reports the chain length in pages.
func (t *Table) PageCount() int64 { return t.pages.Load() }

// FirstPage reports the head of the page chain (persisted in the catalog).
func (t *Table) FirstPage() store.PageID {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.first
}

// ResidentFraction reports the fraction of the table's pages currently in
// the buffer pool — maintained in real time and used by the cost model
// when costing access methods (§3.2).
func (t *Table) ResidentFraction() float64 {
	p := t.pages.Load()
	if p == 0 {
		return 0
	}
	res := t.pool.ResidentPages(t.ID)
	fr := float64(res) / float64(p)
	if fr > 1 {
		fr = 1
	}
	return fr
}

// The mutation kernels. Every change to a heap row — forward DML, each
// compensation, and a replica or recovery replaying a log — is one of
// insertRow, updateRow or deleteRow. A kernel does the page change, logs its
// record rec and stamps the page with the record's LSN under the same
// latch, and keeps histograms, indexes and the row count in step. A forward
// change under tx also pushes the version-chain entry that hides it from
// snapshot readers until tx commits, and registers its inverse on tx
// (onRollback): the kernel run under tx with a compensation record
// (rec.Undo), the exact inverse of rec, which creates no version and no
// inverse. So a live rollback, a replica's and recovery's leave the same
// pages. rec is nil exactly when tx is (a bulk load). Kernels take no
// locks; their callers do.

// errNoRoom is updateRow's report that the new image does not fit in the
// row's page. Update turns it into a move; everywhere else it is an error.
var errNoRoom = errors.New("table: row does not fit in its page")

// withPage runs fn on heap page pid under its exclusive latch and, when fn
// succeeds, marks the page dirty and stamps it with rec (see stamp). A
// replayed record is made only where missing: on a page stamped at or past
// it fn does not run (applied is false). And a page it names that is not
// this table's heap page never reached disk in that role, or not since an
// earlier life whose last image recovery restored: it is made one first.
func (t *Table) withPage(pid store.PageID, tx *txn.Txn, rec *wal.Record, fn func(p page.Buf) error) (applied bool, err error) {
	f, err := t.pool.Get(pid)
	if err != nil {
		return false, err
	}
	replayed := rec != nil && rec.LSN != 0
	if replayed {
		// Looked at shared: to the pool an exclusive latch is a change.
		f.RLock()
		done := f.Data.LSN() >= rec.LSN
		f.RUnlock()
		if done {
			t.pool.Unpin(f, false)
			return false, nil
		}
	}
	f.Lock()
	if replayed && (f.Data.Type() != page.TypeTable || f.Data.Owner() != t.ID) {
		f.Data.Init(page.TypeTable)
		f.Data.SetOwner(t.ID)
	}
	err = fn(f.Data)
	if err == nil {
		f.MarkDirty()
		stamp(f, tx, rec)
	}
	f.Unlock()
	t.pool.Unpin(f, err == nil)
	return err == nil, err
}

// stamp logs rec on tx's behalf — unless it was replayed from a log, where
// it is already — and stamps the latched page f with its LSN, so the page
// never holds a change newer than its LSN says. A change no record
// describes (rec nil: a bulk load) leaves the page unstamped, and the pool
// images it again before it is written.
func stamp(f *buffer.Frame, tx *txn.Txn, rec *wal.Record) {
	if rec == nil {
		return
	}
	lsn := rec.LSN
	if tx != nil {
		lsn = tx.Log(rec)
	}
	if lsn != 0 {
		f.Stamp(lsn)
	}
}

// insertRow places enc (the encoding of row) at the chain tail, or at
// exactly *at when the location is already decided: by the log, by the
// delete being compensated. A tail insert fills in rec's location, and is
// the one a unique index may refuse: it then backs itself out and fails
// with ErrUnique.
func (t *Table) insertRow(tx *txn.Txn, at *RID, row []val.Value, enc []byte, rec *wal.Record) (RID, error) {
	var rid RID
	var err error
	applied := true
	if at == nil {
		rid, err = t.insertBytes(tx, enc, rec)
	} else {
		rid = *at
		applied, err = t.withPage(rid.Page, tx, rec, func(p page.Buf) error {
			// InsertSparse: slots below this one may belong to transactions
			// whose inserts were never replayed here.
			if !p.InsertSparse(rid.Slot, enc) {
				return fmt.Errorf("table %s: slot %v is occupied or its page is full", t.Name, rid)
			}
			t.pushVersion(tx, rec, rid, nil, 0)
			return nil
		})
	}
	if err != nil {
		return RID{}, err
	}
	t.onRollback(tx, rec)
	if !applied {
		return rid, nil
	}
	for i, h := range t.Hists {
		h.NoteInsert(row[i])
	}
	t.rows.Add(1)
	var refused error
	for _, ix := range t.IndexList() {
		if err := addKey(ix, ix.Key(row), rid, at == nil); errors.Is(err, ErrUnique) {
			refused = err
		} else if err != nil {
			return RID{}, err
		}
	}
	if refused != nil {
		backOut(tx, func() error { return t.deleteRow(nil, rid, row, nil) })
		return RID{}, refused
	}
	return rid, nil
}

// addKey enters rid under key in ix. checked, on a forward change, makes a
// unique index refuse a key it already holds, with ErrUnique; the kernel
// then still enters the row in its other indexes, so that the inverse it
// registered, whose index deletes pass over an entry that is not there,
// takes back exactly what was done.
func addKey(ix *Index, key []byte, rid RID, checked bool) error {
	if !checked || !ix.Unique {
		return ix.Tree.Insert(key, rid.Bytes())
	}
	err := ix.Tree.InsertUnique(key, rid.Bytes())
	if errors.Is(err, btree.ErrDuplicate) {
		return fmt.Errorf("%w: index %s", ErrUnique, ix.Name)
	}
	return err
}

// rowRecord is the log record of a change of type typ to the row at rid.
func (t *Table) rowRecord(typ wal.RecType, rid RID, before, after []byte) *wal.Record {
	return &wal.Record{Type: typ, Table: t.ID, Page: rid.Page, Slot: uint32(rid.Slot), Before: before, After: after}
}

// onRollback registers on tx the inverse of the forward change rec
// describes: the compensation, logged or replayed at lsn, that swaps rec's
// images — a delete for an insert, an insert for a delete, the old image
// back. Bulk loads and compensations have no inverse. The inverse holds a
// copy of the record, so rec itself need not outlive the change.
func (t *Table) onRollback(tx *txn.Txn, rec *wal.Record) {
	if tx == nil || rec.Undo {
		return
	}
	inv := *rec
	inv.Before, inv.After, inv.Undo = rec.After, rec.Before, true
	switch rec.Type {
	case wal.RecInsert:
		inv.Type = wal.RecDelete
	case wal.RecDelete:
		inv.Type = wal.RecInsert
	}
	tx.OnRollback(func(lsn wal.LSN) error {
		r := inv
		r.LSN = lsn
		return t.apply(tx, &r)
	})
}

// backOut takes back the change a statement just made, because the
// statement fails after the change was logged: by the change's logged
// inverse under a transaction, whose commit then cannot bring the change
// back at recovery, and by undo without one (a bulk load). The error is
// dropped: the statement is failing already, with the error that says why.
func backOut(tx *txn.Txn, undo func() error) {
	if tx == nil {
		_ = undo()
		return
	}
	_ = tx.UndoLast(0)
}

// insertBytes places the encoded row into the chain's tail, growing it as
// needed, and logs rec at the row's location. When the chain grows under a
// transaction, the new linkage is logged as a RecPageLink record so
// recovery can rebuild the chain even if only some of the affected pages
// reached disk. tx and rec may be nil (bulk load).
func (t *Table) insertBytes(tx *txn.Txn, enc []byte, rec *wal.Record) (RID, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	f, err := t.pool.Get(t.last)
	if err != nil {
		return RID{}, err
	}
	f.Lock()
	reserve, slot := t.owed(f.ID, f.Data, -1)
	if len(enc) <= f.Data.FreeSpace()-reserve && f.Data.InsertSparse(slot, enc) {
		f.MarkDirty()
		id := f.ID
		t.logInsert(f, tx, rec, slot)
		// Push the insert marker ("no row existed here before this txn")
		// while still holding the page latch: a snapshot reader that can
		// see the new cell must also find the chain entry that hides it.
		t.pushVersion(tx, rec, RID{Page: id, Slot: slot}, nil, 0)
		f.Unlock()
		t.pool.Unpin(f, true)
		return RID{Page: id, Slot: slot}, nil
	}
	// Tail full: extend the chain.
	nf, err := t.pool.NewPage(t.file, page.TypeTable)
	if err != nil {
		f.Unlock()
		t.pool.Unpin(f, false)
		return RID{}, err
	}
	nf.Lock()
	nf.Data.SetOwner(t.ID)
	nf.Unlock()
	f.Data.SetNext(uint64(nf.ID))
	f.MarkDirty()
	if tx != nil {
		stamp(f, tx, &wal.Record{Type: wal.RecPageLink, Table: t.ID, Page: f.ID, After: pageIDBytes(nf.ID)})
	}
	f.Unlock()
	t.pool.Unpin(f, true)
	t.last = nf.ID
	t.pages.Add(1)
	nf.Lock()
	slot = nf.Data.Insert(enc)
	id := nf.ID
	if slot >= 0 {
		t.logInsert(nf, tx, rec, slot)
		t.pushVersion(tx, rec, RID{Page: id, Slot: slot}, nil, 0)
	}
	nf.Unlock()
	t.pool.Unpin(nf, true)
	if slot < 0 {
		return RID{}, fmt.Errorf("table %s: fresh page rejected %d bytes", t.Name, len(enc))
	}
	return RID{Page: id, Slot: slot}, nil
}

// logInsert completes rec with the slot a tail insert took in the latched
// page f, logs it and stamps f.
func (t *Table) logInsert(f *buffer.Frame, tx *txn.Txn, rec *wal.Record, slot int) {
	if rec != nil {
		rec.Page, rec.Slot = f.ID, uint32(slot)
		stamp(f, tx, rec)
	}
}

// owed reports what page p owes to writes that have not settled. A rollback
// puts a row back exactly where it was and as large as it was, so until the
// writer settles, the bytes its delete, move or shrinking update gave up stay
// free (reserve) and a slot it emptied stays empty (slot is the first one a
// new row may take). own is the slot the caller is rewriting, whose claim is
// the caller's to use up (-1 for none). Every transactional write that
// consumes page space asks here first; compensations do not, they take back
// what was kept for them. The record of an unsettled write is its version
// chain entry, so this costs nothing while the table has no chains.
func (t *Table) owed(pid store.PageID, p page.Buf, own int) (reserve, slot int) {
	slot = p.NumSlots()
	chains := !t.versions.Empty()
	for s := slot - 1; s >= 0; s-- {
		cell := p.Cell(s)
		was, held := 0, false
		if chains {
			was, held = t.versions.Unsettled(mvcc.RowID{Page: pid, Slot: s})
		}
		if cell == nil && !held {
			slot = s
		}
		if s != own && was > len(cell) {
			reserve += was - len(cell)
		}
	}
	return reserve, slot
}

// pushVersion prepends a pre-image entry to rid's version chain on behalf
// of tx, for the change rec describes: pre is the row the write replaced
// and cell the length of its heap cell (nil and zero for an insert: no row
// existed). No-op for a bulk load and for a compensation, which restores
// state rather than creating a new version.
func (t *Table) pushVersion(tx *txn.Txn, rec *wal.Record, rid RID, pre []val.Value, cell int) {
	if tx == nil || rec.Undo {
		return
	}
	e := &mvcc.Entry{Writer: tx.ID(), Row: pre, Exists: cell > 0, Bytes: mvcc.SizeOf(pre), Cell: cell}
	id := mvcc.RowID{Page: rid.Page, Slot: rid.Slot}
	t.versions.Push(id, e)
	tx.NoteVersion(t.versions, id, e)
}

// updateRow replaces the row at rid in place: newEnc is the encoding of
// newRow, oldRow the image being replaced. It fails with errNoRoom, having
// changed and logged nothing, when the page cannot hold the new image
// without taking bytes another transaction's rollback needs back, and, on
// the forward path, with ErrUnique, having backed its change out, when the
// new row gives a unique index a key it holds.
func (t *Table) updateRow(tx *txn.Txn, rid RID, oldRow, newRow []val.Value, newEnc []byte, rec *wal.Record) error {
	// Sealed column segments may cover this row: drop them (WAL-logged
	// through tx, so ahead of the caller's data record) so that no scan —
	// live or replayed — can see the stale columnar image.
	t.invalidateColumnar(tx)
	applied, err := t.withPage(rid.Page, tx, rec, func(p page.Buf) error {
		was := len(p.Cell(rid.Slot))
		if was == 0 {
			return ErrNotFound
		}
		if grow := len(newEnc) - was; grow > 0 && tx != nil && !rec.Undo {
			if reserve, _ := t.owed(rid.Page, p, rid.Slot); reserve > 0 && grow > p.FreeSpace()-reserve {
				return errNoRoom
			}
		}
		if !p.Update(rid.Slot, newEnc) {
			return errNoRoom
		}
		// Under the latch that changed the cell: a snapshot reader that can
		// see the new bytes must also find the pre-image that hides them.
		t.pushVersion(tx, rec, rid, oldRow, was)
		return nil
	})
	if err != nil {
		return err
	}
	t.onRollback(tx, rec)
	if !applied {
		return nil
	}
	for i, h := range t.Hists {
		if val.Compare(oldRow[i], newRow[i]) != 0 || oldRow[i].IsNull() != newRow[i].IsNull() {
			h.NoteDelete(oldRow[i])
			h.NoteInsert(newRow[i])
		}
	}
	var refused error
	for _, ix := range t.IndexList() {
		oldKey, newKey := ix.Key(oldRow), ix.Key(newRow)
		if string(oldKey) != string(newKey) {
			if _, err := ix.Tree.Delete(oldKey, rid.Bytes()); err != nil {
				return err
			}
			if err := addKey(ix, newKey, rid, tx != nil && !rec.Undo); errors.Is(err, ErrUnique) {
				refused = err
			} else if err != nil {
				return err
			}
		}
	}
	if refused != nil {
		backOut(tx, nil)
	}
	return refused
}

// deleteRow removes the row at rid; row is its current image.
func (t *Table) deleteRow(tx *txn.Txn, rid RID, row []val.Value, rec *wal.Record) error {
	// As in updateRow: sealed segments may cover this row. (A compensated
	// insert always lives in the delta tail, but a build may have sealed the
	// chain between insert and rollback; invalidating then is conservative.)
	t.invalidateColumnar(tx)
	applied, err := t.withPage(rid.Page, tx, rec, func(p page.Buf) error {
		was := len(p.Cell(rid.Slot))
		if !p.Delete(rid.Slot) {
			return ErrNotFound
		}
		// Under the latch that removed the cell: a snapshot reader either
		// sees the live cell, or resurrects it from here.
		t.pushVersion(tx, rec, rid, row, was)
		return nil
	})
	if err != nil {
		return err
	}
	t.onRollback(tx, rec)
	if !applied {
		return nil
	}
	for i, h := range t.Hists {
		h.NoteDelete(row[i])
	}
	for _, ix := range t.IndexList() {
		if _, err := ix.Tree.Delete(ix.Key(row), rid.Bytes()); err != nil {
			return err
		}
	}
	t.rows.Add(-1)
	return nil
}

// Forward DML: lock, and run the kernel with the record of the change.

// Insert adds a row. tx may be nil for non-transactional bulk load.
func (t *Table) Insert(tx *txn.Txn, row []val.Value) (RID, error) {
	if len(row) != len(t.Columns) {
		return RID{}, fmt.Errorf("table %s: %d values for %d columns", t.Name, len(row), len(t.Columns))
	}
	enc := val.EncodeRow(row)
	if len(enc) > page.Size-page.HeaderSize-8 {
		return RID{}, ErrRowTooLarge
	}

	if tx != nil {
		// Declare write intent on the table before reading its index list or
		// touching the heap: an index being built (table-X) is either
		// complete and in the list below or not started.
		if err := tx.Lock(t.ID, nil, lock.IntentExclusive); err != nil {
			return RID{}, err
		}
	}
	var rec *wal.Record
	if tx != nil {
		rec = &wal.Record{Type: wal.RecInsert, Table: t.ID, After: enc}
	}
	rid, err := t.insertRow(tx, nil, row, enc, rec)
	if err != nil {
		return RID{}, err
	}
	if tx != nil {
		// The RID is known only now, with the page latch released: a wait
		// here holds no latch.
		if err := tx.Lock(t.ID, rid.Bytes(), lock.Exclusive); err != nil {
			backOut(tx, nil)
			return RID{}, err
		}
	}
	return rid, nil
}

// Get reads the newest content of the row at rid, which must exist: the
// read lockRow does under the row's exclusive lock. Everything that reads
// without that lock calls Fetch.
func (t *Table) Get(rid RID) ([]val.Value, error) {
	row, ok, err := t.Fetch(rid, nil)
	if err == nil && !ok {
		err = ErrNotFound
	}
	return row, err
}

// lockRow takes tx's write locks on the row at rid and reads the row as it
// stands under them, so the image a caller saves, checks or logs cannot be
// stale.
func (t *Table) lockRow(tx *txn.Txn, rid RID) ([]val.Value, error) {
	if tx != nil {
		if err := tx.Lock(t.ID, nil, lock.IntentExclusive); err != nil {
			return nil, err
		}
		if err := tx.Lock(t.ID, rid.Bytes(), lock.Exclusive); err != nil {
			return nil, err
		}
	}
	return t.Get(rid)
}

// UpdateChecked updates rid by deriving the replacement row from the
// current committed row under the row's exclusive lock. check sees the
// fresh row and may veto the write (the caller's WHERE predicate no longer
// matches because a concurrent writer got there first); compute builds the
// new row from the same fresh image, so read-modify-write statements
// (UPDATE ... SET x = x + 1) never lose a concurrent update committed
// between the caller's target scan and the lock grant. Reports whether the
// row was written.
func (t *Table) UpdateChecked(tx *txn.Txn, rid RID,
	check func(row []val.Value) (bool, error),
	compute func(row []val.Value) ([]val.Value, error)) (RID, bool, error) {
	old, err := t.lockRow(tx, rid)
	if err != nil {
		return RID{}, false, err
	}
	if check != nil {
		ok, err := check(old)
		if err != nil || !ok {
			return rid, false, err
		}
	}
	newRow, err := compute(old)
	if err != nil {
		return RID{}, false, err
	}
	newRID, err := t.updateLocked(tx, rid, old, newRow)
	return newRID, err == nil, err
}

// DeleteChecked deletes rid if check approves the current committed row
// under the row's exclusive lock (the same staleness guard as
// UpdateChecked). Reports whether the row was deleted.
func (t *Table) DeleteChecked(tx *txn.Txn, rid RID,
	check func(row []val.Value) (bool, error)) (bool, error) {
	row, err := t.lockRow(tx, rid)
	if err != nil {
		return false, err
	}
	if check != nil {
		ok, err := check(row)
		if err != nil || !ok {
			return false, err
		}
	}
	if err := t.deleteLocked(tx, rid, row); err != nil {
		return false, err
	}
	return true, nil
}

// Delete removes a row.
func (t *Table) Delete(tx *txn.Txn, rid RID) error {
	row, err := t.lockRow(tx, rid)
	if err != nil {
		return err
	}
	return t.deleteLocked(tx, rid, row)
}

// deleteLocked deletes the row at rid, whose image row was read under tx's
// lock on it.
func (t *Table) deleteLocked(tx *txn.Txn, rid RID, row []val.Value) error {
	var rec *wal.Record
	if tx != nil {
		rec = t.rowRecord(wal.RecDelete, rid, val.EncodeRow(row), nil)
	}
	return t.deleteRow(tx, rid, row, rec)
}

// Update replaces a row. If the new encoding no longer fits in place the
// row moves and the returned RID differs.
func (t *Table) Update(tx *txn.Txn, rid RID, newRow []val.Value) (RID, error) {
	oldRow, err := t.lockRow(tx, rid)
	if err != nil {
		return RID{}, err
	}
	return t.updateLocked(tx, rid, oldRow, newRow)
}

// updateLocked replaces the row at rid, whose image oldRow was read under
// tx's lock on it.
func (t *Table) updateLocked(tx *txn.Txn, rid RID, oldRow, newRow []val.Value) (RID, error) {
	if len(newRow) != len(t.Columns) {
		return RID{}, fmt.Errorf("table %s: %d values for %d columns", t.Name, len(newRow), len(t.Columns))
	}
	newEnc := val.EncodeRow(newRow)
	if len(newEnc) > page.Size-page.HeaderSize-8 {
		return RID{}, ErrRowTooLarge
	}
	var rec *wal.Record
	if tx != nil {
		rec = t.rowRecord(wal.RecUpdate, rid, val.EncodeRow(oldRow), newEnc)
	}
	err := t.updateRow(tx, rid, oldRow, newRow, newEnc, rec)
	if err == nil {
		return rid, nil
	}
	if !errors.Is(err, errNoRoom) {
		return RID{}, err
	}
	// Move: a delete and an insert, logged as that pair. A single RecUpdate
	// at the new location would leave the old cell's removal unlogged: if
	// the old page never reached disk before a crash, redo would resurrect
	// the original row beside the moved copy.
	if err := t.deleteLocked(tx, rid, oldRow); err != nil {
		return RID{}, err
	}
	rec = nil
	if tx != nil {
		rec = &wal.Record{Type: wal.RecInsert, Table: t.ID, After: newEnc}
	}
	newRID, err := t.insertRow(tx, nil, newRow, newEnc, rec)
	if errors.Is(err, ErrUnique) {
		// The insert has backed itself out; the delete goes the same way.
		backOut(tx, func() error { _, err := t.insertRow(nil, &rid, oldRow, val.EncodeRow(oldRow), nil); return err })
	}
	return newRID, err
}

// Scan calls fn for every live row in chain order. fn returns false to
// stop early.
func (t *Table) Scan(fn func(rid RID, row []val.Value) (bool, error)) error {
	return t.ScanFrom(t.FirstPage(), nil, fn)
}

// ScanFrom is the one chain scan: from chain page start (FirstPage for the
// whole table, ColState.DeltaStart for the columnar delta tail) to the end,
// in chain order, a cursor page at a time.
func (t *Table) ScanFrom(start store.PageID, snap *mvcc.Snapshot, fn func(rid RID, row []val.Value) (bool, error)) error {
	return t.scanRange(start, 0, snap, fn)
}

// scanRange walks chain pages from start until stop (exclusive; 0 = end of
// chain), calling fn per row the cursor yields.
func (t *Table) scanRange(start, stop store.PageID, snap *mvcc.Snapshot, fn func(rid RID, row []val.Value) (bool, error)) error {
	c := t.OpenCursor(start, snap)
	var rows []PageRow
	for c.next != 0 && c.next != stop {
		var pid store.PageID
		var err error
		if pid, rows, err = c.NextPage(rows); err != nil {
			return err
		}
		for _, r := range rows {
			if cont, err := fn(RID{Page: pid, Slot: r.Slot}, r.Row); err != nil || !cont {
				return err
			}
		}
	}
	return nil
}

// PageRow is one row of a chain page as a Cursor yields it.
type PageRow struct {
	Slot int
	Row  []val.Value
}

// Cursor reads a table's page chain one page per step. Between steps it
// holds a page number and nothing else — no pin, no latch — so a scan that
// stops early, or is suspended between batches, costs the buffer pool
// nothing, and what a reader keeps of the table is at most the page it is
// consuming. The chain may grow behind an open cursor (inserts append at
// the tail); those pages are read when the cursor reaches them, and the
// snapshot rule below decides what is seen of them.
type Cursor struct {
	t    *Table
	next store.PageID
	snap *mvcc.Snapshot
}

// OpenCursor places a cursor before chain page start. A nil snap yields
// every live row; otherwise the version of every row visible to snap, with
// no lock-manager interaction: rows a concurrent writer has touched resolve
// through their version chains, and rows it deleted or moved are resurrected
// from their pre-images.
func (t *Table) OpenCursor(start store.PageID, snap *mvcc.Snapshot) Cursor {
	return Cursor{t: t, next: start, snap: snap}
}

// NextPage reads the cursor's next chain page into dst[:0] — one pool.Get
// and one shared latch hold, under which the cells are decoded and, for a
// snapshot, resolved through the version chains, so heap content and chain
// heads are mutually consistent — and steps past it. It returns the page
// read and its rows in slot order (freshly decoded: the caller may keep
// them); page 0 is the end of the chain.
func (c *Cursor) NextPage(dst []PageRow) (store.PageID, []PageRow, error) {
	dst = dst[:0]
	cur := c.next
	if cur == 0 {
		return 0, dst, nil
	}
	t := c.t
	f, err := t.pool.Get(cur)
	if err != nil {
		return 0, dst, err
	}
	f.RLock()
	for s, n := 0, f.Data.NumSlots(); s < n; s++ {
		cell := f.Data.Cell(s)
		if cell == nil {
			continue
		}
		row, err := val.DecodeRow(cell)
		if err != nil {
			f.RUnlock()
			t.pool.Unpin(f, false)
			return 0, dst, fmt.Errorf("table %s: %v slot %d: %w", t.Name, cur, s, err)
		}
		dst = append(dst, PageRow{s, row})
	}
	if c.snap != nil && !t.versions.Empty() {
		dst = t.applySnapshot(cur, dst, c.snap)
	}
	c.next = store.PageID(f.Data.Next())
	f.RUnlock()
	t.pool.Unpin(f, false)
	return cur, dst, nil
}

// applySnapshot rewrites one page's decoded rows through the version
// chains: a row with a chain resolves to its visible version (possibly
// vanishing), and a chain whose heap cell is gone resurrects the version a
// concurrent delete or move hid. The caller holds the page latch shared.
func (t *Table) applySnapshot(pg store.PageID, items []PageRow, snap *mvcc.Snapshot) []PageRow {
	slots := t.versions.SlotsOnPage(pg)
	if len(slots) == 0 {
		return items
	}
	chained := make(map[int]bool, len(slots))
	for _, s := range slots {
		chained[s] = true
	}
	out := items[:0]
	for _, it := range items {
		if !chained[it.Slot] {
			out = append(out, it)
			continue
		}
		chained[it.Slot] = false
		row, ok := t.versions.Resolve(mvcc.RowID{Page: pg, Slot: it.Slot}, it.Row, true, snap)
		if ok {
			out = append(out, PageRow{it.Slot, copyRow(row)})
		}
	}
	for _, s := range slots {
		if !chained[s] {
			continue
		}
		row, ok := t.versions.Resolve(mvcc.RowID{Page: pg, Slot: s}, nil, false, snap)
		if ok {
			out = append(out, PageRow{s, copyRow(row)})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Slot < out[j].Slot })
	return out
}

// copyRow detaches a row that may alias a shared chain pre-image.
func copyRow(r []val.Value) []val.Value { return append([]val.Value(nil), r...) }

// Fetch is the one row read: the version of the row at rid visible to snap,
// or with a nil snap its newest content. ok is false when there is no such
// row — the cell is gone, or snap does not see it — which is not an error:
// whoever named rid (an index entry, an earlier scan) may be out of date.
func (t *Table) Fetch(rid RID, snap *mvcc.Snapshot) ([]val.Value, bool, error) {
	f, err := t.pool.Get(rid.Page)
	if err != nil {
		return nil, false, err
	}
	defer t.pool.Unpin(f, false)
	f.RLock()
	defer f.RUnlock()
	var row []val.Value
	exists := false
	if cell := f.Data.Cell(rid.Slot); cell != nil {
		if row, err = val.DecodeRow(cell); err != nil {
			return nil, false, err
		}
		exists = true
	}
	if snap != nil && !t.versions.Empty() {
		row, exists = t.versions.Resolve(mvcc.RowID{Page: rid.Page, Slot: rid.Slot}, row, exists, snap)
		if exists {
			row = copyRow(row)
		}
	}
	return row, exists, nil
}

// VersionsEmpty reports whether the table has no live version chains —
// the fast path that makes snapshot scans (and the columnar read path)
// chain-free when no writer is in flight and vacuum has caught up.
func (t *Table) VersionsEmpty() bool { return t.versions.Empty() }

// VersionCount reports the number of live version-chain entries.
func (t *Table) VersionCount() int64 { return t.versions.Count() }

// VersionBytes reports the approximate memory held by version chains.
func (t *Table) VersionBytes() int64 { return t.versions.Bytes() }

// VersionRIDs lists every heap location with a live chain; index scans
// under a snapshot probe these for rows the index no longer points at.
func (t *Table) VersionRIDs() []RID {
	ids := t.versions.RowIDs()
	out := make([]RID, len(ids))
	for i, id := range ids {
		out[i] = RID{Page: id.Page, Slot: id.Slot}
	}
	return out
}

// VacuumVersions reclaims version entries no live or future snapshot can
// reach (see mvcc.Store.Vacuum). active reports writer liveness.
func (t *Table) VacuumVersions(threshold uint64, active func(txn uint64) bool) int {
	return t.versions.Vacuum(threshold, active)
}

// AddIndex creates a new index and populates it from existing rows,
// (re)building statistics for the key columns as CREATE INDEX does (§3.2).
// The caller keeps writers out for the duration (the table's exclusive
// lock, or having the table to itself).
func (t *Table) AddIndex(id uint64, name string, cols []int, unique bool) (*Index, error) {
	return t.AddIndexIn(t.file, id, name, cols, unique)
}

// AddIndexIn builds the index in a specific file. The Index Consultant
// (§5) materializes its virtual indexes in the temporary file so they
// never touch the database.
func (t *Table) AddIndexIn(file store.FileID, id uint64, name string, cols []int, unique bool) (*Index, error) {
	tree, err := btree.Create(t.pool, t.st, file, id)
	if err != nil {
		return nil, err
	}
	ix := &Index{ID: id, Name: name, Cols: cols, Unique: unique, Tree: tree}
	builders := make([]*stats.Builder, len(cols))
	for i, c := range cols {
		builders[i] = stats.NewBuilder(t.Columns[c].Kind)
	}
	err = t.Scan(func(rid RID, row []val.Value) (bool, error) {
		for i, c := range cols {
			builders[i].Add(row[c])
		}
		return true, addKey(ix, ix.Key(row), rid, true)
	})
	if err != nil {
		btree.Drop(t.pool, t.st, tree.Root(), id)
		return nil, err
	}
	for i, c := range cols {
		t.Hists[c].Replace(builders[i].Build(32))
	}
	// Published by replacing the slice, never by changing it in place: a
	// reader may be walking the old one.
	t.ixMu.Lock()
	t.Indexes = append(slices.Clip(t.Indexes), ix)
	t.ixMu.Unlock()
	return ix, nil
}

// IndexList returns the table's indexes, in a slice nothing changes in
// place.
func (t *Table) IndexList() []*Index {
	t.ixMu.RLock()
	defer t.ixMu.RUnlock()
	return t.Indexes
}

// RemoveIndex detaches an index (DROP INDEX, and the Index Consultant's
// virtual indexes); it reports whether the index existed. The index's
// pages are abandoned to their file (temp-file pages vanish at restart): a
// statement planned a moment ago may still be reading them.
func (t *Table) RemoveIndex(name string) bool {
	t.ixMu.Lock()
	defer t.ixMu.Unlock()
	for i, ix := range t.Indexes {
		if ix.Name == name {
			t.Indexes = append(t.Indexes[:i:i], t.Indexes[i+1:]...)
			return true
		}
	}
	return false
}

// IndexByName finds an index.
func (t *Table) IndexByName(name string) *Index {
	for _, ix := range t.IndexList() {
		if ix.Name == name {
			return ix
		}
	}
	return nil
}

// RebuildStatistics recomputes every column histogram by scanning the
// table (CREATE STATISTICS / LOAD TABLE, §3.2). String columns also
// collect whole-value and per-word statistics.
func (t *Table) RebuildStatistics() error {
	builders := make([]*stats.Builder, len(t.Columns))
	for i, c := range t.Columns {
		builders[i] = stats.NewBuilder(c.Kind)
	}
	strCounts := make([]map[string]int64, len(t.Columns))
	for i, c := range t.Columns {
		if c.Kind == val.KStr {
			strCounts[i] = map[string]int64{}
		}
	}
	total := int64(0)
	err := t.Scan(func(_ RID, row []val.Value) (bool, error) {
		total++
		for i := range t.Columns {
			builders[i].Add(row[i])
			if m := strCounts[i]; m != nil && row[i].Kind == val.KStr && len(m) < 10000 {
				m[row[i].S]++
			}
		}
		return true, nil
	})
	if err != nil {
		return err
	}
	for i := range t.Columns {
		t.Hists[i].Replace(builders[i].Build(32))
		if m := strCounts[i]; m != nil && total > 0 {
			// In key order, not map order: which buckets a full set evicts
			// is then the same on every build of the same rows.
			ss := stats.NewStringStats()
			words := map[string]int64{}
			for _, s := range slices.Sorted(maps.Keys(m)) {
				c := m[s]
				ss.Observe(stats.OpEq, s, float64(c)/float64(total))
				for _, w := range val.Words(s) {
					words[w] += c
				}
			}
			for _, w := range slices.Sorted(maps.Keys(words)) {
				ss.ObserveWord(w, float64(words[w])/float64(total))
			}
			t.StrStats[i].Replace(ss)
		}
	}
	return nil
}
