// Schema changes and the checkpoint that makes them durable. The catalog is
// not logged: a change to what it describes becomes durable when a
// checkpoint writes the catalog and the pages it points at. So every
// statement that makes one, and the background reorganizer, goes through
// DB.schemaChange, which ends in DB.Checkpoint before the acknowledgement;
// and Checkpoint derives every catalog entry from the live table (metaOf,
// the inverse of attachTable), so no second copy of the schema is kept.
package core

import (
	"context"
	"errors"
	"fmt"
	"time"

	"anywheredb/internal/btree"
	"anywheredb/internal/catalog"
	"anywheredb/internal/dtt"
	"anywheredb/internal/flightrec"
	"anywheredb/internal/lock"
	"anywheredb/internal/page"
	"anywheredb/internal/sqlparse"
	"anywheredb/internal/stats"
	"anywheredb/internal/store"
	"anywheredb/internal/table"
	"anywheredb/internal/txn"
	"anywheredb/internal/wal"
)

// stmtTxn is the transaction a write statement runs in, as autoTxn opened
// it; end closes the statement's use of it.
type stmtTxn struct {
	tx    *txn.Txn
	sp    *flightrec.Span
	auto  bool // tx is the statement's own autocommit transaction
	depth int  // tx's undo depth before the statement
}

// autoTxn returns the transaction a write statement runs in: inside an
// explicit transaction (cur) it is that transaction; otherwise one begun in
// own that end commits (or rolls back). Either way the transaction carries
// the statement's context ctx and wait tally w until end: its lock and row
// waits observe ctx, and its waits, the commit's (or rollback's) flush
// included, are added to w. The commit's time is charged to span sp.
func (db *DB) autoTxn(ctx context.Context, cur, own *txn.Txn, sp *flightrec.Span, w *txn.Waits) stmtTxn {
	st := stmtTxn{tx: cur, sp: sp}
	if cur == nil {
		st.tx, st.auto = db.txns.BeginIn(own, false), true
	}
	st.depth = st.tx.UndoDepth()
	st.tx.SetStatement(ctx, w)
	return st
}

// end finishes the statement's writes with err, its outcome so far: it
// commits an autocommit transaction when err is nil and rolls it back
// otherwise, and returns err or the commit's error. A statement that fails
// inside an explicit transaction is taken back whole, and the transaction
// goes on as it stood before the statement.
func (st stmtTxn) end(err error) error {
	if !st.auto {
		for err != nil && st.tx.UndoDepth() > st.depth {
			if uerr := st.tx.UndoLast(0); uerr != nil {
				err = errors.Join(err, uerr)
			}
		}
		st.tx.SetStatement(nil, nil)
		return err
	}
	var commitStart time.Time
	if st.sp != nil {
		commitStart = time.Now()
	}
	if err != nil {
		st.tx.Rollback()
	} else {
		err = st.tx.Commit()
	}
	if st.sp != nil {
		st.sp.AddPhase(flightrec.PhaseCommit, time.Since(commitStart).Microseconds())
	}
	return err
}

// schemaChange is the one path a schema change takes: a transaction, the
// named table's exclusive lock if the change needs writers kept out, the
// change to the live objects, commit, checkpoint. name is empty for a
// change that concerns no existing table. Writers declare intent (IX) on a
// table before they read its index list or touch its heap, so under the
// exclusive lock an index build scans exactly the committed rows and no
// writer can miss the new index; snapshot readers take no locks and keep
// reading the objects they resolved. A crash at the crashpoint, between the
// committed change and the checkpoint, must lose the change whole.
func (db *DB) schemaChange(ctx context.Context, cur *txn.Txn, sp *flightrec.Span, w *txn.Waits, name string, exclusive bool,
	change func(tx *txn.Txn, tbl *table.Table) error) error {
	notFound := fmt.Errorf("core: table %q not found", name)
	tbl, ok := db.Table(name)
	if name != "" && !ok {
		return notFound
	}
	st := db.autoTxn(ctx, cur, new(txn.Txn), sp, w)
	tx := st.tx
	var err error
	if exclusive {
		err = tx.Lock(tbl.ID, lock.Exclusive)
		if now, _ := db.Table(name); err == nil && now != tbl {
			err = notFound // dropped while we waited
		}
	}
	if err == nil {
		err = change(tx, tbl)
		db.SchemaChanged()
	}
	if err = st.end(err); err != nil {
		return err
	}
	if db.inj != nil {
		if err := db.inj.Crashpoint("ddl.before_checkpoint"); err != nil {
			return err
		}
	}
	return db.Checkpoint()
}

// SchemaChanged tells the plan cache that tables, indexes, storage layouts or
// statistics are no longer what templates compiled so far were bound to:
// none of them is served again. schemaChange calls it after every change; it
// is exported for the Index Consultant, which hangs virtual indexes on live
// tables beside this path.
func (db *DB) SchemaChanged() { db.schemaVersion.Add(1) }

// ddl runs a statement's schema change on the connection's transaction.
func (c *Conn) ddl(name string, exclusive bool, change func(tx *txn.Txn, tbl *table.Table) error) error {
	return c.db.schemaChange(c.stmtCtx, c.tx, c.curSpan, c.curWaits, name, exclusive, change)
}

func (c *Conn) createTable(s *sqlparse.CreateTable) error {
	db := c.db
	return c.ddl("", false, func(*txn.Txn, *table.Table) error {
		db.mu.Lock()
		defer db.mu.Unlock()
		if _, exists := db.tables[s.Name]; exists {
			return fmt.Errorf("core: table %q already exists", s.Name)
		}
		cols := make([]table.Column, len(s.Cols))
		for i, cd := range s.Cols {
			cols[i] = table.Column{Name: cd.Name, Kind: cd.Kind}
		}
		tbl, err := table.Create(db.pool, db.st, store.MainFile, db.cat.NextID(), s.Name, cols)
		if err != nil {
			return err
		}
		db.adopt(tbl)
		return nil
	})
}

func (c *Conn) dropTable(s *sqlparse.DropTable) error {
	db := c.db
	return c.ddl(s.Name, true, func(*txn.Txn, *table.Table) error {
		db.mu.Lock()
		delete(db.tables, s.Name)
		db.mu.Unlock()
		return nil
	})
}

func (c *Conn) createIndex(s *sqlparse.CreateIndex) error {
	db := c.db
	return c.ddl(s.Table, true, func(_ *txn.Txn, tbl *table.Table) error {
		if tbl.IndexByName(s.Name) != nil {
			return fmt.Errorf("core: index %q already exists", s.Name)
		}
		cols := make([]int, len(s.Cols))
		for i, name := range s.Cols {
			if cols[i] = tbl.ColumnIndex(name); cols[i] < 0 {
				return fmt.Errorf("core: column %q not found", name)
			}
		}
		if _, err := tbl.AddIndex(db.cat.NextID(), s.Name, cols, s.Unique); err != nil {
			return err
		}
		// Index creation grows the database; the cache governor reacts with
		// its fast sampling period (§2).
		db.cacheG.NoteDBGrowth()
		return nil
	})
}

// dropIndex detaches the index; its pages are abandoned to the file, as a
// dropped table's are.
func (c *Conn) dropIndex(s *sqlparse.DropIndex) error {
	return c.ddl(s.Table, true, func(_ *txn.Txn, tbl *table.Table) error {
		if !tbl.RemoveIndex(s.Name) {
			return fmt.Errorf("core: index %q not found", s.Name)
		}
		return nil
	})
}

func (c *Conn) createStatistics(s *sqlparse.CreateStatistics) error {
	return c.ddl(s.Table, false, func(_ *txn.Txn, tbl *table.Table) error {
		return tbl.RebuildStatistics()
	})
}

// errZeroReadCost refuses a calibration that priced a read at nothing, as
// a device that charges no time (the default RAM device) does: under that
// model every plan's I/O would be free.
var errZeroReadCost = errors.New("core: CALIBRATE DATABASE measured a zero read cost; the cost model is unchanged")

// calibrate runs CALIBRATE DATABASE: the read DTT curve is measured from
// the device and the write curve approximated from it; the model is stored
// in the catalog (§4.2). A read curve with a point at or below zero is
// refused before anything is installed. The curve need not rise with the
// band: sampling noise dips a real disk's curve.
func (c *Conn) calibrate() error {
	db := c.db
	return c.ddl("", false, func(*txn.Txn, *table.Table) error {
		m := dtt.Calibrate(db.st.Device(), db.clk, dtt.CalibrateConfig{Seed: 1})
		for _, cv := range m.Curves() {
			for _, p := range cv.Points {
				if cv.Op == dtt.Read && p.Micros <= 0 {
					return fmt.Errorf("%w (band %d)", errZeroReadCost, p.Band)
				}
			}
		}
		db.mu.Lock()
		db.dttMod = m
		db.mu.Unlock()
		db.setOptEnv(m)
		db.cat.SetDTT(m.Encode())
		return nil
	})
}

// storeLayout is the change behind ALTER TABLE ... STORE, LOAD ... STORE
// COLUMNAR and the reorganizer's promotion: drop the table's columnar
// snapshot (reclaiming its persisted chain) and, for columnar, build and
// persist a new one. Either way the heap stays authoritative.
func storeLayout(columnar bool) func(tx *txn.Txn, tbl *table.Table) error {
	return func(tx *txn.Txn, tbl *table.Table) error {
		tbl.DropColumnar(tx)
		if !columnar {
			return nil
		}
		_, err := tbl.BuildColumnar(tx, true)
		return err
	}
}

// adopt registers a live table with the database. The caller holds db.mu,
// or is Open.
func (db *DB) adopt(tbl *table.Table) {
	tbl.OnColsegDrop = func() {
		if db.colInvalid != nil {
			db.colInvalid.Inc()
		}
	}
	db.tables[tbl.Name] = tbl
}

// metaOf describes a live table for the catalog; attachTable is its
// inverse.
func (db *DB) metaOf(tbl *table.Table) *catalog.TableMeta {
	tm := &catalog.TableMeta{ID: tbl.ID, Name: tbl.Name, First: tbl.FirstPage()}
	for _, c := range tbl.Columns {
		tm.Columns = append(tm.Columns, catalog.ColumnMeta{Name: c.Name, Kind: c.Kind})
	}
	tm.Hists = make([][]byte, len(tbl.Hists))
	for i, h := range tbl.Hists {
		if h != nil {
			tm.Hists[i] = h.Encode()
		}
	}
	// Only a persisted snapshot survives a restart, so anything else (memory
	// only, or invalidated since it was built) records as row storage.
	if cs := tbl.Columnar(); cs != nil && cs.SegHead != 0 {
		tm.Storage, tm.SegHead, tm.SegDeltaStart = catalog.StorageColumnar, cs.SegHead, cs.DeltaStart
	}
	for _, ix := range tbl.IndexList() {
		tm.Indexes = append(tm.Indexes, catalog.IndexMeta{
			ID: ix.ID, Name: ix.Name, Cols: ix.Cols, Unique: ix.Unique, Root: ix.Tree.Root(),
		})
	}
	if db.opts.ReplicaMode {
		// A replica attaches no trees (see attachTable): the definitions it
		// was shipped stay in the catalog for a later promotion to rebuild.
		if old, ok := db.cat.GetTable(tbl.Name); ok {
			tm.Indexes = old.Indexes
		}
	}
	return tm
}

// attachTable brings a catalog entry up as a live table. stale says the
// heaps may have moved on from the index trees (recovery replayed the log,
// or the directory is a promoted replica's): trees are not logged, so each
// is dropped and rebuilt from a heap scan. noColumnar says recovery
// invalidated the table's columnar snapshot.
func (db *DB) attachTable(tm *catalog.TableMeta, stale, noColumnar bool) error {
	tbl, err := db.attachHeap(tm)
	if err != nil {
		return err
	}
	// A replica attaches no index trees: it must never allocate pages in
	// main.db (a btree split would collide with primary-assigned ids), and
	// the primary's tree pages go stale with the first applied change.
	for _, im := range tm.Indexes {
		switch {
		case db.opts.ReplicaMode:
		case stale:
			btree.Drop(db.pool, db.st, im.Root, im.ID)
			if _, err := tbl.AddIndex(im.ID, im.Name, im.Cols, im.Unique); err != nil {
				return fmt.Errorf("table %s: rebuild index %s: %w", tm.Name, im.Name, err)
			}
		default:
			tbl.Indexes = append(tbl.Indexes, &table.Index{
				ID: im.ID, Name: im.Name, Cols: im.Cols, Unique: im.Unique,
				Tree: btree.Attach(db.pool, db.st, im.Root, im.ID),
			})
		}
	}
	if tm.Storage == catalog.StorageColumnar && tm.SegHead != 0 && !noColumnar {
		// Any validation failure (bad CRC, broken chain, stale boundary)
		// degrades to row storage, which the next checkpoint records.
		_ = tbl.AttachColumnar(tm.SegHead, tm.SegDeltaStart)
	}
	db.adopt(tbl)
	return nil
}

// attachHeap opens the heap of a table the catalog describes, with the
// statistics the catalog kept for it.
func (db *DB) attachHeap(tm *catalog.TableMeta) (*table.Table, error) {
	cols := make([]table.Column, len(tm.Columns))
	for i, c := range tm.Columns {
		cols[i] = table.Column{Name: c.Name, Kind: c.Kind}
	}
	tbl, err := table.Attach(db.pool, db.st, tm.ID, tm.Name, cols, tm.First)
	if err != nil {
		return nil, err
	}
	for i, enc := range tm.Hists {
		if enc == nil || i >= len(tbl.Hists) {
			continue
		}
		if h, err := stats.DecodeHistogram(enc); err == nil {
			tbl.Hists[i] = h
		}
	}
	return tbl, nil
}

// Checkpoint writes every dirty page and the catalog, as derived from the
// live tables, and syncs; that much it always does. It then truncates the
// log — unless a transaction that has logged a record was open when the
// last flush began, or logged its first while it ran: the log is then the
// only undo (or redo) those records have, and it grows until a later
// checkpoint finds the engine quiet from start to end.
func (db *DB) Checkpoint() error {
	db.ckptMu.Lock()
	defer db.ckptMu.Unlock()
	db.mu.RLock()
	metas := make([]*catalog.TableMeta, 0, len(db.tables))
	for _, tbl := range db.tables {
		metas = append(metas, db.metaOf(tbl))
	}
	db.mu.RUnlock()
	// The pages the catalog will point at go first (a new table's first
	// page, an index's nodes, a segment chain): the other way round, a crash
	// in between leaves a durable entry over whatever the file held there.
	if err := db.pool.FlushAll(); err != nil {
		return err
	}
	db.cat.SetTables(metas)
	if err := db.cat.Save(db.logCatalogChain); err != nil {
		return err
	}
	// Marked after the catalog's own transaction has settled: the flush
	// below writes every page a record logged before the mark describes.
	mark := db.txns.QuietMark()
	if err := db.pool.FlushAll(); err != nil {
		return err
	}
	if err := db.st.Sync(); err != nil {
		return err
	}
	return db.txns.IfQuiet(mark, func() error {
		db.log.Append(&wal.Record{Type: wal.RecCheckpoint})
		if err := db.log.Flush(); err != nil {
			return err
		}
		if db.inj != nil {
			if err := db.inj.Crashpoint("checkpoint.before_truncate"); err != nil {
				return err
			}
		}
		return db.log.Truncate()
	})
}

// logCatalogChain makes a multi-page catalog land atomically: its page
// images go into the log under a transaction of their own, whose commit is
// the flush, and recovery restores them all or not at all.
func (db *DB) logCatalogChain(ids []store.PageID, images []page.Buf) error {
	tx := db.txns.Begin()
	for i, id := range ids {
		tx.Log(&wal.Record{Type: wal.RecPageImage, Page: id, After: images[i]})
	}
	return tx.Commit()
}
