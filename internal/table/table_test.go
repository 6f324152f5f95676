package table

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"anywheredb/internal/buffer"
	"anywheredb/internal/stats"
	"anywheredb/internal/store"
	"anywheredb/internal/txn"
	"anywheredb/internal/val"
	"anywheredb/internal/wal"
)

func setup(t *testing.T) (*Table, *buffer.Pool, *store.Store, *txn.Manager) {
	t.Helper()
	st, err := store.Open(store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	pool := buffer.New(st, 8, 256, 512)
	log, _ := wal.Open("")
	tm := txn.NewManager(log, nil)
	tbl, err := Create(pool, st, store.MainFile, 100, "emp", []Column{
		{Name: "id", Kind: val.KInt},
		{Name: "name", Kind: val.KStr},
		{Name: "salary", Kind: val.KDouble},
	})
	if err != nil {
		t.Fatal(err)
	}
	return tbl, pool, st, tm
}

func row(id int64, name string, sal float64) []val.Value {
	return []val.Value{val.NewInt(id), val.NewStr(name), val.NewDouble(sal)}
}

func TestInsertGetScan(t *testing.T) {
	tbl, _, _, tm := setup(t)
	tx := tm.Begin()
	var rids []RID
	for i := 0; i < 500; i++ {
		rid, err := tbl.Insert(tx, row(int64(i), fmt.Sprintf("emp%d", i), float64(i)*100))
		if err != nil {
			t.Fatal(err)
		}
		rids = append(rids, rid)
	}
	tx.Commit()

	if tbl.RowCount() != 500 {
		t.Fatalf("rows %d", tbl.RowCount())
	}
	if tbl.PageCount() < 2 {
		t.Fatalf("pages %d, expected chain growth", tbl.PageCount())
	}
	got, err := tbl.Get(rids[123])
	if err != nil {
		t.Fatal(err)
	}
	if got[0].I != 123 || got[1].S != "emp123" {
		t.Fatalf("row: %v", got)
	}

	seen := 0
	err = tbl.Scan(func(rid RID, r []val.Value) (bool, error) {
		seen++
		return true, nil
	})
	if err != nil || seen != 500 {
		t.Fatalf("scan saw %d err=%v", seen, err)
	}
}

func TestScanEarlyStop(t *testing.T) {
	tbl, _, _, tm := setup(t)
	tx := tm.Begin()
	for i := 0; i < 50; i++ {
		tbl.Insert(tx, row(int64(i), "x", 1))
	}
	tx.Commit()
	seen := 0
	tbl.Scan(func(RID, []val.Value) (bool, error) {
		seen++
		return seen < 10, nil
	})
	if seen != 10 {
		t.Fatalf("early stop saw %d", seen)
	}
}

func TestDeleteAndUpdate(t *testing.T) {
	tbl, _, _, tm := setup(t)
	tx := tm.Begin()
	rid, _ := tbl.Insert(tx, row(1, "alice", 100))
	rid2, _ := tbl.Insert(tx, row(2, "bob", 200))
	tx.Commit()

	tx = tm.Begin()
	if err := tbl.Delete(tx, rid); err != nil {
		t.Fatal(err)
	}
	if _, err := tbl.Get(rid); !errors.Is(err, ErrNotFound) {
		t.Fatalf("deleted row readable: %v", err)
	}
	newRID, err := tbl.Update(tx, rid2, row(2, "robert", 250))
	if err != nil {
		t.Fatal(err)
	}
	got, _ := tbl.Get(newRID)
	if got[1].S != "robert" || got[2].F != 250 {
		t.Fatalf("updated row %v", got)
	}
	tx.Commit()
	if tbl.RowCount() != 1 {
		t.Fatalf("rows %d", tbl.RowCount())
	}
}

func TestRollbackRestoresRows(t *testing.T) {
	tbl, _, _, tm := setup(t)
	tx := tm.Begin()
	ridKeep, _ := tbl.Insert(tx, row(1, "keep", 1))
	tx.Commit()

	tx = tm.Begin()
	tbl.Insert(tx, row(2, "phantom", 2))
	tbl.Delete(tx, ridKeep)
	tx.Rollback()

	if tbl.RowCount() != 1 {
		t.Fatalf("rows after rollback %d, want 1", tbl.RowCount())
	}
	got, err := tbl.Get(ridKeep)
	if err != nil || got[1].S != "keep" {
		t.Fatalf("original row lost: %v %v", got, err)
	}
	// The phantom must be gone from scans.
	tbl.Scan(func(_ RID, r []val.Value) (bool, error) {
		if r[1].S == "phantom" {
			t.Fatal("rolled-back insert visible")
		}
		return true, nil
	})
}

func TestRollbackUpdate(t *testing.T) {
	tbl, _, _, tm := setup(t)
	tx := tm.Begin()
	rid, _ := tbl.Insert(tx, row(1, "orig", 100))
	tx.Commit()

	tx = tm.Begin()
	tbl.Update(tx, rid, row(1, "changed", 999))
	tx.Rollback()

	got, err := tbl.Get(rid)
	if err != nil || got[1].S != "orig" || got[2].F != 100 {
		t.Fatalf("update not rolled back: %v %v", got, err)
	}
}

// TestInsertLeavesUnsettledDeleteAlone interleaves a delete that is later
// rolled back with another transaction's insert into the same page. The
// rollback restores the row at exactly its old RID, so the insert may take
// neither the deleted row's slot nor the bytes it gave up.
func TestInsertLeavesUnsettledDeleteAlone(t *testing.T) {
	for _, size := range []int{6, 1000} { // small rows contend for the slot, page-filling ones for the space
		tbl, _, _, tm := setup(t)
		pad := strings.Repeat("v", size)
		tx := tm.Begin()
		var rids []RID
		for i := int64(0); i < 4; i++ {
			rid, err := tbl.Insert(tx, row(i, pad, 0))
			if err != nil {
				t.Fatal(err)
			}
			rids = append(rids, rid)
		}
		tx.Commit()
		victim := rids[1]

		deleter, inserter := tm.Begin(), tm.Begin()
		if err := tbl.Delete(deleter, victim); err != nil {
			t.Fatal(err)
		}
		rid, err := tbl.Insert(inserter, row(9, pad[:size*9/10], 0))
		if err != nil {
			t.Fatal(err)
		}
		if rid == victim {
			t.Fatalf("size %d: insert reused %v, the slot of a row whose delete has not settled", size, victim)
		}
		if err := deleter.Rollback(); err != nil {
			t.Fatalf("size %d: rollback of the delete: %v", size, err)
		}
		if err := inserter.Commit(); err != nil {
			t.Fatal(err)
		}
		if got, err := tbl.Get(victim); err != nil || got[0].I != 1 {
			t.Fatalf("size %d: rolled-back delete did not restore its row: %v %v", size, got, err)
		}
		if got, err := tbl.Get(rid); err != nil || got[0].I != 9 {
			t.Fatalf("size %d: committed insert lost: %v %v", size, got, err)
		}
		if tbl.RowCount() != 5 {
			t.Fatalf("size %d: rows %d, want 5", size, tbl.RowCount())
		}

		// Once a delete has settled its slot is free again (where the page
		// is still the chain's tail: inserts go nowhere else).
		if rid.Page == victim.Page {
			tx = tm.Begin()
			tbl.Delete(tx, victim)
			tx.Commit()
			tx = tm.Begin()
			if rid, _ := tbl.Insert(tx, row(10, pad, 0)); rid != victim {
				t.Fatalf("size %d: insert went to %v, not the settled delete's slot %v", size, rid, victim)
			}
			tx.Commit()
		}
	}
}

// TestGrowLeavesUnsettledWritesAlone is the same interleaving with an
// in-place update as the other transaction: whatever a delete, a moving
// update or a shrinking update gave up in a nearly full page is not there
// for a neighbour to grow into until the writer settles. The neighbour moves
// instead, and the writer's rollback finds its row's place as it left it.
func TestGrowLeavesUnsettledWritesAlone(t *testing.T) {
	pad := strings.Repeat("v", 900) // four rows fill a page to within 400 bytes
	giveUp := map[string]func(tbl *Table, tx *txn.Txn, rid RID) error{
		"delete": func(tbl *Table, tx *txn.Txn, rid RID) error { return tbl.Delete(tx, rid) },
		"move": func(tbl *Table, tx *txn.Txn, rid RID) error {
			moved, err := tbl.Update(tx, rid, row(1, strings.Repeat("m", 3000), 0))
			if err == nil && moved.Page == rid.Page {
				err = fmt.Errorf("update to 3000 bytes stayed in page %v", rid.Page)
			}
			return err
		},
		"shrink": func(tbl *Table, tx *txn.Txn, rid RID) error {
			_, err := tbl.Update(tx, rid, row(1, "s", 0))
			return err
		},
	}
	for name, write := range giveUp {
		tbl, _, _, tm := setup(t)
		tx := tm.Begin()
		var rids []RID
		for i := int64(0); i < 4; i++ {
			rid, err := tbl.Insert(tx, row(i, pad, 0))
			if err != nil {
				t.Fatal(err)
			}
			rids = append(rids, rid)
		}
		tx.Commit()
		victim, neighbour := rids[1], rids[2]

		writer, grower := tm.Begin(), tm.Begin()
		if err := write(tbl, writer, victim); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		grown, err := tbl.Update(grower, neighbour, row(2, pad+pad[:600], 0))
		if err != nil {
			t.Fatalf("%s: growing the neighbour: %v", name, err)
		}
		if grown.Page == victim.Page {
			t.Fatalf("%s: neighbour grew in place into bytes the writer's rollback needs", name)
		}
		if err := writer.Rollback(); err != nil {
			t.Fatalf("%s: rollback: %v", name, err)
		}
		if err := grower.Commit(); err != nil {
			t.Fatal(err)
		}
		if got, err := tbl.Get(victim); err != nil || got[0].I != 1 || got[1].S != pad {
			t.Fatalf("%s: rollback did not restore the row at %v: %v", name, victim, err)
		}
		if got, err := tbl.Get(grown); err != nil || got[0].I != 2 || len(got[1].S) != 1500 {
			t.Fatalf("%s: committed update lost: %v", name, err)
		}
		if tbl.RowCount() != 4 {
			t.Fatalf("%s: rows %d, want 4", name, tbl.RowCount())
		}
	}

	// What a transaction gave up is its own to take back: shrink, then grow
	// again past what the page has free, and the row stays where it is.
	tbl, _, _, tm := setup(t)
	tx := tm.Begin()
	var rid RID
	for i := int64(0); i < 4; i++ {
		rid, _ = tbl.Insert(tx, row(i, pad, 0))
	}
	tx.Commit()
	tx = tm.Begin()
	tbl.Update(tx, rid, row(3, "s", 0))
	if back, err := tbl.Update(tx, rid, row(3, pad, 0)); err != nil || back != rid {
		t.Fatalf("regrowing a row its own transaction shrank: %v, %v (was %v)", back, err, rid)
	}
	if err := tx.Rollback(); err != nil {
		t.Fatal(err)
	}
}

func TestHistogramsMaintained(t *testing.T) {
	tbl, _, _, tm := setup(t)
	tx := tm.Begin()
	for i := 0; i < 1000; i++ {
		tbl.Insert(tx, row(int64(i%10), "n", 1))
	}
	tx.Commit()
	// Column 0 has 10 distinct values, each 10%.
	sel := tbl.Hists[0].SelEq(val.NewInt(3))
	if sel < 0.05 || sel > 0.2 {
		t.Fatalf("histogram selectivity %g, want ~0.1", sel)
	}
	if tbl.Hists[0].Total() != 1000 {
		t.Fatalf("histogram total %g", tbl.Hists[0].Total())
	}
}

func TestIndexMaintenance(t *testing.T) {
	tbl, _, _, tm := setup(t)
	tx := tm.Begin()
	for i := 0; i < 200; i++ {
		tbl.Insert(tx, row(int64(i), fmt.Sprintf("n%03d", i), float64(i)))
	}
	tx.Commit()

	ix, err := tbl.AddIndex(200, "emp_id", []int{0}, true)
	if err != nil {
		t.Fatal(err)
	}
	if ix.Tree.Stats.Entries.Load() != 200 {
		t.Fatalf("index entries %d", ix.Tree.Stats.Entries.Load())
	}
	// Probe through the index.
	key := ix.Key(row(57, "", 0))
	rb, found, err := ix.Tree.Search(key)
	if err != nil || !found {
		t.Fatal("index probe failed")
	}
	got, err := tbl.Get(RIDFromBytes(rb))
	if err != nil || got[0].I != 57 {
		t.Fatalf("index probe row %v %v", got, err)
	}

	// New inserts maintain the index.
	tx = tm.Begin()
	tbl.Insert(tx, row(999, "new", 1))
	tx.Commit()
	if _, found, _ := ix.Tree.Search(ix.Key(row(999, "", 0))); !found {
		t.Fatal("index not maintained on insert")
	}

	// Unique violation.
	tx = tm.Begin()
	if _, err := tbl.Insert(tx, row(999, "dup", 1)); !errors.Is(err, ErrUnique) {
		t.Fatalf("unique violation not detected: %v", err)
	}
	tx.Rollback()

	// Delete maintains the index.
	tx = tm.Begin()
	rb, _, _ = ix.Tree.Search(ix.Key(row(57, "", 0)))
	tbl.Delete(tx, RIDFromBytes(rb))
	tx.Commit()
	if _, found, _ := ix.Tree.Search(ix.Key(row(57, "", 0))); found {
		t.Fatal("index entry survives delete")
	}

	// Update that changes the key maintains the index.
	tx = tm.Begin()
	rb, _, _ = ix.Tree.Search(ix.Key(row(58, "", 0)))
	tbl.Update(tx, RIDFromBytes(rb), row(5800, "moved", 58))
	tx.Commit()
	if _, found, _ := ix.Tree.Search(ix.Key(row(58, "", 0))); found {
		t.Fatal("old key survives update")
	}
	if _, found, _ := ix.Tree.Search(ix.Key(row(5800, "", 0))); !found {
		t.Fatal("new key missing after update")
	}
}

// TestUniqueRefusalBacksOut: an insert, an in-place update and a moving
// update that would give a unique index a key it holds each fail with
// ErrUnique and leave the heap, the row count and the index as they were,
// under a transaction, which goes on, and without one.
func TestUniqueRefusalBacksOut(t *testing.T) {
	for _, commit := range []bool{true, false} {
		tbl, _, _, tm := setup(t)
		pad := strings.Repeat("p", 1000) // three rows to a page
		tx := tm.Begin()
		var rids []RID
		for i := int64(1); i <= 3; i++ {
			rid, err := tbl.Insert(tx, row(i, pad, 0))
			if err != nil {
				t.Fatal(err)
			}
			rids = append(rids, rid)
		}
		tx.Commit()
		if _, err := tbl.AddIndex(199, "emp_salary", []int{2}, true); !errors.Is(err, ErrUnique) || len(tbl.IndexList()) != 0 {
			t.Fatalf("a unique index over three equal salaries: %v, %d indexes", err, len(tbl.IndexList()))
		}
		ix, err := tbl.AddIndex(200, "emp_id", []int{0}, true)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tbl.AddIndex(201, "emp_salary", []int{2}, false); err != nil {
			t.Fatal(err)
		}
		check := func(when string) {
			t.Helper()
			n := 0
			tbl.Scan(func(rid RID, r []val.Value) (bool, error) {
				if n++; rid != rids[r[0].I-1] || r[1].S != pad {
					t.Fatalf("%s: row %v at %v", when, r[0], rid)
				}
				return true, nil
			})
			if n != 3 || tbl.RowCount() != 3 {
				t.Fatalf("%s: a scan sees %d rows, RowCount says %d; want 3", when, n, tbl.RowCount())
			}
			for _, x := range tbl.Indexes {
				if got := x.Tree.Stats.Entries.Load(); got != 3 {
					t.Fatalf("%s: index %s holds %d entries", when, x.Name, got)
				}
			}
			for i, rid := range rids {
				if rb, ok, _ := ix.Tree.Search(ix.Key(row(int64(i+1), "", 0))); !ok || RIDFromBytes(rb) != rid {
					t.Fatalf("%s: id %d is not at %v in the index", when, i+1, rid)
				}
			}
		}
		if _, err := tbl.Insert(nil, row(1, "bulk", 0)); !errors.Is(err, ErrUnique) {
			t.Fatalf("bulk insert of a held key: %v", err)
		}
		check("bulk insert")
		tx = tm.Begin()
		for name, write := range map[string]func() error{
			"insert": func() error { _, err := tbl.Insert(tx, row(2, "dup", 0)); return err },
			"update": func() error { _, err := tbl.Update(tx, rids[1], row(1, pad, 5)); return err },
			"move": func() error {
				_, err := tbl.Update(tx, rids[1], row(3, strings.Repeat("m", 3000), 5))
				return err
			},
		} {
			if err := write(); !errors.Is(err, ErrUnique) {
				t.Fatalf("%s onto a held key: %v", name, err)
			}
			check(name)
		}
		if commit {
			err = tx.Commit()
		} else {
			err = tx.Rollback()
		}
		if err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("commit %v", commit))
	}
}

func TestAddIndexBuildsStatistics(t *testing.T) {
	tbl, _, _, tm := setup(t)
	tx := tm.Begin()
	for i := 0; i < 1000; i++ {
		tbl.Insert(tx, row(int64(i%4), "s", 0))
	}
	tx.Commit()
	// Wipe the histogram, then CREATE INDEX must rebuild it.
	tbl.Hists[0] = stats.NewHistogram(val.KInt)
	if _, err := tbl.AddIndex(201, "by_id", []int{0}, false); err != nil {
		t.Fatal(err)
	}
	if tbl.Hists[0].Total() == 0 {
		t.Fatal("CREATE INDEX did not rebuild statistics")
	}
	sel := tbl.Hists[0].SelEq(val.NewInt(2))
	if sel < 0.15 || sel > 0.35 {
		t.Fatalf("rebuilt selectivity %g, want ~0.25", sel)
	}
}

func TestRebuildStatisticsStrings(t *testing.T) {
	tbl, _, _, tm := setup(t)
	tx := tm.Begin()
	for i := 0; i < 100; i++ {
		name := "plain widget"
		if i < 10 {
			name = "deluxe gadget"
		}
		tbl.Insert(tx, row(int64(i), name, 0))
	}
	tx.Commit()
	if err := tbl.RebuildStatistics(); err != nil {
		t.Fatal(err)
	}
	ss := tbl.StrStats[1]
	if ss == nil {
		t.Fatal("no string stats built")
	}
	sel, ok := ss.EstimateLike("%deluxe%")
	if !ok || sel < 0.05 || sel > 0.15 {
		t.Fatalf("LIKE %%deluxe%% sel=%g ok=%v, want ~0.1", sel, ok)
	}
}

func TestResidentFraction(t *testing.T) {
	tbl, _, _, tm := setup(t)
	tx := tm.Begin()
	for i := 0; i < 2000; i++ {
		tbl.Insert(tx, row(int64(i), fmt.Sprintf("longish-name-%06d", i), float64(i)))
	}
	tx.Commit()
	fr := tbl.ResidentFraction()
	if fr <= 0 || fr > 1 {
		t.Fatalf("resident fraction %g", fr)
	}
}

func TestAttachRecounts(t *testing.T) {
	tbl, pool, st, tm := setup(t)
	tx := tm.Begin()
	for i := 0; i < 300; i++ {
		tbl.Insert(tx, row(int64(i), "r", 0))
	}
	tx.Commit()
	pool.FlushAll()

	at, err := Attach(pool, st, tbl.ID, tbl.Name, tbl.Columns, tbl.FirstPage())
	if err != nil {
		t.Fatal(err)
	}
	if at.RowCount() != 300 {
		t.Fatalf("attached rows %d", at.RowCount())
	}
	if at.PageCount() != tbl.PageCount() {
		t.Fatalf("attached pages %d, want %d", at.PageCount(), tbl.PageCount())
	}
}

func TestErrors(t *testing.T) {
	tbl, _, _, tm := setup(t)
	tx := tm.Begin()
	defer tx.Rollback()
	if _, err := tbl.Insert(tx, []val.Value{val.NewInt(1)}); err == nil {
		t.Fatal("arity mismatch not detected")
	}
	big := make([]byte, 5000)
	if _, err := tbl.Insert(tx, []val.Value{val.NewInt(1), val.NewStr(string(big)), val.NewDouble(0)}); !errors.Is(err, ErrRowTooLarge) {
		t.Fatalf("oversized row: %v", err)
	}
	if err := tbl.Delete(tx, RID{Page: tbl.FirstPage(), Slot: 99}); !errors.Is(err, ErrNotFound) {
		t.Fatalf("missing delete: %v", err)
	}
	if tbl.ColumnIndex("nope") != -1 || tbl.ColumnIndex("salary") != 2 {
		t.Fatal("ColumnIndex")
	}
}
