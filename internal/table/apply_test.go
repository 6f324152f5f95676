package table

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"anywheredb/internal/buffer"
	"anywheredb/internal/mvcc"
	"anywheredb/internal/store"
	"anywheredb/internal/txn"
	"anywheredb/internal/val"
	"anywheredb/internal/wal"
)

// applySide is one table with everything under it: table A takes forward
// DML and logs it, table B has the captured records applied to it.
type applySide struct {
	tbl *Table
	log *wal.Log
	tm  *txn.Manager
}

func newApplySide(t *testing.T, indexFile store.FileID) applySide {
	t.Helper()
	st, err := store.Open(store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	pool := buffer.New(st, 8, 256, 512)
	log, err := wal.Open("")
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := Create(pool, st, store.MainFile, 100, "emp", []Column{
		{Name: "id", Kind: val.KInt},
		{Name: "name", Kind: val.KStr},
		{Name: "salary", Kind: val.KDouble},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tbl.AddIndexIn(indexFile, 101, "emp_id", []int{0}, false); err != nil {
		t.Fatal(err)
	}
	return applySide{tbl: tbl, log: log, tm: txn.NewManager(log, nil)}
}

// state renders everything the two sides must agree on: every cell by RID
// in chain order, the row count, each column's histogram, and the index.
func (s applySide) state(t *testing.T, snap *mvcc.Snapshot) string {
	t.Helper()
	var sb strings.Builder
	n := 0
	if err := s.tbl.ScanFrom(s.tbl.FirstPage(), snap, func(rid RID, r []val.Value) (bool, error) {
		fmt.Fprintf(&sb, "%v=%v\n", rid, r)
		n++
		return true, nil
	}); err != nil {
		t.Fatal(err)
	}
	if snap != nil {
		return sb.String() // the logical state below is the latest, not snap's
	}
	if int64(n) != s.tbl.RowCount() {
		t.Fatalf("RowCount %d, but the heap holds %d rows", s.tbl.RowCount(), n)
	}
	fmt.Fprintf(&sb, "pages=%d\n", s.tbl.PageCount())
	for i, h := range s.tbl.Hists {
		fmt.Fprintf(&sb, "hist%d=%x\n", i, h.Encode())
	}
	it, err := s.tbl.Indexes[0].Tree.First()
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	for ; it.Valid(); it.Next() {
		fmt.Fprintf(&sb, "ix %x→%v\n", it.Key(), RIDFromBytes(it.Value()))
	}
	if err := it.Err(); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

// TestApplyMatchesForwardDML is a seeded differential over the mutation
// kernels' two drivers. Random transactions of inserts, in-place updates,
// moving updates and deletes, each randomly committed or rolled back, run
// through the forward path on table A; A's log records are captured and
// replayed on table B the way a replica does it (Table.Apply under an
// adopted transaction, settled by the shipped commit or rollback). After
// every settle the two tables must hold the same cells at the same RIDs and
// the same row count, histograms and index, a rollback must have put A back
// cell for cell where it was, and no version chain may outlive the last
// snapshot that could need it.
func TestApplyMatchesForwardDML(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprint("seed=", seed), func(t *testing.T) { applyDifferential(t, seed) })
	}
}

func applyDifferential(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	a := newApplySide(t, store.MainFile)
	// B's index lives in the temp file: a btree page allocated in the main
	// file would take a page id A hands out to its heap later.
	b := newApplySide(t, store.TempFile)

	var shipped wal.LSN
	adopted := map[uint64]*txn.Txn{}
	// ship replays A's new log records on B, up to and including the settle
	// record when settle is true, short of it otherwise.
	ship := func(settle bool) {
		t.Helper()
		if err := a.log.Flush(); err != nil {
			t.Fatal(err)
		}
		err := a.log.ScanFrom(shipped, func(lsn wal.LSN, r *wal.Record) error {
			switch r.Type {
			case wal.RecBegin:
				adopted[r.Txn] = b.tm.Adopt(r.Txn)
				return nil
			case wal.RecCommit, wal.RecRollback:
				if !settle {
					shipped = lsn
					return errStopShip
				}
				tx := adopted[r.Txn]
				delete(adopted, r.Txn)
				if r.Type == wal.RecCommit {
					return tx.Commit()
				}
				return tx.Rollback()
			}
			return b.tbl.Apply(adopted[r.Txn], r)
		})
		if err == nil {
			shipped = a.log.FlushedLSN()
		} else if err != errStopShip {
			t.Fatalf("seed %d: apply: %v", seed, err)
		}
	}

	nextID, rolledBackMoves := int64(0), 0
	name := func(n int) string { return strings.Repeat(string(rune('a'+rng.Intn(26))), n) }
	for round := 0; round < 150; round++ {
		before := a.state(t, nil)
		tx := a.tm.Begin()
		moved := false
		for op, ops := 0, 1+rng.Intn(5); op < ops; op++ {
			// The heap as this transaction sees it, own changes included.
			var rids []RID
			var rows [][]val.Value
			if err := a.tbl.Scan(func(rid RID, r []val.Value) (bool, error) {
				rids, rows = append(rids, rid), append(rows, r)
				return true, nil
			}); err != nil {
				t.Fatal(err)
			}
			kind := rng.Intn(4)
			if len(rids) < 8 {
				kind = 0
			}
			var err error
			switch pick := rng.Intn(len(rids) + 1); kind {
			case 0:
				nextID++
				_, err = a.tbl.Insert(tx, row(nextID, name(60+rng.Intn(300)), float64(rng.Intn(1000))))
			case 1: // an image within a few bytes of the old one: in place; the index key changes
				pick %= len(rids)
				nextID++
				_, err = a.tbl.Update(tx, rids[pick], row(nextID, rows[pick][1].S, float64(rng.Intn(1000))))
			case 2: // an image most of a page long: moves unless its page is nearly empty
				pick %= len(rids)
				var to RID
				to, err = a.tbl.Update(tx, rids[pick], row(rows[pick][0].I, name(2500+rng.Intn(1000)), rows[pick][2].F))
				moved = moved || to != rids[pick]
			case 3:
				pick %= len(rids)
				err = a.tbl.Delete(tx, rids[pick])
			}
			if err != nil {
				t.Fatalf("seed %d round %d: %v", seed, round, err)
			}
		}

		// Every third round a snapshot on B spans the settle: it must keep
		// reading the state from before the transaction throughout.
		var snap *mvcc.Snapshot
		var pinned string
		if round%3 == 0 {
			snap = b.tm.AcquireSnapshot(0)
			pinned = b.state(t, snap)
			ship(false)
			if got := b.state(t, snap); got != pinned {
				t.Fatalf("seed %d round %d: unsettled changes visible on B:\n%s\nwant\n%s", seed, round, got, pinned)
			}
		}
		rollback := rng.Intn(3) == 0
		if rollback {
			if moved {
				rolledBackMoves++
			}
			if err := tx.Rollback(); err != nil {
				t.Fatalf("seed %d round %d: rollback: %v", seed, round, err)
			}
		} else if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		ship(true)

		sa, sb := a.state(t, nil), b.state(t, nil)
		if sa != sb {
			t.Fatalf("seed %d round %d (rollback=%v moved=%v): B diverged from A:\n%s\nwant\n%s", seed, round, rollback, moved, sb, sa)
		}
		// A rollback restores every cell and index entry. Pages the chain
		// grew by stay, and a histogram is not required to return bit for
		// bit to where it was.
		if rollback && cellsAndIndex(sa) != cellsAndIndex(before) {
			t.Fatalf("seed %d round %d (moved=%v): rollback did not restore A:\n%s\nwant\n%s", seed, round, moved, sa, before)
		}
		if snap != nil {
			if got := b.state(t, snap); got != pinned {
				t.Fatalf("seed %d round %d: B's snapshot moved across the settle:\n%s\nwant\n%s", seed, round, got, pinned)
			}
			b.tm.ReleaseSnapshot(snap)
			b.tbl.VacuumVersions(b.tm.VacuumThreshold(), b.tm.IsActive)
		}
		if !a.tbl.VersionsEmpty() || !b.tbl.VersionsEmpty() {
			t.Fatalf("seed %d round %d: version chains left behind: A %d, B %d",
				seed, round, a.tbl.VersionCount(), b.tbl.VersionCount())
		}
	}
	if rolledBackMoves == 0 {
		t.Fatalf("seed %d: no moving update was rolled back; the run proves too little", seed)
	}
}

// TestConcurrentRollbacksAlwaysFit runs writers side by side on rows that
// share pages: each deletes, shrinks, grows (in place or by moving) and
// inserts among its own rows and rolls half its transactions back. However
// the others' writes fall, a rollback must put every row back where it was
// (no compensation may fail), and the table must end up as the committed
// transactions left it. Then the log is replayed on a second table the way
// a replica does it: page latches and log appends order the writers
// differently, and every placement the forward path chose, and every
// in-place update it allowed, must still fit when met in log order.
func TestConcurrentRollbacksAlwaysFit(t *testing.T) {
	const writers, rowsEach, txns = 4, 12, 60
	a, b := newApplySide(t, store.MainFile), newApplySide(t, store.TempFile)
	tbl, tm := a.tbl, a.tm
	type held struct {
		rid  RID
		size int
	}
	models := make([]map[int64]held, writers)
	load := tm.Begin()
	for i := int64(0); i < writers*rowsEach; i++ { // neighbours in a page belong to different writers
		rid, err := tbl.Insert(load, row(i, strings.Repeat("v", 300), 0))
		if err != nil {
			t.Fatal(err)
		}
		w := i % writers
		if models[w] == nil {
			models[w] = map[int64]held{}
		}
		models[w][i] = held{rid, 300}
	}
	load.Commit()

	var wg sync.WaitGroup
	for w := range models {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			mine, next := models[w], int64(1000*(w+1))
			for n := 0; n < txns; n++ {
				tx, after := tm.Begin(), map[int64]held{}
				for id, h := range mine {
					after[id] = h
				}
				for ops := 1 + rng.Intn(4); ops > 0; ops-- {
					var id int64
					for id = range after { // map order: any of this writer's rows
						break
					}
					var err error
					op := rng.Intn(4)
					if len(after) == 0 {
						op = 1
					}
					switch h := after[id]; op {
					case 0:
						err = tbl.Delete(tx, h.rid)
						delete(after, id)
					case 1:
						rid, e := tbl.Insert(tx, row(next, strings.Repeat("n", 200), 0))
						after[next], err = held{rid, 200}, e
						next++
					default:
						size := 1 + rng.Intn(1200)
						rid, e := tbl.Update(tx, h.rid, row(id, strings.Repeat("u", size), 0))
						after[id], err = held{rid, size}, e
					}
					if err != nil {
						t.Errorf("writer %d: %v", w, err)
						return
					}
				}
				if rng.Intn(2) == 0 {
					if err := tx.Rollback(); err != nil {
						t.Errorf("writer %d: rollback: %v", w, err)
						return
					}
					continue
				}
				if err := tx.Commit(); err != nil {
					t.Errorf("writer %d: commit: %v", w, err)
					return
				}
				mine = after
			}
			models[w] = mine
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	want := 0
	for _, m := range models {
		want += len(m)
		for id, h := range m {
			if got, err := tbl.Get(h.rid); err != nil || got[0].I != id || len(got[1].S) != h.size {
				t.Errorf("row %d at %v: want %d bytes, got %v (%v)", id, h.rid, h.size, got[:1], err)
			}
		}
	}
	if int(tbl.RowCount()) != want || !tbl.VersionsEmpty() {
		t.Errorf("rows %d, want %d; version chains empty: %v", tbl.RowCount(), want, tbl.VersionsEmpty())
	}

	if err := a.log.Flush(); err != nil {
		t.Fatal(err)
	}
	adopted := map[uint64]*txn.Txn{}
	if err := a.log.ScanFrom(0, func(_ wal.LSN, r *wal.Record) error {
		switch r.Type {
		case wal.RecBegin:
			adopted[r.Txn] = b.tm.Adopt(r.Txn)
			return nil
		case wal.RecCommit:
			return adopted[r.Txn].Commit()
		case wal.RecRollback:
			return adopted[r.Txn].Rollback()
		}
		return b.tbl.Apply(adopted[r.Txn], r)
	}); err != nil {
		t.Fatalf("replay in log order: %v", err)
	}
	// Histograms are fed in latch order on A and in log order on B.
	if sa, sb := cellsAndIndex(a.state(t, nil)), cellsAndIndex(b.state(t, nil)); sa != sb {
		t.Fatalf("B diverged from A:\n%s\nwant\n%s", sb, sa)
	}
}

var errStopShip = fmt.Errorf("stop before the settle record")

func cellsAndIndex(state string) string {
	lines := strings.Split(state, "\n")
	out := lines[:0]
	for _, l := range lines {
		if !strings.HasPrefix(l, "pages=") && !strings.HasPrefix(l, "hist") {
			out = append(out, l)
		}
	}
	return strings.Join(out, "\n")
}
