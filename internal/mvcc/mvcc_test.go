package mvcc

import (
	"fmt"
	"sync"
	"testing"

	"anywheredb/internal/store"
	"anywheredb/internal/val"
)

func row(i int64) []val.Value { return []val.Value{val.NewInt(i)} }

func entry(writer uint64, pre []val.Value, exists bool) *Entry {
	return &Entry{Writer: writer, Row: pre, Exists: exists, Bytes: SizeOf(pre)}
}

func TestResolveWalk(t *testing.T) {
	s := NewStore()
	id := RowID{Page: 7, Slot: 0}

	// Txn 1 inserted the row (pre-image: not exists), committed at CSN 1.
	e1 := entry(1, nil, false)
	e1.SetCSN(1)
	s.Push(id, e1)
	// Txn 2 updated 10 -> 20, committed at CSN 2.
	e2 := entry(2, row(10), true)
	e2.SetCSN(2)
	s.Push(id, e2)
	// Txn 3 updated 20 -> 30, still in flight.
	e3 := entry(3, row(20), true)
	s.Push(id, e3)

	cases := []struct {
		snap   Snapshot
		want   int64
		exists bool
	}{
		{Snapshot{CSN: 0}, 0, false},           // before txn 1: row absent
		{Snapshot{CSN: 1}, 10, true},           // sees insert only
		{Snapshot{CSN: 2}, 20, true},           // sees update to 20
		{Snapshot{CSN: 9}, 20, true},           // txn 3 unpublished: still 20
		{Snapshot{CSN: 0, Self: 3}, 30, true},  // txn 3 reads its own write
		{Snapshot{CSN: 2, Self: 99}, 20, true}, // foreign self id changes nothing
	}
	for i, c := range cases {
		got, ok := s.Resolve(id, row(30), true, &c.snap)
		if ok != c.exists {
			t.Fatalf("case %d: exists=%v want %v", i, ok, c.exists)
		}
		if ok && got[0].I != c.want {
			t.Fatalf("case %d: got %d want %d", i, got[0].I, c.want)
		}
	}
}

func TestResolveDeletedRow(t *testing.T) {
	s := NewStore()
	id := RowID{Page: 3, Slot: 2}
	// Txn 5 deleted the row (pre-image 42), committed at CSN 4.
	e := entry(5, row(42), true)
	e.SetCSN(4)
	s.Push(id, e)

	// Old snapshot resurrects the pre-image from a missing heap cell.
	got, ok := s.Resolve(id, nil, false, &Snapshot{CSN: 3})
	if !ok || got[0].I != 42 {
		t.Fatalf("old snapshot: got %v %v, want 42 true", got, ok)
	}
	// New snapshot sees the delete.
	if _, ok := s.Resolve(id, nil, false, &Snapshot{CSN: 4}); ok {
		t.Fatal("new snapshot should see the delete")
	}
}

func TestVacuumThreshold(t *testing.T) {
	s := NewStore()
	id := RowID{Page: 1, Slot: 0}
	for i := uint64(1); i <= 4; i++ {
		e := entry(i, row(int64(i*10)), true)
		e.SetCSN(i)
		s.Push(id, e)
	}
	// Oldest active snapshot at CSN 3: entries with CSN <= 3 are visible to
	// every snapshot, so the CSN-3 entry and older are unreachable.
	if got := s.Vacuum(3, nil); got != 3 {
		t.Fatalf("vacuum removed %d, want 3", got)
	}
	if s.Count() != 1 {
		t.Fatalf("count %d, want 1", s.Count())
	}
	// The surviving chain still resolves correctly for a CSN-3 snapshot.
	got, ok := s.Resolve(id, row(50), true, &Snapshot{CSN: 3})
	if !ok || got[0].I != 40 {
		t.Fatalf("resolve after vacuum: got %v %v, want 40 true", got, ok)
	}
	// Horizon catches up: everything goes, chain is deleted.
	if got := s.Vacuum(4, nil); got != 1 {
		t.Fatalf("second vacuum removed %d, want 1", got)
	}
	if !s.Empty() || s.Bytes() != 0 {
		t.Fatalf("store not empty after full vacuum: count=%d bytes=%d", s.Count(), s.Bytes())
	}
}

func TestVacuumAbortedEntries(t *testing.T) {
	s := NewStore()
	id := RowID{Page: 2, Slot: 1}
	committed := entry(1, row(10), true)
	committed.SetCSN(1)
	s.Push(id, committed)
	aborted := entry(2, row(10), true) // rolled back: CSN stays 0
	s.Push(id, aborted)
	inflight := entry(3, row(10), true)
	s.Push(id, inflight)

	active := func(txn uint64) bool { return txn == 3 }
	// Threshold 0 (a snapshot predates txn 1): only the aborted entry of
	// the finished txn 2 is reclaimable.
	if got := s.Vacuum(0, active); got != 1 {
		t.Fatalf("vacuum removed %d, want 1 (aborted only)", got)
	}
	if s.Count() != 2 {
		t.Fatalf("count %d, want 2", s.Count())
	}
	if h := s.chains[id]; h.Writer != 3 || h.prev.Writer != 1 || h.prev.prev != nil {
		t.Fatal("chain should be inflight->committed after aborted unlink")
	}
}

func TestSlotsAndRowIDs(t *testing.T) {
	s := NewStore()
	s.Push(RowID{Page: 4, Slot: 3}, entry(1, row(1), true))
	s.Push(RowID{Page: 4, Slot: 1}, entry(1, row(2), true))
	s.Push(RowID{Page: 9, Slot: 0}, entry(1, nil, false))

	slots := s.SlotsOnPage(4)
	if len(slots) != 2 || slots[0] != 1 || slots[1] != 3 {
		t.Fatalf("slots on page 4: %v", slots)
	}
	if ids := s.RowIDs(); len(ids) != 3 {
		t.Fatalf("row ids: %v", ids)
	}
}

// TestUnsettled: only entries whose writer has not published a commit hold
// anything back, and what they hold is the largest cell one of them replaced.
// The row's holder is the writer of the unpublished chain head, whatever its
// write was, until the entry is published or reclaimed.
func TestUnsettled(t *testing.T) {
	s := NewStore()
	// unsettled asks about one slot the way a table asks about its page:
	// every slot up to this one, under one hold of the lock.
	unsettled := func(id RowID) (cell int, ok bool) {
		s.UnsettledOnPage(id.Page, id.Slot+1, func(slot, c int, held bool) {
			if slot == id.Slot {
				cell, ok = c, held
			}
		})
		return cell, ok
	}
	id := RowID{Page: 4, Slot: 2}
	if cell, ok := unsettled(id); ok || cell != 0 || s.Holder(id) != 0 {
		t.Fatalf("no chain: %d %v, holder %d", cell, ok, s.Holder(id))
	}
	committed := &Entry{Writer: 1, Row: row(1), Exists: true, Cell: 900}
	committed.SetCSN(1)
	s.Push(id, committed)
	if cell, ok := unsettled(id); ok || cell != 0 || s.Holder(id) != 0 {
		t.Fatalf("published writer only: %d %v, holder %d", cell, ok, s.Holder(id))
	}
	// An update holder: two shrinking updates by writer 2.
	shrink, shrinkMore := &Entry{Writer: 2, Row: row(2), Exists: true, Cell: 400}, &Entry{Writer: 2, Row: row(3), Exists: true, Cell: 50}
	s.Push(id, shrink)
	s.Push(id, shrinkMore)
	if cell, ok := unsettled(id); !ok || cell != 400 || s.Holder(id) != 2 {
		t.Fatalf("in-flight writer: %d %v, holder %d, want 400 true 2", cell, ok, s.Holder(id))
	}
	shrink.SetCSN(2)
	shrinkMore.SetCSN(2)
	if cell, ok := unsettled(id); ok || cell != 0 || s.Holder(id) != 0 {
		t.Fatalf("after publish: %d %v, holder %d", cell, ok, s.Holder(id))
	}

	// A delete holder: writer 3 removed the row.
	s.Push(id, &Entry{Writer: 3, Row: row(3), Exists: true, Cell: 50})
	if cell, ok := unsettled(id); !ok || cell != 50 || s.Holder(id) != 3 {
		t.Fatalf("in-flight delete: %d %v, holder %d, want 50 true 3", cell, ok, s.Holder(id))
	}
	// A rolled-back holder is named until its entry is reclaimed: whether
	// it still holds the row is the lock manager's to say.
	if s.VacuumOne(id, 0, func(uint64) bool { return true }) != 0 || s.Holder(id) != 3 {
		t.Fatalf("a live writer's entry was reclaimed, or it lost the row: holder %d", s.Holder(id))
	}
	s.VacuumOne(id, 2, func(uint64) bool { return false })
	if cell, ok := unsettled(id); ok || cell != 0 || s.Holder(id) != 0 {
		t.Fatalf("after the rolled-back delete was reclaimed: %d %v, holder %d", cell, ok, s.Holder(id))
	}

	// An insert holder, and an update by the same writer above it.
	other := RowID{Page: 4, Slot: 3}
	s.Push(other, &Entry{Writer: 4})
	s.Push(other, &Entry{Writer: 4, Row: row(4), Exists: true, Cell: 20})
	if cell, ok := unsettled(other); !ok || cell != 20 || s.Holder(other) != 4 {
		t.Fatalf("unsettled insert: %d %v, holder %d, want 20 true 4", cell, ok, s.Holder(other))
	}

	// One call answers every slot of the page, the last first, and no slot
	// of another page.
	s.Push(RowID{Page: 5, Slot: 1}, &Entry{Writer: 5, Row: row(5), Exists: true, Cell: 70})
	var got []string
	s.UnsettledOnPage(4, 5, func(slot, cell int, ok bool) { got = append(got, fmt.Sprintf("%d:%d:%v", slot, cell, ok)) })
	if want := "[4:0:false 3:20:true 2:0:false 1:0:false 0:0:false]"; fmt.Sprint(got) != want {
		t.Fatalf("page 4 answers %v, want %s", got, want)
	}
}

// TestConcurrentPushResolveVacuum races writers, readers, and vacuum on one
// hot row; the race detector is the assertion.
func TestConcurrentPushResolveVacuum(t *testing.T) {
	s := NewStore()
	id := RowID{Page: 1, Slot: 0}
	var csn uint64
	var wg sync.WaitGroup
	stop := make(chan struct{})

	wg.Add(1)
	go func() { // writer: push then commit-stamp
		defer wg.Done()
		for i := uint64(1); i <= 500; i++ {
			e := entry(i, row(int64(i)), true)
			s.Push(id, e)
			csn = i
			e.SetCSN(i)
		}
		close(stop)
	}()
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				snap := &Snapshot{CSN: 250}
				s.Resolve(id, row(0), true, snap)
			}
		}()
	}
	wg.Add(1)
	go func() { // vacuum behind a fixed snapshot
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			s.Vacuum(250, func(uint64) bool { return true })
		}
	}()
	wg.Wait()
	_ = csn
}

// TestVacuumOfLiveChainsAllocatesNothing: a pass over chains it cannot
// shorten — an open bulk load's, whose writer is live — reclaims nothing
// and allocates nothing, under the store's exclusive lock. A chain it does
// shorten is relinked in place, its kept entries in their order.
func TestVacuumOfLiveChainsAllocatesNothing(t *testing.T) {
	const chains = 10000
	s := NewStore()
	for i := 0; i < chains; i++ {
		s.Push(RowID{Page: 1 + store.PageID(i/100), Slot: i % 100}, &Entry{Writer: 7, Bytes: 48})
	}
	live := func(txn uint64) bool { return txn == 7 }
	var reclaimed int
	if allocs := testing.AllocsPerRun(10, func() { reclaimed += s.Vacuum(0, live) }); allocs != 0 || reclaimed != 0 {
		t.Fatalf("vacuum over %d live chains: %.0f allocations, %d entries reclaimed, want 0 and 0", chains, allocs, reclaimed)
	}
	if s.Count() != chains {
		t.Fatalf("%d entries left of %d", s.Count(), chains)
	}

	// One chain, newest first: two live writers, one rolled back, one
	// committed at 5, one at 3. A pass at threshold 4 unlinks the
	// rolled-back entry and the one at 3; the rest stay, in order.
	id := RowID{Page: 999, Slot: 1}
	for _, e := range []*Entry{{Writer: 1, Bytes: 1}, {Writer: 2, Bytes: 2}, {Writer: 3, Bytes: 4}, {Writer: 8, Bytes: 8}, {Writer: 7, Bytes: 16}} {
		if e.Writer == 1 || e.Writer == 2 {
			e.SetCSN(uint64(2*e.Writer + 1))
		}
		s.Push(id, e)
	}
	if n := s.VacuumOne(id, 4, func(txn uint64) bool { return txn >= 7 }); n != 2 {
		t.Fatalf("reclaimed %d entries of the chain, want 2", n)
	}
	var writers []uint64
	s.mu.RLock()
	for e := s.chains[id]; e != nil; e = e.prev {
		writers = append(writers, e.Writer)
	}
	s.mu.RUnlock()
	if fmt.Sprint(writers) != "[7 8 2]" {
		t.Fatalf("chain after vacuum: writers %v, want [7 8 2]", writers)
	}
}
