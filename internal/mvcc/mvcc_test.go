package mvcc

import (
	"sync"
	"testing"

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
	if h := s.Head(id); h.Writer != 3 || h.prev.Writer != 1 || h.prev.prev != nil {
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
func TestUnsettled(t *testing.T) {
	s := NewStore()
	id := RowID{Page: 4, Slot: 2}
	if cell, ok := s.Unsettled(id); ok || cell != 0 {
		t.Fatalf("no chain: %d %v", cell, ok)
	}
	committed := &Entry{Writer: 1, Row: row(1), Exists: true, Cell: 900}
	committed.SetCSN(1)
	s.Push(id, committed)
	if cell, ok := s.Unsettled(id); ok || cell != 0 {
		t.Fatalf("published writer only: %d %v", cell, ok)
	}
	shrink, shrinkMore := &Entry{Writer: 2, Row: row(2), Exists: true, Cell: 400}, &Entry{Writer: 2, Row: row(3), Exists: true, Cell: 50}
	s.Push(id, shrink)
	s.Push(id, shrinkMore)
	if cell, ok := s.Unsettled(id); !ok || cell != 400 {
		t.Fatalf("in-flight writer: %d %v, want 400 true", cell, ok)
	}
	shrink.SetCSN(2)
	shrinkMore.SetCSN(2)
	if cell, ok := s.Unsettled(id); ok || cell != 0 {
		t.Fatalf("after publish: %d %v", cell, ok)
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
