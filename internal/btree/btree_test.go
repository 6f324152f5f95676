package btree

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"testing/quick"

	"anywheredb/internal/buffer"
	"anywheredb/internal/store"
	"anywheredb/internal/val"
)

func newTree(t *testing.T, frames int) (*Tree, *buffer.Pool, *store.Store) {
	t.Helper()
	st, err := store.Open(store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	pool := buffer.New(st, 4, frames, frames)
	tr, err := Create(pool, st, store.MainFile, 1)
	if err != nil {
		t.Fatal(err)
	}
	return tr, pool, st
}

func k(i int) []byte { return []byte(fmt.Sprintf("key-%06d", i)) }
func v(i int) []byte {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(i))
	return b[:]
}

func TestInsertSearchSmall(t *testing.T) {
	tr, _, _ := newTree(t, 64)
	for i := 0; i < 50; i++ {
		if err := tr.Insert(k(i), v(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 50; i++ {
		got, ok, err := tr.Search(k(i))
		if err != nil || !ok {
			t.Fatalf("search %d: ok=%v err=%v", i, ok, err)
		}
		if !bytes.Equal(got, v(i)) {
			t.Fatalf("value mismatch for %d", i)
		}
	}
	if _, ok, _ := tr.Search([]byte("missing")); ok {
		t.Fatal("found a missing key")
	}
}

func TestSplitsAndOrder(t *testing.T) {
	tr, _, _ := newTree(t, 256)
	// Insert shuffled keys to force many splits at several levels.
	n := 5000
	perm := rand.New(rand.NewSource(1)).Perm(n)
	for _, i := range perm {
		if err := tr.Insert(k(i), v(i)); err != nil {
			t.Fatal(err)
		}
	}
	if tr.Stats.Height.Load() < 2 {
		t.Fatalf("height %d, expected splits", tr.Stats.Height.Load())
	}
	// Full scan returns every key in order.
	it, err := tr.First()
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	var prev []byte
	count := 0
	for ; it.Valid(); it.Next() {
		if prev != nil && bytes.Compare(prev, it.Key()) > 0 {
			t.Fatal("scan out of order")
		}
		prev = append(prev[:0], it.Key()...)
		count++
	}
	if it.Err() != nil {
		t.Fatal(it.Err())
	}
	if count != n {
		t.Fatalf("scan saw %d entries, want %d", count, n)
	}
	if got := tr.Stats.Entries.Load(); got != int64(n) {
		t.Fatalf("Stats.Entries %d, want %d", got, n)
	}
}

func TestSeekRange(t *testing.T) {
	tr, _, _ := newTree(t, 128)
	for i := 0; i < 1000; i += 2 { // even keys only
		tr.Insert(k(i), v(i))
	}
	// Seek to an absent odd key: lands on the next even key.
	it, err := tr.Seek(k(501))
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	if !it.Valid() || !bytes.Equal(it.Key(), k(502)) {
		t.Fatalf("seek landed on %q", it.Key())
	}
	// Range scan [502, 520): 9 entries.
	count := 0
	for ; it.Valid() && bytes.Compare(it.Key(), k(520)) < 0; it.Next() {
		count++
	}
	if count != 9 {
		t.Fatalf("range count %d, want 9", count)
	}
}

func TestSeekPastEnd(t *testing.T) {
	tr, _, _ := newTree(t, 64)
	tr.Insert(k(1), v(1))
	it, err := tr.Seek([]byte("zzzz"))
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	if it.Valid() {
		t.Fatal("seek past end should be invalid")
	}
}

func TestDuplicateKeys(t *testing.T) {
	tr, _, _ := newTree(t, 128)
	for i := 0; i < 10; i++ {
		tr.Insert([]byte("dup"), v(i))
	}
	tr.Insert([]byte("eee"), v(99))
	it, _ := tr.Seek([]byte("dup"))
	defer it.Close()
	count := 0
	for ; it.Valid() && bytes.Equal(it.Key(), []byte("dup")); it.Next() {
		count++
	}
	if count != 10 {
		t.Fatalf("duplicate count %d, want 10", count)
	}
	if got := tr.Stats.Distinct.Load(); got != 2 {
		t.Fatalf("distinct %d, want 2", got)
	}
}

func TestDelete(t *testing.T) {
	tr, _, _ := newTree(t, 128)
	for i := 0; i < 500; i++ {
		tr.Insert(k(i), v(i))
	}
	for i := 0; i < 500; i += 2 {
		ok, err := tr.Delete(k(i), nil)
		if err != nil || !ok {
			t.Fatalf("delete %d: ok=%v err=%v", i, ok, err)
		}
	}
	// Deleted keys gone, survivors intact.
	for i := 0; i < 500; i++ {
		_, ok, _ := tr.Search(k(i))
		if want := i%2 == 1; ok != want {
			t.Fatalf("key %d present=%v, want %v", i, ok, want)
		}
	}
	if got := tr.Stats.Entries.Load(); got != 250 {
		t.Fatalf("entries after deletes %d, want 250", got)
	}
	// Delete by key+value: only the matching pair goes.
	tr.Insert([]byte("dv"), v(1))
	tr.Insert([]byte("dv"), v(2))
	ok, _ := tr.Delete([]byte("dv"), v(1))
	if !ok {
		t.Fatal("delete by value failed")
	}
	got, ok, _ := tr.Search([]byte("dv"))
	if !ok || !bytes.Equal(got, v(2)) {
		t.Fatal("wrong duplicate deleted")
	}
	if ok, _ := tr.Delete([]byte("absent"), nil); ok {
		t.Fatal("delete of absent key reported success")
	}
}

func TestScanAcrossEmptiedLeaves(t *testing.T) {
	tr, _, _ := newTree(t, 256)
	for i := 0; i < 2000; i++ {
		tr.Insert(k(i), v(i))
	}
	// Empty out a middle stretch entirely.
	for i := 500; i < 1500; i++ {
		tr.Delete(k(i), nil)
	}
	it, _ := tr.Seek(k(400))
	defer it.Close()
	count := 0
	for ; it.Valid(); it.Next() {
		count++
	}
	if count != 100+500 {
		t.Fatalf("scan across emptied leaves saw %d, want 600", count)
	}
}

func TestEntryTooLarge(t *testing.T) {
	tr, _, _ := newTree(t, 64)
	if err := tr.Insert(make([]byte, 4096), nil); err == nil {
		t.Fatal("oversized entry should be rejected")
	}
}

func TestClusteringStat(t *testing.T) {
	tr, _, _ := newTree(t, 128)
	// RIDs on the same "page" (same high bits): clustered.
	for i := 0; i < 100; i++ {
		var rid [12]byte
		binary.LittleEndian.PutUint64(rid[:], uint64(i/50)<<8) // 2 pages
		tr.Insert(k(i), rid[:])
	}
	if c := tr.Stats.Clustering(); c < 0.9 {
		t.Fatalf("clustering %g, want ~1 for sequential rids", c)
	}

	tr2, _, _ := newTree(t, 128)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 200; i++ {
		var rid [12]byte
		binary.LittleEndian.PutUint64(rid[:], uint64(rng.Intn(100))<<8)
		tr2.Insert(k(i), rid[:])
	}
	if c := tr2.Stats.Clustering(); c > 0.5 {
		t.Fatalf("clustering %g for random rids, want low", c)
	}
}

func TestAttachRebuildsStats(t *testing.T) {
	tr, pool, st := newTree(t, 256)
	for i := 0; i < 1000; i++ {
		tr.Insert(k(i), v(i))
	}
	root := tr.Root()
	at := Attach(pool, st, root, 1)
	if at.Stats.Entries.Load() != 1000 {
		t.Fatalf("attached entries %d", at.Stats.Entries.Load())
	}
	if at.Stats.Distinct.Load() != 1000 {
		t.Fatalf("attached distinct %d", at.Stats.Distinct.Load())
	}
	if at.Stats.Height.Load() != tr.Stats.Height.Load() {
		t.Fatalf("attached height %d, want %d", at.Stats.Height.Load(), tr.Stats.Height.Load())
	}
	got, ok, err := at.Search(k(512))
	if err != nil || !ok || !bytes.Equal(got, v(512)) {
		t.Fatal("attached tree search failed")
	}
}

func TestLeafPageStat(t *testing.T) {
	tr, _, _ := newTree(t, 256)
	for i := 0; i < 3000; i++ {
		tr.Insert(k(i), v(i))
	}
	if lp := tr.Stats.LeafPages.Load(); lp < 10 {
		t.Fatalf("leaf pages %d, expected many after 3000 inserts", lp)
	}
}

// Property test: a random mix of inserts and deletes always matches a
// reference. Keys come from a small domain and are never unique, so runs of
// duplicates straddle leaf splits and Delete(key, value) has to find one
// particular entry anywhere in a run.
func TestQuickAgainstReference(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		st, _ := store.Open(store.Options{})
		defer st.Close()
		pool := buffer.New(st, 4, 128, 128)
		tr, err := Create(pool, st, store.MainFile, 1)
		if err != nil {
			return false
		}
		ref := map[string][]string{} // key → values, in insertion order
		n := 0
		for op := 0; op < 3000; op++ {
			key := fmt.Sprintf("k%02d", rng.Intn(12))
			if vals := ref[key]; len(vals) > 0 && rng.Intn(3) == 0 {
				i := rng.Intn(len(vals))
				if ok, err := tr.Delete([]byte(key), []byte(vals[i])); err != nil || !ok {
					t.Logf("seed %d: Delete(%s, %s) = %v, %v", seed, key, vals[i], ok, err)
					return false
				}
				ref[key] = append(vals[:i:i], vals[i+1:]...)
				n--
				continue
			}
			val := fmt.Sprintf("v%06d-%s", op, pad[:rng.Intn(len(pad))])
			if err := tr.Insert([]byte(key), []byte(val)); err != nil {
				return false
			}
			ref[key] = append(ref[key], val)
			n++
		}
		if tr.Stats.Height.Load() < 2 || tr.Stats.Entries.Load() != int64(n) {
			t.Logf("seed %d: height %d, entries %d, want %d", seed, tr.Stats.Height.Load(), tr.Stats.Entries.Load(), n)
			return false
		}
		// A full scan and a Seek per key both see every entry, keys in order
		// and each key's values in insertion order.
		var keys []string
		for kk := range ref {
			keys = append(keys, kk)
		}
		sort.Strings(keys)
		full, err := tr.First()
		if err != nil {
			return false
		}
		defer full.Close()
		for _, kk := range keys {
			it, err := tr.Seek([]byte(kk))
			if err != nil {
				return false
			}
			for _, want := range ref[kk] {
				for _, s := range []*Iterator{full, it} {
					if !s.Valid() || string(s.Key()) != kk || string(s.Value()) != want {
						t.Logf("seed %d: scan of %s lost %s", seed, kk, want)
						it.Close()
						return false
					}
					s.Next()
				}
			}
			it.Close()
		}
		return !full.Valid()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

const pad = "................................................................"

// TestDuplicatesAcrossLeaves is the regression test for the descent that
// went right on separator == key in Seek and Delete as well as in Insert: a
// run of duplicates that a leaf split had cut in two was visible only from
// its right half. 16 keys × 1 250 interleaved duplicates put every key's
// run over several leaves.
func TestDuplicatesAcrossLeaves(t *testing.T) {
	tr, _, _ := newTree(t, 512)
	const keys, dups = 16, 1250
	for d := 0; d < dups; d++ {
		for i := 0; i < keys; i++ {
			if err := tr.Insert(k(i), v(d)); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i := 0; i < keys; i++ {
		it, err := tr.Seek(k(i))
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for ; it.Valid() && bytes.Equal(it.Key(), k(i)); it.Next() {
			if !bytes.Equal(it.Value(), v(n)) {
				t.Fatalf("key %d: entry %d is out of insertion order", i, n)
			}
			n++
		}
		it.Close()
		if n != dups {
			t.Fatalf("Seek(%d) + scan saw %d of %d duplicates", i, n, dups)
		}
		if got, ok, err := tr.Search(k(i)); err != nil || !ok || !bytes.Equal(got, v(0)) {
			t.Fatalf("Search(%d) = %x, %v, %v; want the first duplicate", i, got, ok, err)
		}
	}
	missed := 0
	for d := dups - 1; d >= 0; d-- {
		for i := 0; i < keys; i++ {
			if ok, err := tr.Delete(k(i), v(d)); err != nil {
				t.Fatal(err)
			} else if !ok {
				missed++
			}
		}
	}
	if missed != 0 {
		t.Fatalf("Delete(key, value) missed %d of %d entries", missed, keys*dups)
	}
	if n := tr.Stats.Entries.Load(); n != 0 {
		t.Fatalf("Stats.Entries = %d after deleting everything", n)
	}
	if it, _ := tr.First(); it.Valid() {
		t.Fatal("the emptied tree still yields an entry")
	}
}

// TestScannersVsWriters runs 4 writers on disjoint key ranges against 4
// scanners. A scanner's view of one writer's range must be sorted and, as
// every writer inserts its keys in ascending order, a gap-free prefix: a
// leaf split under the scan may neither hide an entry nor show one twice.
func TestScannersVsWriters(t *testing.T) {
	tr, _, _ := newTree(t, 512)
	const writers, perWriter = 4, 1500
	key := func(w, i int) []byte { return []byte(fmt.Sprintf("w%d-%06d", w, i)) }
	var wg, scanners sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				if err := tr.Insert(key(w, i), v(i)); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	for s := 0; s < writers; s++ {
		scanners.Add(1)
		go func(w int) {
			defer scanners.Done()
			for done := false; !done; {
				select {
				case <-stop:
					done = true // one last scan after the writers finished
				default:
				}
				it, err := tr.Seek(key(w, 0))
				if err != nil {
					t.Error(err)
					return
				}
				n := 0
				for ; it.Valid() && bytes.HasPrefix(it.Key(), key(w, 0)[:3]); it.Next() {
					if !bytes.Equal(it.Key(), key(w, n)) {
						t.Errorf("scanner %d: entry %d is %s", w, n, it.Key())
						it.Close()
						return
					}
					n++
				}
				it.Close()
				if done && n != perWriter {
					t.Errorf("scanner %d: final scan saw %d of %d", w, n, perWriter)
				}
			}
		}(s)
	}
	wg.Wait()
	close(stop)
	scanners.Wait()
}

// kvKey and kvRID are the benchmark's kv schema as the table layer encodes
// it: an integer primary key and a 12-byte record id.
func kvKey(i int) []byte { return val.EncodeKey([]val.Value{val.NewInt(int64(i))}) }
func kvRID(i int) []byte {
	var b [12]byte
	binary.LittleEndian.PutUint64(b[:], uint64(store.MakePageID(store.MainFile, uint64(1+i/100))))
	binary.LittleEndian.PutUint32(b[8:], uint32(i%100))
	return b[:]
}

func kvTree(tb testing.TB, n int) *Tree {
	st, err := store.Open(store.Options{})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { st.Close() })
	tr, err := Create(buffer.New(st, 4, 1024, 1024), st, store.MainFile, 1)
	if err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := tr.Insert(kvKey(i), kvRID(i)); err != nil {
			tb.Fatal(err)
		}
	}
	return tr
}

// TestAllocationGuards pins what the in-place node access buys: a descent
// allocates nothing, so an operation allocates only what it hands back.
func TestAllocationGuards(t *testing.T) {
	const n = 20000
	tr := kvTree(t, n)
	hit, miss := kvKey(n/2), kvKey(2*n)
	var fresh [][2][]byte // AllocsPerRun(100, …) makes 101 calls
	for i := n; i <= n+100; i++ {
		fresh = append(fresh, [2][]byte{kvKey(i), kvRID(i)})
	}
	i := 0
	for _, c := range []struct {
		name string
		max  float64
		fn   func()
	}{
		{"Search hit", 1, func() { tr.Search(hit) }},
		{"Search miss", 0, func() { tr.Search(miss) }},
		{"Seek+Close", 1, func() {
			it, _ := tr.Seek(hit)
			it.Close()
		}},
		// 100 runs append 100 cells to the last leaf: at most one split,
		// whose few allocations vanish in the average.
		{"leaf Insert", 1, func() { tr.Insert(fresh[i][0], fresh[i][1]); i++ }},
	} {
		if got := testing.AllocsPerRun(100, c.fn); got > c.max {
			t.Errorf("%s: %.2f allocations per run, want ≤ %v", c.name, got, c.max)
		}
	}
}

var sink []byte

func BenchmarkTreeSearch(b *testing.B) {
	const n = 20000
	tr := kvTree(b, n)
	keys := make([][]byte, n)
	for i := range keys {
		keys[i] = kvKey(i * 7919 % n)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v, ok, err := tr.Search(keys[i%n])
		if err != nil || !ok {
			b.Fatal(ok, err)
		}
		sink = v
	}
}

func BenchmarkTreeInsertSequential(b *testing.B) {
	tr := kvTree(b, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := tr.Insert(kvKey(i), kvRID(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// wideKey keeps the fan-out low, so a few thousand keys make a tree with
// internal nodes below the root.
func wideKey(i int) []byte { return []byte(fmt.Sprintf("key-%06d-%0200d", i, 0)) }

// fillTree inserts n keys and returns the pages the tree occupies (every
// page of the store but the header: the tree is the only tenant).
func fillTree(t *testing.T, tr *Tree, st *store.Store, n int) int {
	t.Helper()
	for i := 0; i < n; i++ {
		if err := tr.Insert(wideKey(i), v(i)); err != nil {
			t.Fatal(err)
		}
	}
	return int(st.PageCount(store.MainFile)) - 1
}

// TestDropIntact: dropping a tree frees every one of its pages, and a tree
// of the same size built afterwards fits in them.
func TestDropIntact(t *testing.T) {
	tr, pool, st := newTree(t, 256)
	pages := fillTree(t, tr, st, 3000)
	if tr.Stats.Height.Load() < 3 {
		t.Fatalf("height %d: the test wants internal nodes below the root", tr.Stats.Height.Load())
	}
	if got := Drop(pool, st, tr.Root(), 1); got != pages {
		t.Fatalf("Drop freed %d pages, the tree had %d", got, pages)
	}
	free, err := st.FreeList(store.MainFile)
	if err != nil || len(free) != pages {
		t.Fatalf("free chain holds %d pages (err %v), want %d", len(free), err, pages)
	}
	tr2, err := Create(pool, st, store.MainFile, 2)
	if err != nil {
		t.Fatal(err)
	}
	if again := fillTree(t, tr2, st, 3000); again != pages {
		t.Fatalf("file grew to %d pages rebuilding a %d-page tree", again, pages)
	}
	for i := 0; i < 3000; i += 97 {
		if got, ok, err := tr2.Search(wideKey(i)); err != nil || !ok || !bytes.Equal(got, v(i)) {
			t.Fatalf("rebuilt tree lost key %d (ok=%v err=%v)", i, ok, err)
		}
	}
}

// TestDropTorn: a tree a crash left behind has pages from different
// moments. Drop must stop at a page that is no longer this tree's, survive
// pointers that loop or lead out of the file, and free no page twice.
func TestDropTorn(t *testing.T) {
	tr, pool, st := newTree(t, 256)
	pages := fillTree(t, tr, st, 800)
	if h := tr.Stats.Height.Load(); h != 3 {
		t.Fatalf("height %d: the page arithmetic below wants the root's children to be parents of leaves", h)
	}
	root := tr.Root()

	// The root's children, read the way Drop reads them.
	f, err := pool.Get(root)
	if err != nil {
		t.Fatal(err)
	}
	kids := []store.PageID{store.PageID(f.Data.Next())}
	for i := 0; i < f.Data.NumSlots(); i++ {
		_, child := cellKV(f.Data.Cell(i))
		kids = append(kids, pageIDFromBytes(child))
	}
	pool.Unpin(f, false)
	if len(kids) < 3 {
		t.Fatalf("root has %d children, the test wants 3", len(kids))
	}

	// kids[0] now belongs to another object: not followed, not freed.
	foreign, err := pool.Get(kids[0])
	if err != nil {
		t.Fatal(err)
	}
	foreign.Lock()
	lost := 1 + foreign.Data.NumSlots() + 1 // the node and its subtree of leaves
	foreign.Data.SetOwner(99)
	foreign.Unlock()
	pool.Unpin(foreign, true)
	// kids[1]'s leftmost pointer loops back to the root; kids[2]'s leads out
	// of the file.
	for i, next := range []uint64{uint64(root), uint64(store.MakePageID(store.MainFile, 1<<40))} {
		f, err := pool.Get(kids[1+i])
		if err != nil {
			t.Fatal(err)
		}
		f.Lock()
		f.Data.SetNext(next)
		f.Unlock()
		pool.Unpin(f, true)
		lost++ // the leftmost leaf each of them pointed at
	}

	got := Drop(pool, st, root, 1)
	if got != pages-lost {
		t.Fatalf("Drop freed %d pages, want %d (%d in the tree, %d unreachable)", got, pages-lost, pages, lost)
	}
	free, err := st.FreeList(store.MainFile)
	if err != nil || len(free) != got {
		t.Fatalf("free chain holds %d pages (err %v), want %d: a page was freed twice or not at all", len(free), err, got)
	}
	seen := map[store.PageID]bool{}
	for _, id := range free {
		if seen[id] || id == kids[0] {
			t.Fatalf("page %v on the free chain twice, or foreign", id)
		}
		seen[id] = true
	}
	if f, err := pool.Get(kids[0]); err != nil || f.Data.Owner() != 99 {
		t.Fatalf("the foreign page was touched (err %v)", err)
	} else {
		pool.Unpin(f, false)
	}
}
