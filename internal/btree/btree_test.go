package btree

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"testing/quick"

	"anywheredb/internal/buffer"
	"anywheredb/internal/page"
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
		checkTree(t, tr, true)
		return !full.Valid()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

const pad = "................................................................"

// checkTree walks every node of tr and fails t unless the tree is well
// formed: each node's cells are in key order; every separator bounds its
// children, each key left of it at most the separator and each key right
// of it at least (a key equal to the separator on its left is allowed only
// when dups says the tree holds duplicate runs); every leaf is at the same
// depth, and the sibling chain visits the leaves in order; and Stats
// agrees with the walk on height, leaf pages and entries. It returns the
// free bytes of every node, level by level from the root, left to right.
func checkTree(t testing.TB, tr *Tree, dups bool) (free [][]int) {
	t.Helper()
	type node struct {
		leaf  bool
		next  store.PageID
		free  int
		keys  [][]byte
		child []store.PageID // internal nodes: the leftmost child, then one per cell
	}
	read := func(id store.PageID) node {
		f, err := tr.pool.Get(id)
		if err != nil {
			t.Fatalf("checkTree: page %v: %v", id, err)
		}
		defer tr.pool.Unpin(f, false)
		f.RLock()
		defer f.RUnlock()
		n := node{leaf: isLeaf(f.Data), next: store.PageID(f.Data.Next()), free: f.Data.FreeSpace()}
		if !n.leaf {
			n.child = append(n.child, n.next)
		}
		for i := 0; i < f.Data.NumSlots(); i++ {
			k, v := cellKV(f.Data.Cell(i))
			n.keys = append(n.keys, append([]byte(nil), k...))
			if !n.leaf {
				n.child = append(n.child, pageIDFromBytes(v))
			}
		}
		return n
	}
	var leaves []store.PageID
	entries, height := 0, -1
	// walk checks the subtree at id, whose keys the separators above it put
	// at or above lo and at or below hi (nil: unbounded).
	var walk func(id store.PageID, depth int, lo, hi []byte)
	walk = func(id store.PageID, depth int, lo, hi []byte) {
		n := read(id)
		if len(free) < depth {
			free = append(free, nil)
		}
		free[depth-1] = append(free[depth-1], n.free)
		for i, k := range n.keys {
			if i > 0 {
				if c := bytes.Compare(n.keys[i-1], k); c > 0 || c == 0 && !dups {
					t.Fatalf("checkTree: node %v: cell %d (%q) after %q", id, i, k, n.keys[i-1])
				}
			}
			if lo != nil && bytes.Compare(k, lo) < 0 {
				t.Fatalf("checkTree: node %v: key %q below its separator %q", id, k, lo)
			}
			if c := bytes.Compare(k, hi); hi != nil && (c > 0 || c == 0 && !dups) {
				t.Fatalf("checkTree: node %v: key %q not below its right separator %q", id, k, hi)
			}
		}
		if n.leaf {
			if height == -1 {
				height = depth
			} else if depth != height {
				t.Fatalf("checkTree: leaf %v at depth %d, another at %d", id, depth, height)
			}
			leaves = append(leaves, id)
			entries += len(n.keys)
			return
		}
		for i, c := range n.child {
			clo, chi := lo, hi
			if i > 0 {
				clo = n.keys[i-1]
			}
			if i < len(n.keys) {
				chi = n.keys[i]
			}
			walk(c, depth+1, clo, chi)
		}
	}
	walk(tr.Root(), 1, nil, nil)

	id := leaves[0]
	for i, want := range leaves {
		if id != want {
			t.Fatalf("checkTree: leaf %d of the chain is %v, the walk's is %v", i, id, want)
		}
		id = read(id).next
	}
	if id != 0 {
		t.Fatalf("checkTree: the sibling chain goes on past the last leaf, to %v", id)
	}
	if h, lp, e := tr.Stats.Height.Load(), tr.Stats.LeafPages.Load(), tr.Stats.Entries.Load(); h != int64(height) || lp != int64(len(leaves)) || e != int64(entries) {
		t.Fatalf("checkTree: Stats say height %d, %d leaves, %d entries; the walk finds %d, %d, %d", h, lp, e, height, len(leaves), entries)
	}
	return free
}

// mixedKey draws a key from one of five shapes, so that one tree meets
// them all: ascending and descending runs, random keys, a small domain of
// duplicates, and keys that are prefixes of each other ("p", "pa", "pab",
// …), which put separator truncation at a key's end.
func mixedKey(rng *rand.Rand, op int) string {
	switch rng.Intn(5) {
	case 0:
		return fmt.Sprintf("asc-%06d", op)
	case 1:
		return fmt.Sprintf("desc-%06d", 1000000-op)
	case 2:
		return fmt.Sprintf("rnd-%08x", rng.Uint32())
	case 3:
		return fmt.Sprintf("dup-%d", rng.Intn(4))
	}
	return "p" + "abcdefghijklmnop"[:rng.Intn(17)]
}

// TestQuickMixedKeyOrders runs inserts of every key shape mixedKey makes,
// and deletes, against a reference, then checks the tree's shape.
func TestQuickMixedKeyOrders(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tr, _, _ := newTree(t, 128)
		ref := map[string][]string{}
		var keys []string // every key inserted, to pick deletes from
		n := 0
		for op := 0; op < 4000; op++ {
			if len(keys) > 0 && rng.Intn(4) == 0 {
				key := keys[rng.Intn(len(keys))]
				if vals := ref[key]; len(vals) > 0 {
					i := rng.Intn(len(vals))
					if ok, err := tr.Delete([]byte(key), []byte(vals[i])); err != nil || !ok {
						t.Logf("seed %d: Delete(%s, %s) = %v, %v", seed, key, vals[i], ok, err)
						return false
					}
					ref[key] = append(vals[:i:i], vals[i+1:]...)
					n--
					continue
				}
			}
			key := mixedKey(rng, op)
			val := fmt.Sprintf("v%06d-%s", op, pad[:rng.Intn(len(pad))])
			if err := tr.Insert([]byte(key), []byte(val)); err != nil {
				return false
			}
			ref[key] = append(ref[key], val)
			keys = append(keys, key)
			n++
		}
		checkTree(t, tr, true)
		var sorted []string
		for k, vals := range ref {
			if len(vals) > 0 {
				sorted = append(sorted, k)
			}
		}
		sort.Strings(sorted)
		it, err := tr.First()
		if err != nil {
			return false
		}
		defer it.Close()
		for _, k := range sorted {
			for _, want := range ref[k] {
				if !it.Valid() || string(it.Key()) != k || string(it.Value()) != want {
					t.Logf("seed %d: the scan lost (%s, %s)", seed, k, want)
					return false
				}
				it.Next()
			}
			if got, ok, err := tr.Search([]byte(k)); err != nil || !ok || string(got) != ref[k][0] {
				t.Logf("seed %d: Search(%s) = %s, %v, %v", seed, k, got, ok, err)
				return false
			}
		}
		return !it.Valid() && tr.Stats.Entries.Load() == int64(n)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickInsertUniqueAgainstReference: on a tree InsertUnique alone
// fills, it refuses exactly the keys a reference holds, whatever order the
// keys come in and whatever deletes did to the leaves.
func TestQuickInsertUniqueAgainstReference(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tr, _, _ := newTree(t, 128)
		ref := map[string]bool{}
		var keys []string
		for op := 0; op < 4000; op++ {
			if len(keys) > 0 && rng.Intn(4) == 0 {
				key := keys[rng.Intn(len(keys))]
				ok, err := tr.Delete([]byte(key), nil)
				if err != nil || ok != ref[key] {
					t.Logf("seed %d: Delete(%s) = %v, %v; the reference holds it: %v", seed, key, ok, err, ref[key])
					return false
				}
				ref[key] = false
				continue
			}
			key := mixedKey(rng, op) + pad[:rng.Intn(len(pad))]
			err := tr.InsertUnique([]byte(key), v(op))
			if errors.Is(err, ErrDuplicate) != ref[key] || err != nil && !errors.Is(err, ErrDuplicate) {
				t.Logf("seed %d: InsertUnique(%s) = %v; the reference holds it: %v", seed, key, err, ref[key])
				return false
			}
			ref[key] = true
			keys = append(keys, key)
		}
		checkTree(t, tr, false)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

// TestAscendingLoadFillsNodes: keys that arrive in order fill each node
// before starting the next, so 20 000 integer keys take half the leaves,
// and every node but the last of its level is at least three quarters
// full, internal nodes too. Keys in random order split nodes in the middle
// as before, but the short separators leaf splits promote put their ~200
// leaves under one root too.
func TestAscendingLoadFillsNodes(t *testing.T) {
	filled := func(name string, free [][]int) {
		t.Helper()
		for depth, level := range free {
			for i, f := range level[:len(level)-1] {
				if f > page.Size/4 {
					t.Errorf("%s: node %d of %d at depth %d has %d bytes free", name, i, len(level), depth+1, f)
				}
			}
		}
	}
	const n = 20000
	asc := kvTree(t, n)
	filled("ascending integer keys", checkTree(t, asc, false))
	t.Logf("ascending load: height %d, %d leaves", asc.Stats.Height.Load(), asc.Stats.LeafPages.Load())
	if h, lp := asc.Stats.Height.Load(), asc.Stats.LeafPages.Load(); h != 2 || lp > 140 {
		t.Errorf("ascending load of %d keys: height %d and %d leaves, want 2 and ≤ 140", n, h, lp)
	}
	wide, _, st := newTree(t, 256)
	fillTree(t, wide, st, 3000)
	if h := wide.Stats.Height.Load(); h < 3 {
		t.Fatalf("3 000 wide keys: height %d, the test wants internal nodes below the root", h)
	}
	filled("ascending wide keys", checkTree(t, wide, false))
	// Random-order loads of the same keys, when every split cut a node in
	// the middle and promoted a full key, had 201, 192 and 192 leaves.
	for seed, before := range []int64{201, 192, 192} {
		tr := kvTree(t, 0)
		for _, i := range rand.New(rand.NewSource(int64(seed + 1))).Perm(n) {
			if err := tr.Insert(kvKey(i), kvRID(i)); err != nil {
				t.Fatal(err)
			}
		}
		checkTree(t, tr, false)
		t.Logf("random load, seed %d: height %d, %d leaves", seed+1, tr.Stats.Height.Load(), tr.Stats.LeafPages.Load())
		if h, lp := tr.Stats.Height.Load(), tr.Stats.LeafPages.Load(); h != 2 || 10*lp < 9*before || 10*lp > 11*before {
			t.Errorf("random load, seed %d: height %d and %d leaves, want 2 and within 10%% of %d", seed+1, h, lp, before)
		}
	}
}

// TestOnlyTheRightEdgeFillsAscending: a key that goes past the last of a
// leaf inside the tree splits it in the middle. Packing it instead would
// leave the new key alone in a leaf that its right neighbour's separator
// closes to every key but the few between them. Even keys in order, then
// odd keys in order, meet that case once per leaf, and leave every leaf
// but the last at least 40 % full.
func TestOnlyTheRightEdgeFillsAscending(t *testing.T) {
	tr, _, _ := newTree(t, 256)
	const n = 10000
	for _, odd := range []int{0, 1} {
		for i := odd; i < n; i += 2 {
			if err := tr.Insert(k(i), v(i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	free := checkTree(t, tr, false)
	leaves := free[len(free)-1]
	for i, f := range leaves[:len(leaves)-1] {
		if 10*f > 6*page.Size {
			t.Fatalf("leaf %d of %d has %d bytes free", i, len(leaves), f)
		}
	}
}

// TestInsertUniqueRace: goroutines that InsertUnique one key at once see
// exactly one success between them, round after round.
func TestInsertUniqueRace(t *testing.T) {
	tr := kvTree(t, 1000)
	const racers = 8
	for round := 0; round < 200; round++ {
		key := kvKey(1000 + round)
		var wg sync.WaitGroup
		start := make(chan struct{})
		errs := make([]error, racers)
		for g := range errs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				errs[g] = tr.InsertUnique(key, kvRID(g))
			}()
		}
		close(start)
		wg.Wait()
		ok := 0
		for _, err := range errs {
			switch {
			case err == nil:
				ok++
			case !errors.Is(err, ErrDuplicate):
				t.Fatal(err)
			}
		}
		if ok != 1 {
			t.Fatalf("round %d: %d of %d racers inserted the key", round, ok, racers)
		}
	}
	checkTree(t, tr, false)
}

// TestProbePinsHeightPages: a point probe, and a unique insert that checks
// and inserts without a split, each pin one page per level.
func TestProbePinsHeightPages(t *testing.T) {
	const n = 20000
	tr := kvTree(t, n)
	height, leaves := tr.Stats.Height.Load(), tr.Stats.LeafPages.Load()
	for _, c := range []struct {
		name string
		fn   func()
	}{
		{"Search", func() { tr.Search(kvKey(n / 2)) }},
		{"InsertUnique", func() { tr.InsertUnique(kvKey(n), kvRID(n)) }},
		{"refused InsertUnique", func() { tr.InsertUnique(kvKey(n/3), kvRID(0)) }},
	} {
		before := tr.pool.Stats()
		c.fn()
		after := tr.pool.Stats()
		if got := int64(after.Hits + after.Misses - before.Hits - before.Misses); got != height {
			t.Errorf("%s pins %d pages, the tree has %d levels", c.name, got, height)
		}
	}
	if tr.Stats.LeafPages.Load() != leaves {
		t.Fatal("the insert split a leaf: the test wants one that fits")
	}
}

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

// BenchmarkTreeInsertUnique is the unique index's write: the same keys in
// the same order, each checked and inserted in one descent.
func BenchmarkTreeInsertUnique(b *testing.B) {
	tr := kvTree(b, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := tr.InsertUnique(kvKey(i), kvRID(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// wideKey keeps the fan-out low, so a few thousand keys make a tree with
// internal nodes below the root. The digits that tell keys apart come after
// the pad, so a separator, the shortest prefix that does, is as wide as the
// key.
func wideKey(i int) []byte { return []byte(fmt.Sprintf("key-%0200d-%06d", 0, i)) }

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
