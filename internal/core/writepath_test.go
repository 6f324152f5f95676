package core

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"anywheredb/internal/store"
	"anywheredb/internal/val"
)

// loadKV creates the benchmark's table shape — (id, grp, v, pad) with
// id = 0…n−1, grp = id % 16, v = id % 1000 and a 64-byte pad — and loads it
// the way the benchmark's set-up does: one transaction of 500-row INSERTs.
func loadKV(t testing.TB, c *Conn, name string, n int) {
	t.Helper()
	mustExec(t, c, fmt.Sprintf("CREATE TABLE %s (id INT, grp INT, v INT, pad VARCHAR(72))", name))
	pad := strings.Repeat("p", 64)
	mustExec(t, c, "BEGIN")
	for lo := 0; lo < n; lo += 500 {
		var sb strings.Builder
		fmt.Fprintf(&sb, "INSERT INTO %s VALUES ", name)
		for i := lo; i < min(lo+500, n); i++ {
			if i > lo {
				sb.WriteString(", ")
			}
			fmt.Fprintf(&sb, "(%d, %d, %d, '%s')", i, i%16, i%1000, pad)
		}
		mustExec(t, c, sb.String())
	}
	mustExec(t, c, "COMMIT")
}

// TestDifferentialIndexVsNoIndex: every `WHERE v = k` count must be the
// same through a non-unique index and without one, on a table large enough
// that each key's 20 duplicates straddle leaf splits — before and after a
// DELETE and an UPDATE that have to find their index entries inside those
// runs. The hand corpus above runs on tables whose duplicates never leave
// one leaf, which is how a descent that lost the left part of a split run
// (160 of these 1 000 keys counted short) went unnoticed.
func TestDifferentialIndexVsNoIndex(t *testing.T) {
	const n, domain = 20000, 1000
	db := openDB(t, Options{})
	c := conn(t, db)
	loadKV(t, c, "kv", n)
	mustExec(t, c, "CREATE INDEX kv_v ON kv (v)")
	mustExec(t, c, "CREATE STATISTICS kv")
	plan := strings.Join(renderExplain(mustQuery(t, c, "EXPLAIN SELECT COUNT(*) FROM kv WHERE v = ?", val.NewInt(12))), "\n")
	if !strings.Contains(plan, "IndexScan(kv.kv_v)") {
		t.Fatalf("the probe does not use the index:\n%s", plan)
	}

	compare := func(phase string, want func(k int) int64) {
		t.Helper()
		// Without the index: one grouped scan of the heap.
		scanned := map[int64]int64{}
		for _, r := range mustQuery(t, c, "SELECT v, COUNT(*) FROM kv GROUP BY v").All() {
			scanned[r[0].I] = r[1].I
		}
		bad := 0
		for k := 0; k < domain; k++ {
			got := mustQuery(t, c, "SELECT COUNT(*) FROM kv WHERE v = ?", val.NewInt(int64(k))).All()[0][0].I
			if got != scanned[int64(k)] || got != want(k) {
				if bad++; bad <= 5 {
					t.Errorf("%s: v = %d counts %d through the index, %d by scan, want %d", phase, k, got, scanned[int64(k)], want(k))
				}
			}
		}
		if bad > 5 {
			t.Errorf("%s: %d of %d keys disagree", phase, bad, domain)
		}
	}
	compare("loaded", func(int) int64 { return n / domain })

	if res := mustExec(t, c, "DELETE FROM kv WHERE id < ?", val.NewInt(n/2)); res.RowsAffected != n/2 {
		t.Fatalf("DELETE affected %d rows", res.RowsAffected)
	}
	compare("half deleted", func(int) int64 { return n / domain / 2 })

	// Re-key the rows whose v is even: each moves one key up, out of one
	// run of duplicates and into the next.
	if res := mustExec(t, c, "UPDATE kv SET v = v + 1 WHERE grp = 0 OR grp = 2 OR grp = 4 OR grp = 6 OR grp = 8 OR grp = 10 OR grp = 12 OR grp = 14"); res.RowsAffected != n/4 {
		t.Fatalf("UPDATE affected %d rows", res.RowsAffected)
	}
	compare("re-keyed", func(k int) int64 { return int64(k%2) * n / domain })
	tbl, _ := db.Table("kv")
	if got := tbl.Indexes[0].Tree.Stats.Entries.Load(); got != n/2 {
		t.Errorf("the index holds %d entries for %d rows: stale entries leaked", got, n/2)
	}
}

// TestWritePathCostIndependentOfTableSize: what a one-row INSERT and a
// one-row transaction cost in page pins depends on the height of the
// index, and on nothing else about the table — not on how many locks the
// load once held, nor on how many rows there are. An INSERT pins the index
// once per level (one descent checks the key and inserts it), the heap's
// tail page and three lock-table buckets: height + 4. BEGIN, SELECT by
// key, UPDATE by key, COMMIT pins two descents and seven heap pages and
// lock-table buckets: 2·height + 7. A split now and then adds a few
// hundredths. It also holds the lock table to its steady-state size: ≤ 2
// buckets once the load has committed, and a temporary file that stops
// growing.
func TestWritePathCostIndependentOfTableSize(t *testing.T) {
	type cost struct {
		insert, rmw float64
		height      int64
	}
	measure := func(n int) cost {
		db := openDB(t, Options{PoolMinPages: 4096, PoolInitPages: 4096, PoolMaxPages: 4096})
		c := conn(t, db)
		loadKV(t, c, "kv", n)
		mustExec(t, c, "CREATE UNIQUE INDEX kv_id ON kv (id)")
		if b := counter(t, db, "lock.buckets"); b > 2 {
			t.Errorf("%d rows: lock.buckets = %d after the load committed, want ≤ 2", n, b)
		}
		pins := func() int64 { return counter(t, db, "buffer.hits") + counter(t, db, "buffer.misses") }
		const ops = 200
		pad := val.NewStr(strings.Repeat("q", 64))
		insert := func(id int) {
			mustExec(t, c, "INSERT INTO kv VALUES (?, ?, ?, ?)", val.NewInt(int64(id)), val.NewInt(int64(id%16)), val.NewInt(int64(id%1000)), pad)
		}
		before := pins()
		for i := 0; i < ops; i++ {
			insert(n + i)
		}
		out := cost{insert: float64(pins()-before) / ops}
		before = pins()
		for i := 0; i < ops; i++ {
			id := val.NewInt(int64(i * 7919 % n))
			mustExec(t, c, "BEGIN")
			if rows := mustQuery(t, c, "SELECT v FROM kv WHERE id = ?", id).All(); len(rows) != 1 {
				t.Fatalf("%d rows: SELECT of id %v returned %d rows", n, id.I, len(rows))
			}
			if res := mustExec(t, c, "UPDATE kv SET v = v + 1 WHERE id = ?", id); res.RowsAffected != 1 {
				t.Fatalf("%d rows: UPDATE of id %v affected %d rows", n, id.I, res.RowsAffected)
			}
			mustExec(t, c, "COMMIT")
		}
		out.rmw = float64(pins()-before) / ops
		tbl, _ := db.Table("kv")
		out.height = tbl.Indexes[0].Tree.Stats.Height.Load()

		temp := db.Store().PageCount(store.TempFile)
		for i := 0; i < 1000; i++ {
			insert(n + ops + i)
		}
		if got := db.Store().PageCount(store.TempFile); got != temp {
			t.Errorf("%d rows: the temporary file grew from %d to %d pages over 1000 commits", n, temp, got)
		}
		if b := counter(t, db, "lock.buckets"); b > 2 {
			t.Errorf("%d rows: lock.buckets = %d in steady state", n, b)
		}
		return out
	}
	small, large := measure(5000), measure(50000)
	t.Logf("page pins per op: INSERT %.2f → %.2f, BEGIN/SELECT/UPDATE/COMMIT %.2f → %.2f, index height %d → %d",
		small.insert, large.insert, small.rmw, large.rmw, small.height, large.height)
	for _, c := range []cost{small, large} {
		h := float64(c.height)
		if math.Abs(c.insert-(h+4)) > 0.05 {
			t.Errorf("index height %d: INSERT pins %.2f pages, want height + 4 = %v", c.height, c.insert, h+4)
		}
		if math.Abs(c.rmw-(2*h+7)) > 0.05 {
			t.Errorf("index height %d: a one-row transaction pins %.2f pages, want 2·height + 7 = %v", c.height, c.rmw, 2*h+7)
		}
	}
}
