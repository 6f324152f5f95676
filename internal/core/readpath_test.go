package core

import (
	"strings"
	"sync"
	"testing"
	"time"
)

// Which access path fetches a row must never change the answer: the engine
// moves statements between paths on its own (a hash join switches to its
// index at run time, an index appears or goes), so the tests here hold the
// index paths to what a heap scan returns while writers are in flight.

// joinUnderWriter is one plan shape of TestJoinReadsUnderOpenWriter.
type joinUnderWriter struct {
	name, sql, operator string
	// before is the answer ahead of the writer's transaction, after the
	// answer once it has committed (and what the writer itself sees).
	before, after string
}

var joinsUnderWriter = []joinUnderWriter{
	{"IndexNLJoin/inner", "SELECT a.id, b.v FROM a JOIN b ON a.k = b.k WHERE a.id < 5", "IndexNLJoin(b.b_k)",
		"1|10 2|20 2|21 3|10", "1|11 1|999 3|11 3|999 4|70"},
	{"IndexNLJoin/left-outer", "SELECT a.id, b.v FROM a LEFT OUTER JOIN b ON a.k = b.k WHERE a.id < 5", "IndexNLJoin(b.b_k)",
		"1|10 2|20 2|21 3|10 4|NULL", "1|11 1|999 2|NULL 3|11 3|999 4|70"},
	// id + 0 defeats the histogram: the optimizer expects a build side too
	// big to probe with, the build delivers four rows, the join switches.
	{"HashJoin->INL/inner", "SELECT a.id, b.v FROM a JOIN b ON a.k = b.k WHERE a.id + 0 < 5", "HashJoin[->INL]",
		"1|10 2|20 2|21 3|10", "1|11 1|999 3|11 3|999 4|70"},
	{"HashJoin->INL/left-outer", "SELECT a.id, b.v FROM a LEFT OUTER JOIN b ON a.k = b.k WHERE a.id + 0 < 5", "HashJoin[->INL]",
		"1|10 2|20 2|21 3|10 4|NULL", "1|11 1|999 2|NULL 3|11 3|999 4|70"},
}

// seedJoinUnderWriter loads a (40 rows, a.k = a.id except that id 3 shares
// id 1's key and id 4 has no match) and b (4001 rows, v = 10k, two rows for
// k = 2, a non-unique index on k).
func seedJoinUnderWriter(t *testing.T, c *Conn) {
	t.Helper()
	loadPairs(t, c, "a", "id INT, k INT", 40, func(i int) (int, int) {
		switch id := i + 1; id {
		case 3:
			return id, 1
		case 4:
			return id, 100000
		default:
			return id, id
		}
	})
	loadPairs(t, c, "b", "k INT, v INT", 4000, func(i int) (int, int) { return i + 1, (i + 1) * 10 })
	mustExec(t, c, "INSERT INTO b VALUES (2, 21)")
	mustExec(t, c, "CREATE INDEX b_k ON b (k)")
	mustExec(t, c, "CREATE STATISTICS a")
	mustExec(t, c, "CREATE STATISTICS b")
}

// writeJoinInner opens a transaction on w and leaves it open. It changes a
// row of the joins' inner table in place, deletes one, re-keys one out of
// the probed keys and one into them, and inserts one.
func writeJoinInner(t *testing.T, w *Conn) {
	t.Helper()
	mustExec(t, w, "BEGIN")
	mustExec(t, w, "UPDATE b SET v = 999 WHERE k = 1")
	mustExec(t, w, "DELETE FROM b WHERE v = 20")
	mustExec(t, w, "UPDATE b SET k = 5000 WHERE v = 21")
	mustExec(t, w, "UPDATE b SET k = 100000 WHERE k = 7")
	mustExec(t, w, "INSERT INTO b VALUES (1, 11)")
}

// runJoin runs j on c and checks that it ran through the operator it
// names. It fails the test without stopping it, so a goroutine may call it.
func runJoin(t *testing.T, c *Conn, j joinUnderWriter) string {
	t.Helper()
	rows, err := c.Query(j.sql)
	if err != nil {
		t.Errorf("%s: %v", j.name, err)
		return ""
	}
	got := strings.Join(renderRows(rows, false), " ")
	if plan := strings.Join(renderExplain(explainRows(rows.Plan(), false)), "\n"); !strings.Contains(plan, j.operator) {
		t.Errorf("%s did not run as %s:\n%s", j.name, j.operator, plan)
	}
	if hj := rows.Plan().HashJoins; strings.HasPrefix(j.operator, "HashJoin") && (len(hj) != 1 || hj[0].Mode() != "inl") {
		t.Errorf("%s: %d hash joins, want one in mode inl", j.name, len(hj))
	}
	return got
}

func TestJoinReadsUnderOpenWriter(t *testing.T) {
	// expect runs every join on c and holds it to one of its two answers.
	expect := func(t *testing.T, when string, c *Conn, answer func(joinUnderWriter) string) {
		t.Helper()
		for _, j := range joinsUnderWriter {
			if got, want := runJoin(t, c, j), answer(j); got != want {
				t.Errorf("%s, %s: %s, want %s", j.name, when, got, want)
			}
		}
	}
	before := func(j joinUnderWriter) string { return j.before }
	after := func(j joinUnderWriter) string { return j.after }

	t.Run("snapshot", func(t *testing.T) {
		// A read that waits on the writer fails the statement timeout.
		db := openDB(t, Options{StatementTimeout: 5 * time.Second})
		w, r, ro := conn(t, db), conn(t, db), conn(t, db)
		seedJoinUnderWriter(t, w)
		mustExec(t, ro, "BEGIN READ ONLY")
		expect(t, "READ ONLY before the writer", ro, before)
		writeJoinInner(t, w)
		expect(t, "beside the open writer", r, before)
		expect(t, "READ ONLY beside the open writer", ro, before)
		expect(t, "the writer's own read", w, after)
		if n := counter(t, db, "lock.waits"); n != 0 {
			t.Errorf("%d lock waits: a snapshot read waited on the writer", n)
		}
		mustExec(t, w, "COMMIT")
		expect(t, "READ ONLY across the writer's commit", ro, before)
		mustExec(t, ro, "COMMIT")
		expect(t, "after the commit", r, after)
	})
}

// TestIndexedDMLSurvivesConcurrentDelete: an UPDATE that finds its targets
// through a non-unique index, racing a connection that deletes and
// re-inserts rows under the same key. An index entry whose row has gone by
// the time it is fetched is a row deleted since the scan, not an error —
// the heap-scan plan of the same statement never fails on it.
func TestIndexedDMLSurvivesConcurrentDelete(t *testing.T) {
	db := openDB(t, Options{})
	u, d := conn(t, db), conn(t, db)
	loadPairs(t, u, "t", "k INT, v INT", 4000, func(i int) (int, int) { return i / 4, 0 })
	mustExec(t, u, "CREATE INDEX t_k ON t (k)")
	mustExec(t, u, "CREATE STATISTICS t")
	const update = "UPDATE t SET v = v + 1 WHERE k = 1"
	if plan := strings.Join(renderExplain(mustQuery(t, u, "EXPLAIN "+update)), "\n"); !strings.Contains(plan, "IndexScan(t.t_k)") {
		t.Fatalf("the UPDATE does not find its rows through the index:\n%s", plan)
	}

	const rounds = 300
	var wg sync.WaitGroup
	run := func(c *Conn, stmts ...string) {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			for _, s := range stmts {
				if _, err := c.Exec(s); err != nil {
					t.Errorf("round %d: %q: %v", i, s, err)
					return
				}
			}
		}
	}
	wg.Add(2)
	go run(u, update)
	go run(d, "DELETE FROM t WHERE k = 1", "INSERT INTO t VALUES (1, 0), (1, 0), (1, 0), (1, 0)")
	wg.Wait()

	indexed := mustQuery(t, u, "SELECT COUNT(*) FROM t WHERE k = 1").All()[0][0].I
	var scanned int64
	for _, r := range mustQuery(t, u, "SELECT k, COUNT(*) FROM t GROUP BY k").All() {
		if r[0].I == 1 {
			scanned = r[1].I
		}
	}
	if indexed != scanned || scanned != 4 {
		t.Errorf("k = 1 counts %d through the index, %d by scan, want 4", indexed, scanned)
	}
	if n := mustQuery(t, u, "SELECT COUNT(*) FROM t").All()[0][0].I; n != 4000 {
		t.Errorf("%d rows, want 4000", n)
	}
}
