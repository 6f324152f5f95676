package core

import (
	"fmt"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"anywheredb/internal/val"
)

// The differential harness runs one seeded workload through several
// executors that differ only in batch size — a batch size of 1 degenerates
// the vectored protocol to row-at-a-time, 7 exercises awkward partial
// batches, 0 is the adaptive default — and asserts the engines remain
// indistinguishable: same results, same row counts, same EXPLAIN ANALYZE
// plan shapes and actual-row counts.

// diffQuery is one workload statement plus comparison directives.
type diffQuery struct {
	sql string
	// ordered: the statement has ORDER BY, so row order must match too.
	ordered bool
	// skipExplain: under LIMIT the batch size legitimately changes how many
	// rows sub-operators produce before the limit is hit, so per-node
	// actual_rows are compared only for limit-free queries.
	skipExplain bool
	// dml: compare RowsAffected instead of a result set.
	dml    bool
	params []val.Value
	// shape is an operator label EXPLAIN ANALYZE must show: the statement is
	// in the corpus to run through that operator.
	shape string
	// same is an independently compiled statement that must return the same
	// rows: an aggregated expression is checked against the same expression
	// over a pre-aggregated CTE, where it is an ordinary scalar.
	same string
}

// orderByUnprojected sorts by a column the projection drops: the sort has to
// sit below the projection on every build path, cached or fresh.
const orderByUnprojected = "SELECT eid FROM emp WHERE did = 2 ORDER BY salary DESC"

var diffWorkload = []diffQuery{
	// Scans and filters.
	{sql: "SELECT eid, ename, salary FROM emp WHERE salary > 1100"},
	{sql: "SELECT eid FROM emp WHERE did = 3 AND eid < 150"},
	// Projection expressions.
	{sql: "SELECT eid, salary * 2, ename FROM emp WHERE eid < 50"},
	// Hash join, nested-loop join, and a three-way join.
	{sql: "SELECT ename, dname FROM emp, dept WHERE emp.did = dept.did AND salary < 1050", shape: "HashJoin|"},
	{sql: "SELECT ename FROM emp, dept WHERE emp.did = dept.did AND eid = 77", shape: "NestedLoopJoin|"},
	{sql: "SELECT e.ename, d.dname, b.tag FROM emp e, dept d, badge b " +
		"WHERE e.did = d.did AND e.eid = b.eid AND b.tag = 'gold'"},
	// Index-nested-loop join, planned; and chosen at run time by a hash join
	// whose build side (eid + 0 defeats the histogram) turns out small.
	{sql: "SELECT b.tag, e.ename FROM badge b, emp e WHERE b.eid = e.eid AND b.eid < 5", shape: "IndexNLJoin(emp.emp_pk)|"},
	{sql: "SELECT b.tag, e.ename FROM badge b, emp e WHERE b.eid = e.eid AND b.eid + 0 < 5", shape: "HashJoin[->INL]|"},
	// Left outer join through explicit JOIN syntax.
	{sql: "SELECT d.dname, b.tag FROM dept d LEFT OUTER JOIN badge b ON d.did = b.eid"},
	// Aggregation, grouping, HAVING.
	{sql: "SELECT COUNT(*), SUM(salary), MIN(eid), MAX(eid) FROM emp"},
	{sql: "SELECT did, COUNT(*) AS n, AVG(salary) FROM emp GROUP BY did ORDER BY did", ordered: true},
	{sql: "SELECT did, COUNT(*) AS n FROM emp GROUP BY did HAVING COUNT(*) > 30 ORDER BY n DESC, did", ordered: true},
	// Predicates and functions over aggregates: select items and HAVING
	// compile through the same expression compiler as WHERE.
	{sql: "SELECT did, NOT (COUNT(*) > 1) FROM emp WHERE eid < 7 GROUP BY did",
		same: "WITH g (did, n) AS (SELECT did, COUNT(*) FROM emp WHERE eid < 7 GROUP BY did) SELECT did, NOT (n > 1) FROM g"},
	{sql: "SELECT did, SUM(salary) > 2007 AND COUNT(*) > 1 FROM emp WHERE eid < 8 GROUP BY did",
		same: "WITH g (did, s, n) AS (SELECT did, SUM(salary), COUNT(*) FROM emp WHERE eid < 8 GROUP BY did) SELECT did, s > 2007 AND n > 1 FROM g"},
	{sql: "SELECT did, COUNT(*) FROM emp WHERE eid < 13 GROUP BY did HAVING COUNT(*) BETWEEN ? AND ?", params: ints(3, 5),
		same: "WITH g (did, n) AS (SELECT did, COUNT(*) FROM emp WHERE eid < 13 GROUP BY did) SELECT did, n FROM g WHERE n BETWEEN 3 AND 5"},
	{sql: "SELECT did FROM emp WHERE eid < 13 GROUP BY did HAVING COUNT(*) IN (2, 7)",
		same: "WITH g (did, n) AS (SELECT did, COUNT(*) FROM emp WHERE eid < 13 GROUP BY did) SELECT did FROM g WHERE n IN (2, 7)"},
	{sql: "SELECT d.did, SUM(b.eid) FROM dept d LEFT OUTER JOIN badge b ON d.did = b.eid GROUP BY d.did HAVING SUM(b.eid) IS NOT NULL",
		same: "WITH g (did, s) AS (SELECT d.did, SUM(b.eid) FROM dept d LEFT OUTER JOIN badge b ON d.did = b.eid GROUP BY d.did) SELECT did, s FROM g WHERE s IS NOT NULL"},
	{sql: "SELECT did, ABS(SUM(0 - salary)) FROM emp GROUP BY did",
		same: "WITH g (did, s) AS (SELECT did, SUM(0 - salary) FROM emp GROUP BY did) SELECT did, ABS(s) FROM g"},
	// Sorting, with and without LIMIT; by an alias, and by a column that is
	// not projected.
	{sql: "SELECT eid AS k FROM emp WHERE did = 2 ORDER BY k DESC", ordered: true},
	{sql: orderByUnprojected, ordered: true},
	{sql: "SELECT eid, salary FROM emp ORDER BY salary DESC, eid", ordered: true},
	{sql: "SELECT eid FROM emp ORDER BY eid LIMIT 10", ordered: true, skipExplain: true},
	{sql: "SELECT eid FROM emp WHERE did = 1 LIMIT 5", skipExplain: true},
	// DISTINCT and UNION [ALL].
	{sql: "SELECT DISTINCT did FROM emp"},
	{sql: "SELECT did FROM emp WHERE eid < 20 UNION ALL SELECT did FROM dept"},
	{sql: "SELECT did FROM emp WHERE eid < 20 UNION SELECT did FROM dept"},
	// Subqueries.
	{sql: "SELECT ename FROM emp WHERE eid IN (SELECT eid FROM badge) AND EXISTS (SELECT 1 FROM badge WHERE tag = 'gold')"},
	{sql: "SELECT ename FROM emp WHERE did IN (SELECT did FROM dept WHERE dname = 'dept-2')"},
	// Recursive CTE.
	{sql: "WITH RECURSIVE nums (n) AS (SELECT 1 UNION ALL SELECT n + 1 FROM nums WHERE n < 200) " +
		"SELECT COUNT(*), SUM(n) FROM nums"},
	{sql: "WITH RECURSIVE nums (n) AS (SELECT 1 UNION ALL SELECT n + 1 FROM nums WHERE n < 50) " +
		"SELECT n FROM nums, dept WHERE nums.n = dept.did ORDER BY n", ordered: true},
	// DML: mutate identically on every engine, then re-verify reads.
	{sql: "UPDATE emp SET salary = salary + 10 WHERE did = 2", dml: true},
	{sql: "DELETE FROM emp WHERE eid >= 280", dml: true},
	{sql: "INSERT INTO emp VALUES (900, 'late-1', 0, 5000.5), (901, 'late-2', 1, 5001.5)", dml: true},
	{sql: "SELECT COUNT(*), SUM(salary) FROM emp"},
	{sql: "SELECT eid, ename FROM emp WHERE salary > 5000"},
}

// diffSeed loads the same deterministic dataset into one engine.
func diffSeed(t *testing.T, c *Conn) {
	t.Helper()
	seedEmp(t, c, 300)
	mustExec(t, c, "CREATE UNIQUE INDEX emp_pk ON emp (eid)")
	mustExec(t, c, "CREATE TABLE badge (eid INT, tag VARCHAR(10))")
	var sb strings.Builder
	sb.WriteString("INSERT INTO badge VALUES ")
	for i := 0; i < 60; i++ {
		if i > 0 {
			sb.WriteString(", ")
		}
		tag := "gold"
		if i%3 != 0 {
			tag = "silver"
		}
		fmt.Fprintf(&sb, "(%d, '%s')", i*4, tag)
	}
	mustExec(t, c, sb.String())
	mustExec(t, c, "CREATE STATISTICS emp")
	mustExec(t, c, "CREATE STATISTICS badge")
}

// renderRows canonicalizes a result set for comparison; unordered results
// are sorted so map-iteration nondeterminism (which predates the batch
// executor) cannot produce false diffs.
func renderRows(rows *Rows, ordered bool) []string {
	all := rows.All()
	out := make([]string, len(all))
	for i, r := range all {
		var sb strings.Builder
		for j, v := range r {
			if j > 0 {
				sb.WriteByte('|')
			}
			sb.WriteString(v.String())
		}
		out[i] = sb.String()
	}
	if !ordered {
		sort.Strings(out)
	}
	return out
}

// renderExplain canonicalizes EXPLAIN ANALYZE output down to the columns
// that must be batch-size invariant: operator label, est_rows, actual_rows.
// Invocations and time_us legitimately differ (fewer, larger batches).
func renderExplain(rows *Rows) []string {
	all := rows.All()
	out := make([]string, len(all))
	for i, r := range all {
		out[i] = r[0].String() + "|" + r[1].String() + "|" + r[2].String()
	}
	return out
}

func diffCompare(t *testing.T, q diffQuery, name string, got, want []string) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: %q: %d rows vs %d on row path", name, q.sql, len(got), len(want))
		return
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("%s: %q: row %d differs:\n  batch: %s\n  row:   %s", name, q.sql, i, got[i], want[i])
			return
		}
	}
}

func TestDifferentialRowVsBatch(t *testing.T) {
	type engine struct {
		name string
		c    *Conn
	}
	var engines []engine
	for _, cfg := range []struct {
		name string
		size int
	}{
		{"row(batch=1)", 1},
		{"batch=7", 7},
		{"batch=adaptive", 0},
	} {
		db := openDB(t, Options{})
		db.batchSize = cfg.size
		c := conn(t, db)
		diffSeed(t, c)
		engines = append(engines, engine{cfg.name, c})
	}
	base := engines[0]

	for _, q := range diffWorkload {
		if q.dml {
			res, err := base.c.Exec(q.sql)
			if err != nil {
				t.Fatalf("%s: %q: %v", base.name, q.sql, err)
			}
			for _, e := range engines[1:] {
				r, err := e.c.Exec(q.sql)
				if err != nil {
					t.Fatalf("%s: %q: %v", e.name, q.sql, err)
				}
				if r.RowsAffected != res.RowsAffected {
					t.Errorf("%s: %q: affected %d vs %d on row path",
						e.name, q.sql, r.RowsAffected, res.RowsAffected)
				}
			}
			continue
		}

		want := renderRows(mustQuery(t, base.c, q.sql, q.params...), q.ordered)
		for _, e := range engines[1:] {
			got := renderRows(mustQuery(t, e.c, q.sql, q.params...), q.ordered)
			diffCompare(t, q, e.name, got, want)
		}
		if q.same != "" {
			diffCompare(t, q, "vs "+q.same, want, renderRows(mustQuery(t, base.c, q.same), q.ordered))
		}

		if q.skipExplain {
			continue
		}
		wantEx := renderExplain(mustQuery(t, base.c, "EXPLAIN ANALYZE "+q.sql, q.params...))
		if plan := strings.Join(wantEx, "\n"); !strings.Contains(plan, q.shape) {
			t.Errorf("%q does not run through %s:\n%s", q.sql, q.shape, plan)
		}
		for _, e := range engines[1:] {
			gotEx := renderExplain(mustQuery(t, e.c, "EXPLAIN ANALYZE "+q.sql, q.params...))
			diffCompare(t, diffQuery{sql: "EXPLAIN ANALYZE " + q.sql}, e.name, gotEx, wantEx)
		}
	}
}

// TestDifferentialSnapshotBesideWriter runs the read half of the
// differential workload quiescent, then again while one transaction holds
// uncommitted changes of every kind to every table: each snapshot read —
// autocommit, or in a BEGIN READ ONLY opened beside the writer — must return
// exactly what it returned before the writer began, and the READ ONLY
// transaction keeps returning it after the writer commits. The writer's
// changes are all in the heap and the indexes by then, so every answer
// depends on version resolution choosing the pre-images.
func TestDifferentialSnapshotBesideWriter(t *testing.T) {
	db := openDB(t, Options{})
	sc := conn(t, db)
	diffSeed(t, sc)
	for _, q := range diffWorkload {
		if q.dml {
			mustExec(t, sc, q.sql)
		}
	}

	var before [][]string
	for _, q := range diffWorkload {
		if !q.dml {
			before = append(before, renderRows(mustQuery(t, sc, q.sql, q.params...), q.ordered))
		}
	}
	// expect runs every query of the workload on c and holds it to before.
	expect := func(when string, c *Conn) {
		t.Helper()
		i := 0
		for _, q := range diffWorkload {
			if q.dml {
				continue
			}
			got := renderRows(mustQuery(t, c, q.sql, q.params...), q.ordered)
			diffCompare(t, q, when, got, before[i])
			i++
		}
	}

	w := conn(t, db)
	mustExec(t, w, "BEGIN")
	for _, dirty := range []string{
		"UPDATE emp SET salary = salary + 1000, ename = 'dirty' WHERE did = 1",
		"DELETE FROM emp WHERE eid < 20",
		"UPDATE emp SET eid = eid + 10000, did = 4 WHERE did = 3",
		"INSERT INTO emp VALUES (4, 'dirty', 2, 9000.5), (950, 'dirty', 0, 1.5)",
		"UPDATE dept SET dname = 'dirty' WHERE did = 2",
		"DELETE FROM dept WHERE did = 4",
		"UPDATE dept SET did = 77 WHERE did = 0",
		"INSERT INTO dept VALUES (3, 'dirty')",
		"UPDATE badge SET tag = 'gold' WHERE tag = 'silver'",
		"DELETE FROM badge WHERE eid = 0",
		"UPDATE badge SET eid = eid + 1 WHERE eid > 100",
		"INSERT INTO badge VALUES (2, 'gold'), (3, 'dirty')",
	} {
		if res := mustExec(t, w, dirty); res.RowsAffected == 0 {
			t.Fatalf("%q changed nothing", dirty)
		}
	}
	expect("beside an open writer", sc)

	mustExec(t, sc, "BEGIN READ ONLY")
	expect("READ ONLY beside an open writer", sc)
	mustExec(t, w, "COMMIT")
	expect("READ ONLY across the writer's commit", sc)
	mustExec(t, sc, "COMMIT")
}

// TestDifferentialParams re-checks the prepared-statement path: parameters
// flow through plan-cache hits identically on both protocols.
func TestDifferentialParams(t *testing.T) {
	rowDB := openDB(t, Options{})
	rowDB.batchSize = 1
	batchDB := openDB(t, Options{})
	rc, bc := conn(t, rowDB), conn(t, batchDB)
	diffSeed(t, rc)
	diffSeed(t, bc)

	q := "SELECT ename, salary FROM emp WHERE did = ? AND eid < ?"
	for i := 0; i < 8; i++ {
		params := []val.Value{val.NewInt(int64(i % 5)), val.NewInt(int64(40 * (i + 1)))}
		want := renderRows(mustQuery(t, rc, q, params...), false)
		got := renderRows(mustQuery(t, bc, q, params...), false)
		diffCompare(t, diffQuery{sql: q}, "batch=adaptive", got, want)
	}
}

// --- DML vs SELECT ---------------------------------------------------------
//
// UPDATE and DELETE compile their WHERE and SET through the same binder,
// expression compiler and scan operators as SELECT. The corpus below holds
// them to that: for every predicate p, `UPDATE/DELETE ... WHERE p` must
// touch exactly the rows `SELECT ... WHERE p` returns, and `SET a = e`
// must store what `SELECT e` computes.

type dmlCase struct {
	sql    string // a WHERE clause, or a SET right-hand side
	params []val.Value
}

func ints(vs ...int64) []val.Value {
	out := make([]val.Value, len(vs))
	for i, v := range vs {
		out[i] = val.NewInt(v)
	}
	return out
}

var dmlPredCorpus = []dmlCase{
	// The statements the old core-private evaluator rejected.
	{sql: "id = 5 OR id = 6"},
	{sql: "NOT (id = 5)"},
	{sql: "id IN (SELECT id FROM tgt WHERE a > 2)"},
	{sql: "id NOT IN (SELECT id FROM pick)"},
	{sql: "ABS(a) = 3"},
	{sql: "-a > 2"},
	// Access-path shapes: probe, probe + residual, reversed operands, no
	// probe behind OR, range.
	{sql: "id = 17"},
	{sql: "17 = id"},
	{sql: "id = 21 AND a IS NULL"},
	{sql: "a > 0 AND id = 39"},
	{sql: "id = 7 OR a = 4"},
	{sql: "id >= 45"},
	{sql: "id = -1"},
	// NULL and three-valued logic.
	{sql: "a = NULL"},
	{sql: "a IS NULL"},
	{sql: "a IS NOT NULL"},
	{sql: "NOT (a > 0)"},
	{sql: "a > 0 OR a IS NULL"},
	{sql: "a <> 3"},
	{sql: "NOT (a > 0 AND s LIKE 'n-1%')"},
	{sql: "a IN (1, 2, NULL)"},
	{sql: "a NOT IN (1, NULL)"},
	{sql: "a NOT IN (1, 2)"},
	// LIKE / BETWEEN / IN.
	{sql: "s LIKE 'n-1%'"},
	{sql: "s NOT LIKE '%3'"},
	{sql: "id BETWEEN 10 AND 20"},
	{sql: "a NOT BETWEEN -1 AND 1"},
	{sql: "id IN (3, 33, 133, 999)"},
	// Bound parameters.
	{sql: "id = ?", params: ints(42)},
	{sql: "? = id", params: ints(43)},
	{sql: "id = ? AND a > ?", params: ints(44, -10)},
	{sql: "a BETWEEN ? AND ?", params: ints(-2, 2)},
	{sql: "s LIKE ?", params: []val.Value{val.NewStr("n-%7")}},
	{sql: "id IN (?, ?, ?)", params: ints(1, 2, 3)},
	{sql: "a = ?", params: []val.Value{val.Null}},
	// Conjuncts that reference no column gate the whole statement (SELECT
	// used to drop them and return every row).
	{sql: "1 = 0"},
	{sql: "1 = 1"},
	{sql: "id < 10 AND 1 = 0"},
	{sql: "? = 1", params: ints(1)},
	{sql: "? = 1 AND a > 0", params: ints(2)},
	{sql: "EXISTS (SELECT id FROM pick WHERE id = 500)"},
	{sql: "EXISTS (SELECT id FROM pick WHERE id = 4)"},
	{sql: "NOT EXISTS (SELECT id FROM pick WHERE id = 4) AND a > 0"},
	{sql: "NOT EXISTS (SELECT id FROM pick WHERE id = 3)"},
	// No WHERE at all is the empty string.
	{sql: ""},
}

var dmlSetCorpus = []dmlCase{
	{sql: "-a"},
	{sql: "ABS(a)"},
	{sql: "a + id * 2"},
	{sql: "a % 3"},
	{sql: "?", params: ints(11)},
	{sql: "a + ?", params: ints(100)},
	{sql: "NULL"},
}

// dmlDiffSeed loads tgt(id, a, s, mark): 60 rows, id unique, a and s with
// NULLs, mark = 0; and pick(id), a small side table for subqueries.
func dmlDiffSeed(t *testing.T, c *Conn, indexed bool) {
	t.Helper()
	mustExec(t, c, "CREATE TABLE tgt (id INT, a INT, s VARCHAR(10), mark INT)")
	mustExec(t, c, "CREATE TABLE pick (id INT)")
	var sb strings.Builder
	sb.WriteString("INSERT INTO tgt VALUES ")
	for i := 0; i < 60; i++ {
		if i > 0 {
			sb.WriteString(", ")
		}
		a, s := fmt.Sprint(i%11-5), fmt.Sprintf("'n-%d'", i%23)
		if i%7 == 0 {
			a = "NULL"
		}
		if i%13 == 0 {
			s = "NULL"
		}
		fmt.Fprintf(&sb, "(%d, %s, %s, 0)", i, a, s)
	}
	mustExec(t, c, sb.String())
	mustExec(t, c, "INSERT INTO pick VALUES (3), (50), (51), (59), (500)")
	if indexed {
		mustExec(t, c, "CREATE UNIQUE INDEX tgt_pk ON tgt (id)")
		mustExec(t, c, "CREATE INDEX tgt_a ON tgt (a)")
	}
	mustExec(t, c, "CREATE STATISTICS tgt")
}

func TestDifferentialDMLVsSelect(t *testing.T) {
	for _, cfg := range []struct {
		name              string
		batchSize         int
		indexed, columnar bool
	}{
		{name: "row(batch=1)/indexed", batchSize: 1, indexed: true},
		{name: "batch=7/unindexed", batchSize: 7},
		{name: "adaptive/unindexed"},
		{name: "adaptive/indexed", indexed: true},
		{name: "columnar/indexed", indexed: true, columnar: true},
	} {
		t.Run(cfg.name, func(t *testing.T) {
			db := openDB(t, Options{})
			db.batchSize = cfg.batchSize
			c := conn(t, db)
			dmlDiffSeed(t, c, cfg.indexed)
			all := renderRows(mustQuery(t, c, "SELECT id FROM tgt"), false)
			probes := 0

			for _, p := range dmlPredCorpus {
				where := ""
				if p.sql != "" {
					where = " WHERE " + p.sql
				}
				if cfg.columnar {
					// Every write invalidates the sealed segments; re-seal
					// so the SELECT side really reads them while DML target
					// collection reads the heap.
					mustExec(t, c, "ALTER TABLE tgt STORE COLUMNAR")
					if storage, _ := sysTableRow(t, c, "tgt"); storage != "columnar" {
						t.Fatalf("tgt storage %q", storage)
					}
				}
				want := renderRows(mustQuery(t, c, "SELECT id FROM tgt"+where, p.params...), false)

				// UPDATE, then the same UPDATE under EXPLAIN ANALYZE: the
				// rows marked twice are the rows both touched.
				upd := "UPDATE tgt SET mark = mark + 1" + where
				if res := mustExec(t, c, upd, p.params...); res.RowsAffected != int64(len(want)) {
					t.Errorf("%q: affected %d, SELECT returns %d", upd, res.RowsAffected, len(want))
				}
				ex := mustQuery(t, c, "EXPLAIN ANALYZE "+upd, p.params...).All()
				if got := ex[0][2]; got.IsNull() || got.I != int64(len(want)) {
					t.Errorf("EXPLAIN ANALYZE %q: root actual_rows %v, want %d", upd, got, len(want))
				}
				got := renderRows(mustQuery(t, c, "SELECT id FROM tgt WHERE mark = 2"), false)
				diffCompare(t, diffQuery{sql: upd}, "update-vs-select", got, want)
				if n := mustQuery(t, c, "SELECT id FROM tgt WHERE mark <> 0 AND mark <> 2").Count(); n != 0 {
					t.Errorf("%q: %d rows updated by only one of UPDATE / EXPLAIN ANALYZE UPDATE", upd, n)
				}
				mustExec(t, c, "UPDATE tgt SET mark = 0")

				// One estimate: where both statements probe an index, they
				// expect the same number of rows from it.
				selScan, selEst := indexScanLine(mustQuery(t, c, "EXPLAIN SELECT id FROM tgt"+where, p.params...))
				updScan, updEst := indexScanLine(mustQuery(t, c, "EXPLAIN "+upd, p.params...))
				if selScan != "" && updScan != "" {
					probes++
					if selScan != updScan || selEst != updEst {
						t.Errorf("%q: SELECT probes %s expecting %s rows, UPDATE %s expecting %s",
							p.sql, selScan, selEst, updScan, updEst)
					}
				}

				// DELETE inside a transaction, rolled back: what survives is
				// the complement of the SELECT.
				del := "DELETE FROM tgt" + where
				mustExec(t, c, "BEGIN")
				if res := mustExec(t, c, del, p.params...); res.RowsAffected != int64(len(want)) {
					t.Errorf("%q: affected %d, SELECT returns %d", del, res.RowsAffected, len(want))
				}
				gone := map[string]bool{}
				for _, id := range want {
					gone[id] = true
				}
				var complement []string
				for _, id := range all {
					if !gone[id] {
						complement = append(complement, id)
					}
				}
				left := renderRows(mustQuery(t, c, "SELECT id FROM tgt"), false)
				diffCompare(t, diffQuery{sql: del}, "delete-vs-select", left, complement)
				mustExec(t, c, "ROLLBACK")
			}

			for _, s := range dmlSetCorpus {
				want := renderRows(mustQuery(t, c, "SELECT id, "+s.sql+" FROM tgt", s.params...), false)
				upd := "UPDATE tgt SET a = " + s.sql
				mustExec(t, c, "BEGIN")
				mustExec(t, c, upd, s.params...)
				got := renderRows(mustQuery(t, c, "SELECT id, a FROM tgt"), false)
				diffCompare(t, diffQuery{sql: upd}, "set-vs-select", got, want)
				mustExec(t, c, "ROLLBACK")
			}

			if cfg.indexed && !cfg.columnar && probes < 8 {
				t.Errorf("only %d corpus predicates probed an index in both SELECT and UPDATE", probes)
			}

			// A bound parameter must still reach the row through the index,
			// whose probe hands its RIDs to the claim with no Filter above.
			if cfg.indexed {
				plan := renderExplain(mustQuery(t, c, "EXPLAIN UPDATE tgt SET mark = 0 WHERE id = ?", val.NewInt(9)))
				if len(plan) != 1 || !strings.HasPrefix(plan[0], "IndexScan(tgt.tgt_pk)|") {
					t.Errorf("EXPLAIN UPDATE ... WHERE id = ?: %q", plan)
				}
			}
		})
	}
}

// indexScanLine finds the IndexScan of an EXPLAIN result: its label and
// est_rows ("" when the plan has none).
func indexScanLine(rows *Rows) (label, est string) {
	for _, r := range rows.All() {
		if l := strings.TrimSpace(r[0].String()); strings.HasPrefix(l, "IndexScan(") {
			return l, r[1].String()
		}
	}
	return "", ""
}

// --- Literal vs parameter, cached vs fresh ---------------------------------

var constantRE = regexp.MustCompile(`'[^']*'|\?|LIMIT \d+|\b\d+(\.\d+)?\b`)

// liftConstants rewrites a statement the way a client binding parameters
// would send it: every string and numeric literal becomes `?` and its value
// a parameter (already-bound `?`s keep their place in the order). LIMIT's
// count is syntax, not a value, and stays.
func liftConstants(t *testing.T, sql string, bound []val.Value) (string, []val.Value) {
	t.Helper()
	var params []val.Value
	lifted := constantRE.ReplaceAllStringFunc(sql, func(m string) string {
		switch {
		case m == "?":
			params, bound = append(params, bound[0]), bound[1:]
		case strings.HasPrefix(m, "LIMIT"):
			return m
		case m[0] == '\'':
			params = append(params, val.NewStr(m[1:len(m)-1]))
		case strings.Contains(m, "."):
			f, err := strconv.ParseFloat(m, 64)
			if err != nil {
				t.Fatalf("lift %q: %v", sql, err)
			}
			params = append(params, val.NewDouble(f))
		default:
			n, err := strconv.ParseInt(m, 10, 64)
			if err != nil {
				t.Fatalf("lift %q: %v", sql, err)
			}
			params = append(params, val.NewInt(n))
		}
		return "?"
	})
	return lifted, params
}

// TestDifferentialLiteralVsParam holds a parameter to being its value: each
// corpus statement with its constants lifted to `?` returns the same rows
// (or affects the same number) as the literal form, and plans the same tree
// with the same estimates — an index probe for an indexed `id = ?`.
func TestDifferentialLiteralVsParam(t *testing.T) {
	litC, parC := conn(t, openDB(t, Options{})), conn(t, openDB(t, Options{}))
	diffSeed(t, litC)
	diffSeed(t, parC)
	dmlDiffSeed(t, litC, true)
	dmlDiffSeed(t, parC, true)

	corpus := append([]diffQuery(nil), diffWorkload...)
	for _, p := range dmlPredCorpus {
		if p.sql != "" {
			corpus = append(corpus, diffQuery{sql: "SELECT id FROM tgt WHERE " + p.sql, params: p.params})
		}
	}
	for _, q := range corpus {
		lifted, params := liftConstants(t, q.sql, q.params)
		if q.dml {
			want, got := mustExec(t, litC, q.sql, q.params...), mustExec(t, parC, lifted, params...)
			if got.RowsAffected != want.RowsAffected {
				t.Errorf("%q: affected %d, literal form %d", lifted, got.RowsAffected, want.RowsAffected)
			}
			continue
		}
		want := renderRows(mustQuery(t, litC, q.sql, q.params...), q.ordered)
		got := renderRows(mustQuery(t, parC, lifted, params...), q.ordered)
		diffCompare(t, diffQuery{sql: lifted}, "parameters", got, want)
		wantEx := renderExplain(mustQuery(t, litC, "EXPLAIN "+q.sql, q.params...))
		gotEx := renderExplain(mustQuery(t, parC, "EXPLAIN "+lifted, params...))
		diffCompare(t, diffQuery{sql: "EXPLAIN " + lifted}, "parameters", gotEx, wantEx)
	}

	scan, _ := indexScanLine(mustQuery(t, parC, "EXPLAIN SELECT a FROM tgt WHERE id = ?", val.NewInt(9)))
	if scan != "IndexScan(tgt.tgt_pk)" {
		t.Errorf("EXPLAIN SELECT ... WHERE id = ?: index scan %q, want IndexScan(tgt.tgt_pk)", scan)
	}
}

// TestDifferentialCachedVsFresh runs each corpus SELECT six times on one
// connection — three training optimizations, then plan-cache hits, one of
// them a verification — and holds every run to a fresh connection's first:
// same rows, and exactly one Sort in the tree when the statement has ORDER
// BY, whichever path built it.
func TestDifferentialCachedVsFresh(t *testing.T) {
	db := openDB(t, Options{})
	c := conn(t, db)
	diffSeed(t, c)

	sorts := func(q diffQuery, path string, plan *Rows) {
		t.Helper()
		n := 0
		for _, line := range renderExplain(plan) {
			if strings.HasPrefix(strings.TrimSpace(line), "Sort|") {
				n++
			}
		}
		if want := strings.Count(q.sql, "ORDER BY"); n != want {
			t.Errorf("%s: %q: %d Sort operators, want %d:\n%s", path, q.sql, n, want, strings.Join(renderExplain(plan), "\n"))
		}
	}
	for _, q := range diffWorkload {
		if q.dml {
			mustExec(t, c, q.sql, q.params...)
			continue
		}
		fresh := conn(t, db)
		want := renderRows(mustQuery(t, fresh, q.sql, q.params...), q.ordered)
		fresh.Close()

		hits := counter(t, db, "opt.plancache.hits")
		for run := 1; run <= 6; run++ {
			rows := mustQuery(t, c, q.sql, q.params...)
			sorts(q, fmt.Sprintf("run %d", run), explainRows(rows.Plan(), false))
			diffCompare(t, q, fmt.Sprintf("cached(run %d)", run), renderRows(rows, q.ordered), want)
		}
		if hits = counter(t, db, "opt.plancache.hits") - hits; q.sql == orderByUnprojected && hits < 2 {
			t.Errorf("%q: %d plan-cache hits in six runs, want >= 2", q.sql, hits)
		}
		// EXPLAIN shares the statement's cache entry: the first one below is
		// the entry's second verification, the second a plain hit.
		for i := 0; i < 2; i++ {
			sorts(q, "EXPLAIN", mustQuery(t, c, "EXPLAIN "+q.sql, q.params...))
		}
	}
	if n := counter(t, db, "opt.plancache.invalidations"); n != 0 {
		t.Errorf("%d plan-cache invalidations on an unchanging schema", n)
	}
}

// loadPairs creates a two-INT-column table of n rows, large enough (with
// statistics) that an equality on an indexed column plans as an index probe.
func loadPairs(t *testing.T, c *Conn, name, cols string, n int, row func(i int) (int, int)) {
	t.Helper()
	mustExec(t, c, fmt.Sprintf("CREATE TABLE %s (%s)", name, cols))
	var sb strings.Builder
	fmt.Fprintf(&sb, "INSERT INTO %s VALUES ", name)
	for i := 0; i < n; i++ {
		if i > 0 {
			sb.WriteString(", ")
		}
		a, b := row(i)
		fmt.Fprintf(&sb, "(%d, %d)", a, b)
	}
	mustExec(t, c, sb.String())
}

// TestPlanCacheRevalidatesIndexes: a cached join order names indexes by
// pointer. Dropping and re-creating a table and index under the same names
// must not leave the connection probing the dropped table's tree.
func TestPlanCacheRevalidatesIndexes(t *testing.T) {
	db := openDB(t, Options{})
	c := conn(t, db)
	for _, scale := range []int{10, 1000} {
		loadPairs(t, c, "t", "id INT, v INT", 400, func(i int) (int, int) { return i, i * scale })
		mustExec(t, c, "CREATE UNIQUE INDEX t_id ON t (id)")
		mustExec(t, c, "CREATE STATISTICS t")
		for run := 0; run < 6; run++ {
			got := mustQuery(t, c, "SELECT v FROM t WHERE id = 7").All()
			if len(got) != 1 || got[0][0].I != int64(7*scale) {
				t.Fatalf("scale %d, run %d: %v, want %d", scale, run, got, 7*scale)
			}
		}
		mustExec(t, c, "DROP TABLE t")
	}
	if hits := counter(t, db, "opt.plancache.hits"); hits < 3 {
		t.Errorf("%d plan-cache hits: the statement never ran on a cached order", hits)
	}
}

// TestDMLTargetScanTakesNoTableLock pins the locking of DML target
// collection: two open transactions updating disjoint rows of one table
// must not block each other (no table-level Shared lock from the scan),
// a one-row UPDATE makes one lock-manager call (the table IX, by
// UpdateChecked; an uncontended row is locked by its version entry), and
// the collection scan stays out of the reorganizer's scan counts.
func TestDMLTargetScanTakesNoTableLock(t *testing.T) {
	for _, indexed := range []bool{true, false} {
		// A writer blocked behind a table lock fails the statement timeout
		// instead of hanging the test.
		db := openDB(t, Options{StatementTimeout: 2 * time.Second})
		c1, c2 := conn(t, db), conn(t, db)
		dmlDiffSeed(t, c1, indexed)
		st0, _ := db.FlightRecorder().Access().Get("tgt")

		mustExec(t, c1, "BEGIN")
		mustExec(t, c2, "BEGIN")
		before := counter(t, db, "lock.acquires")
		mustExec(t, c1, "UPDATE tgt SET mark = 1 WHERE id = 10")
		if got := counter(t, db, "lock.acquires") - before; got != 1 {
			t.Errorf("indexed=%v: one-row UPDATE made %d lock acquires, want 1", indexed, got)
		}
		if res := mustExec(t, c2, "UPDATE tgt SET mark = 2 WHERE id = 20"); res.RowsAffected != 1 {
			t.Errorf("indexed=%v: second writer affected %d rows", indexed, res.RowsAffected)
		}
		mustExec(t, c1, "COMMIT")
		mustExec(t, c2, "COMMIT")
		if counter(t, db, "lock.waits") != 0 {
			t.Errorf("indexed=%v: writers of disjoint rows waited on each other", indexed)
		}
		st, _ := db.FlightRecorder().Access().Get("tgt")
		if st.Scans != st0.Scans || st.Writes != st0.Writes+2 {
			t.Errorf("indexed=%v: access digest scans %d→%d writes %d→%d, want +0 / +2",
				indexed, st0.Scans, st.Scans, st0.Writes, st.Writes)
		}
	}
}
