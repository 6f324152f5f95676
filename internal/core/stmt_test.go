package core

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"anywheredb/internal/sqlparse"
)

// checkStmtTable asserts what makes one Shape safe to share across
// connections and texts: after whatever the test ran, every shape still in
// the table is filed under the key a fresh read of the text it last served
// gives, and has the AST, error and fingerprint that read parses to —
// nothing downstream of Prepare wrote to it. openDB runs this at the end of
// every core test; -race adds the concurrent half.
func checkStmtTable(t testing.TB, db *DB) {
	t.Helper()
	tb := &db.stmts
	tb.mu.Lock()
	defer tb.mu.Unlock()
	var bytes int64
	for el := tb.lru.Front(); el != nil; el = el.Next() {
		sh := el.Value.(*Shape)
		bytes += sh.cost
		text := sh.last.Text
		if tb.byKey[sh.key] != el {
			t.Errorf("statement table: %q is on the LRU list but not in the map", sh.key)
		}
		var rd sqlparse.Reader
		key, lifted := rd.Read(text)
		ast, fp, err := rd.Parse()
		if err != nil && lifted != nil {
			rd.Verbatim()
			key, lifted = nil, nil
			ast, fp, err = rd.Parse()
		}
		if key == nil {
			key = []byte(text)
		}
		if string(key) != sh.key || !reflect.DeepEqual(lifted, sh.last.lifted) || rd.UserParams() != sh.last.nUser {
			t.Errorf("%q: filed under %q with values %v after %d parameters, a fresh read gives %q, %v, %d",
				text, sh.key, sh.last.lifted, sh.last.nUser, key, lifted, rd.UserParams())
		}
		if fp != sh.Fingerprint || fmt.Sprint(err) != fmt.Sprint(sh.Err) {
			t.Errorf("%q: fingerprint %q err %v, a fresh read gives %q, %v", text, sh.Fingerprint, sh.Err, fp, err)
		}
		// EXPLAIN keeps the source text of the statement it explains, which
		// is the first spelling's: any spelling finds the same shape by it.
		if ex, ok := ast.(*sqlparse.Explain); ok && sh.Err == nil {
			ex.Text = sh.AST.(*sqlparse.Explain).Text
		}
		if !reflect.DeepEqual(ast, sh.AST) {
			t.Errorf("%q: the shared AST was mutated after Prepare:\n now   %#v\n fresh %#v", text, sh.AST, ast)
		}
	}
	if n := tb.lru.Len(); bytes != tb.bytes.Load() || bytes > stmtCacheBytes || n != len(tb.byKey) || int64(n) != tb.entries.Load() {
		t.Errorf("statement table: %d bytes on the list, %d accounted, bound %d; %d list entries, %d map entries, %d accounted",
			bytes, tb.bytes.Load(), stmtCacheBytes, n, len(tb.byKey), tb.entries.Load())
	}
}

func TestStmtClassification(t *testing.T) {
	db := openDB(t, Options{})
	for _, c := range []struct {
		sql      string
		routable bool
		writes   bool
		kind     stmtKind
	}{
		{sql: "SELECT v FROM kv WHERE k = 1", routable: true, kind: kindQuery},
		// The substring test kept this home for its literal.
		{sql: "SELECT v FROM kv WHERE s = 'sys.x'", routable: true, kind: kindQuery},
		{sql: "SELECT v FROM kv WHERE s = 'property('", routable: true, kind: kindQuery},
		{sql: "SELECT k FROM kv a JOIN kv b ON a.k = b.k", routable: true, kind: kindQuery},
		// Instance state, however it is spelled and wherever it hides.
		{sql: "SELECT PROPERTY('buffer.hits')", kind: kindQuery},
		{sql: "SELECT PROPERTY ('buffer.hits')", kind: kindQuery},
		{sql: "SELECT property\n('buffer.hits')", kind: kindQuery},
		{sql: "SELECT name FROM sys.properties", kind: kindQuery},
		{sql: "SELECT name FROM sys . properties", kind: kindQuery},
		{sql: "SELECT name FROM SYS.Properties p", kind: kindQuery},
		{sql: "WITH t (n) AS (SELECT name FROM sys.tables) SELECT n FROM t", kind: kindQuery},
		{sql: "SELECT v FROM kv WHERE s IN (SELECT name FROM sys.tables)", kind: kindQuery},
		{sql: "SELECT v FROM kv WHERE NOT EXISTS (SELECT 1 FROM kv, sys.tables)", kind: kindQuery},
		{sql: "SELECT k FROM kv UNION ALL SELECT value FROM sys.properties", kind: kindQuery},
		{sql: "SELECT k FROM kv a JOIN kv b ON a.k = b.k AND PROPERTY('x') > 0", kind: kindQuery},
		{sql: "SELECT k FROM kv a LEFT OUTER JOIN sys.tables t ON a.s = t.name", kind: kindQuery},
		{sql: "SELECT k FROM kv WHERE k BETWEEN 1 AND ABS(PROPERTY('x'))", kind: kindQuery},
		{sql: "SELECT k, COUNT(*) FROM kv GROUP BY k HAVING COUNT(*) > PROPERTY('x')", kind: kindQuery},
		{sql: "SELECT k FROM kv ORDER BY PROPERTY('x')", kind: kindQuery},
		// Not a bare SELECT: never routed.
		{sql: "EXPLAIN SELECT v FROM kv", kind: kindQuery},
		{sql: "EXPLAIN ANALYZE SELECT v FROM kv", kind: kindQuery},
		{sql: "EXPLAIN ANALYZE DELETE FROM kv", writes: true},
		{sql: "EXPLAIN DELETE FROM kv"},
		{sql: "INSERT INTO kv VALUES (1, 'a')", writes: true},
		{sql: "INSERT INTO kv SELECT k, s FROM kv", writes: true, kind: kindSubquery},
		{sql: "UPDATE kv SET s = 'b' WHERE k = 1", writes: true},
		{sql: "UPDATE kv SET s = 'b' WHERE k IN (SELECT k FROM kv)", writes: true, kind: kindSubquery},
		{sql: "DELETE FROM kv WHERE EXISTS (SELECT 1 FROM kv)", writes: true, kind: kindSubquery},
		{sql: "CREATE TABLE z (a INT)", writes: true},
		{sql: "BEGIN", kind: kindBegin},
		{sql: "BEGIN READ ONLY", kind: kindBeginRO},
		{sql: "COMMIT"},
		{sql: "SELEC v FROM kv"},
	} {
		st := db.Prepare(c.sql)
		if st.Routable != c.routable || st.writes != c.writes || st.kind != c.kind {
			t.Errorf("%q: routable=%v writes=%v kind=%d, want %v %v %d",
				c.sql, st.Routable, st.writes, st.kind, c.routable, c.writes, c.kind)
		}
		if (st.Err == nil) != (st.AST != nil) {
			t.Errorf("%q: AST %v beside error %v", c.sql, st.AST, st.Err)
		}
	}
}

// TestStmtSharedAcrossConnections: one text is one Stmt, whoever prepares
// it, so eight connections train its plan once between them and hit
// thereafter; dropping and re-creating the table under it invalidates that
// one slot, which retrains.
func TestStmtSharedAcrossConnections(t *testing.T) {
	db := openDB(t, Options{})
	c0 := conn(t, db)
	load := func(scale int) {
		loadPairs(t, c0, "t", "id INT, v INT", 400, func(i int) (int, int) { return i, i * scale })
		mustExec(t, c0, "CREATE UNIQUE INDEX t_id ON t (id)")
		mustExec(t, c0, "CREATE STATISTICS t")
	}
	const q = "SELECT v FROM t WHERE id = 7"
	delta := func(name string, base int64) int64 { return counter(t, db, name) - base }
	storm := func(scale int) {
		t.Helper()
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				c, err := db.Connect()
				if err != nil {
					t.Error(err)
					return
				}
				defer c.Close()
				if st := db.Prepare(q); st != db.Prepare(q) {
					t.Error("two Prepares of one text returned two statements")
				}
				for i := 0; i < 25; i++ {
					rows, err := c.Query(q)
					if err != nil || rows.Count() != 1 || rows.All()[0][0].I != int64(7*scale) {
						t.Errorf("scale %d: %v, %v", scale, rows, err)
						return
					}
				}
			}()
		}
		wg.Wait()
	}

	load(10)
	parses, hits, trainings := counter(t, db, "sqlparse.parses"), counter(t, db, "opt.plancache.hits"), counter(t, db, "opt.plancache.trainings")
	for i := 0; i < 3; i++ {
		mustQuery(t, c0, q)
	}
	storm(10)
	if p, tr, h := delta("sqlparse.parses", parses), delta("opt.plancache.trainings", trainings), delta("opt.plancache.hits", hits); p != 1 || tr != 3 || h != 200 {
		t.Errorf("203 executions on 9 connections: %d parses, %d trainings, %d hits, want 1, 3, 200", p, tr, h)
	}
	if n := counter(t, db, "opt.plancache.invalidations"); n != 0 {
		t.Errorf("%d invalidations on an unchanging schema", n)
	}

	mustExec(t, c0, "DROP TABLE t")
	load(1000)
	trainings, hits = counter(t, db, "opt.plancache.trainings"), counter(t, db, "opt.plancache.hits")
	for i := 0; i < 3; i++ {
		if got := mustQuery(t, c0, q).All(); got[0][0].I != 7000 {
			t.Fatalf("after DROP/CREATE: %v, want 7000 (a plan probing the dropped table's index?)", got)
		}
	}
	if inv, tr := counter(t, db, "opt.plancache.invalidations"), delta("opt.plancache.trainings", trainings); inv != 1 || tr != 3 {
		t.Errorf("after DROP/CREATE: %d invalidations, %d trainings, want 1 and 3", inv, tr)
	}
	storm(1000)
	if h := delta("opt.plancache.hits", hits); h != 201 {
		t.Errorf("after retraining: %d hits, want 201 (the stale one and 200 since)", h)
	}
}

// TestInsertSelectTrainsItsOwnSlot: an INSERT ... SELECT caches its source
// query's plan in the INSERT statement's own slot. Two different ones never
// share — filed under one key, the second used to run on the first's join
// order, index pointer included — and one that repeats trains and hits.
func TestInsertSelectTrainsItsOwnSlot(t *testing.T) {
	db := openDB(t, Options{})
	c := conn(t, db)
	loadPairs(t, c, "a", "id INT, v INT", 400, func(i int) (int, int) { return i, i * 10 })
	loadPairs(t, c, "b", "k INT, w INT", 400, func(i int) (int, int) { return i % 40, 1000 + i })
	mustExec(t, c, "CREATE TABLE x (p INT, q INT)")
	mustExec(t, c, "CREATE UNIQUE INDEX a_id ON a (id)")
	mustExec(t, c, "CREATE INDEX b_k ON b (k)")
	mustExec(t, c, "CREATE STATISTICS a")
	mustExec(t, c, "CREATE STATISTICS b")
	hits, trainings := counter(t, db, "opt.plancache.hits"), counter(t, db, "opt.plancache.trainings")
	for i := 0; i < 4; i++ {
		mustExec(t, c, "INSERT INTO x SELECT id, v FROM a WHERE id = 7")
	}
	if h, tr := counter(t, db, "opt.plancache.hits")-hits, counter(t, db, "opt.plancache.trainings")-trainings; h != 1 || tr != 3 {
		t.Errorf("one INSERT ... SELECT run four times: %d hits, %d trainings, want 1 and 3", h, tr)
	}
	mustExec(t, c, "DELETE FROM x")
	hits = counter(t, db, "opt.plancache.hits")
	if res := mustExec(t, c, "INSERT INTO x SELECT k, w FROM b WHERE k = 3"); res.RowsAffected != 10 {
		t.Errorf("INSERT ... SELECT FROM b inserted %d rows, want 10", res.RowsAffected)
	}
	if h := counter(t, db, "opt.plancache.hits") - hits; h != 0 {
		t.Errorf("a different INSERT ... SELECT hit a plan slot on its first run (%d hits)", h)
	}
	got := renderRows(mustQuery(t, c, "SELECT p, q FROM x"), false)
	want := renderRows(mustQuery(t, c, "SELECT k, w FROM b WHERE k = 3"), false)
	diffCompare(t, diffQuery{sql: "INSERT INTO x SELECT k, w FROM b WHERE k = 3"}, "inserted", got, want)
}

// TestExplainReadsItsTextOnce: an EXPLAIN's shape holds the shape of the
// statement it explains, interned when the EXPLAIN's was, so a repeated
// EXPLAIN of a known shape reads no text again — parses nothing — and
// explains the plan slot the bare statement runs on.
func TestExplainReadsItsTextOnce(t *testing.T) {
	db := openDB(t, Options{})
	c := conn(t, db)
	loadPairs(t, c, "t", "id INT, v INT", 100, func(i int) (int, int) { return i, i * 10 })
	const q = "SELECT v FROM t WHERE id = 7"
	mustQuery(t, c, q)
	mustQuery(t, c, "EXPLAIN "+q)
	if ex, bare := db.Prepare("EXPLAIN "+q).Shape, db.Prepare(q).Shape; ex.inner != bare {
		t.Fatalf("the EXPLAIN's shape explains %p, the statement's shape is %p", ex.inner, bare)
	}
	parses := counter(t, db, "sqlparse.parses")
	for i := 0; i < 5; i++ {
		mustQuery(t, c, fmt.Sprintf("EXPLAIN SELECT v FROM t WHERE id = %d", i))
		mustQuery(t, c, fmt.Sprintf("EXPLAIN ANALYZE SELECT v FROM t WHERE id = %d", i))
	}
	if p := counter(t, db, "sqlparse.parses") - parses; p != 1 {
		t.Errorf("ten EXPLAINs of one known shape, five of them ANALYZE (a shape of its own): %d parses, want 1", p)
	}
}

// padded returns a distinct statement of exactly n bytes.
func padded(tag string, n int) string {
	s := "SELECT '" + tag + "'"
	return s + strings.Repeat(" ", n-len(s))
}

// TestStmtTableLRUEviction: the table evicts by recency of Prepare, counted
// in bytes of text.
func TestStmtTableLRUEviction(t *testing.T) {
	db := openDB(t, Options{})
	third := stmtCacheBytes / 3
	a, b := db.Prepare(padded("a", third)), db.Prepare(padded("b", third))
	if db.Prepare(a.Text) != a { // refresh a
		t.Fatal("a resident text was prepared twice")
	}
	db.Prepare(padded("c", third+3)) // a + b + c is over the bound
	if db.Prepare(b.Text) == b {
		t.Error("b should have been evicted (least recently prepared)")
	}
	if n := counter(t, db, "core.stmt_cache.evictions"); n < 1 {
		t.Errorf("core.stmt_cache.evictions = %d", n)
	}
	// Preparing b again displaced a, which had become the oldest; a text
	// larger than the whole bound displaces everything, itself included.
	if db.Prepare(a.Text) == a {
		t.Error("a should have been evicted after b was prepared again")
	}
	big := db.Prepare(padded("big", stmtCacheBytes+1))
	if big.Err != nil || counter(t, db, "core.stmt_cache.entries") != 0 || counter(t, db, "core.stmt_cache.bytes") != 0 {
		t.Errorf("oversize text: err %v, %d entries, %d bytes left, want an empty table",
			big.Err, counter(t, db, "core.stmt_cache.entries"), counter(t, db, "core.stmt_cache.bytes"))
	}
}

// TestStmtTableByteBound: ten thousand distinct shapes (a literal in the
// select list stays in the key) leave the table at or under its constant,
// and a statement someone still holds runs after the table has forgotten it.
func TestStmtTableByteBound(t *testing.T) {
	db := openDB(t, Options{})
	c := conn(t, db)
	mustExec(t, c, "CREATE TABLE kv (k INT, s VARCHAR(20))")
	mustExec(t, c, "INSERT INTO kv VALUES (1, 'one'), (2, 'two')")
	held := db.Prepare("SELECT s FROM kv WHERE k = 2")
	for i := 0; i < 10000; i++ {
		sql := fmt.Sprintf("SELECT s, 'shape-%d' FROM kv WHERE k = %d AND s <> 'literal-%d'", i, i%3, i)
		if i%50 != 0 {
			db.Prepare(sql)
		} else if want := min(i%3, 1); mustQuery(t, c, sql).Count() != want {
			t.Fatalf("%q: want %d rows", sql, want)
		}
	}
	entries, bytes, evictions := counter(t, db, "core.stmt_cache.entries"), counter(t, db, "core.stmt_cache.bytes"), counter(t, db, "core.stmt_cache.evictions")
	if bytes > stmtCacheBytes || entries == 0 || entries+evictions < 10000 {
		t.Errorf("table holds %d entries, %d bytes (bound %d) after %d evictions", entries, bytes, stmtCacheBytes, evictions)
	}
	if db.Prepare(held.Text) == held {
		t.Fatal("the held statement was never evicted: the test did not fill the table")
	}
	_, rows, err := c.Run(context.Background(), held, nil)
	if err != nil || rows.Count() != 1 || rows.All()[0][0].S != "two" {
		t.Errorf("running an evicted statement: %v, %v", rows, err)
	}
}

// TestStmtTelemetryInSysProperties: the statement table's gauges and the
// parse counter are published, and a malformed statement is a statement —
// interned with its error, counted as one parse, and recorded in
// sys.statements under its fallback fingerprint every time it is run.
func TestStmtTelemetryInSysProperties(t *testing.T) {
	db := openDB(t, Options{})
	c := conn(t, db)
	parses := counter(t, db, "sqlparse.parses")
	for i := 0; i < 3; i++ {
		if _, err := c.Exec("SELECT 'unterminated   FROM\tT"); err == nil || !strings.Contains(err.Error(), "unterminated string") {
			t.Fatalf("malformed statement: %v", err)
		}
	}
	if n := counter(t, db, "sqlparse.parses") - parses; n != 1 {
		t.Errorf("a malformed text run three times was read %d times, want 1", n)
	}
	rows := mustQuery(t, c, "SELECT calls, errors FROM sys.statements WHERE fingerprint = 'select ''unterminated from t'")
	if rows.Count() != 1 || rows.All()[0][0].I != 3 || rows.All()[0][1].I != 3 {
		t.Errorf("sys.statements row of the malformed statement: %v", rows.All())
	}
	seen := map[string]bool{}
	for _, r := range mustQuery(t, c, "SELECT name FROM sys.properties").All() {
		seen[r[0].S] = true
	}
	for _, name := range []string{"core.stmt_cache.entries", "core.stmt_cache.bytes", "core.stmt_cache.evictions", "sqlparse.parses",
		"opt.plancache.hits", "opt.plancache.misses", "opt.plancache.trainings", "opt.plancache.verifications", "opt.plancache.invalidations"} {
		if !seen[name] {
			t.Errorf("sys.properties has no %q", name)
		}
	}
}
