package core

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"

	"anywheredb/internal/sqlparse"
	"anywheredb/internal/val"
)

// acctDB loads the benchmark's table shape — (id, grp, v, pad) with a unique
// index on id — and warms the statements the allocation tests and
// benchmarks below run, so that what they measure is the trained path.
func acctDB(t testing.TB, rows int) (*DB, *Conn) {
	t.Helper()
	db := openDB(t, Options{})
	c := conn(t, db)
	mustExec(t, c, "CREATE TABLE acct (id INT, grp INT, v INT, pad VARCHAR(72))")
	mustExec(t, c, "BEGIN")
	for lo := 0; lo < rows; lo += 500 {
		sql := "INSERT INTO acct VALUES "
		for id := lo; id < min(lo+500, rows); id++ {
			if id > lo {
				sql += ","
			}
			sql += fmt.Sprintf("(%d,%d,%d,'%064d')", id, id%16, id%1000, id)
		}
		mustExec(t, c, sql)
	}
	mustExec(t, c, "COMMIT")
	mustExec(t, c, "CREATE UNIQUE INDEX acct_id ON acct (id)")
	return db, c
}

// rmw is the benchmark's read-modify-write transaction as ad-hoc literal
// SQL: a fresh key, and so two never-seen texts, each time.
func rmw(t testing.TB, c *Conn, k int64) {
	mustExec(t, c, "BEGIN")
	rows := mustQuery(t, c, fmt.Sprintf("SELECT v FROM acct WHERE id = %d", k))
	if rows.Count() != 1 {
		t.Fatalf("id %d: %d rows", k, rows.Count())
	}
	v := rows.All()[0][0].I
	if res := mustExec(t, c, fmt.Sprintf("UPDATE acct SET v = %d WHERE id = %d", v+1, k)); res.RowsAffected != 1 {
		t.Fatalf("id %d: updated %d rows", k, res.RowsAffected)
	}
	mustExec(t, c, "COMMIT")
}

// mallocs reports the heap objects allocated per call of fn over n calls.
func mallocs(n int, fn func(i int)) float64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		fn(i)
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(n)
}

// TestStatementAllocationCeilings: what a warm statement costs in heap
// objects through core.Conn, and that a known shape is never parsed again.
// The ceilings are the ledger's (ROADMAP item 2) seen from below the wire.
func TestStatementAllocationCeilings(t *testing.T) {
	const rows, n = 4000, 1000
	db, c := acctDB(t, rows)
	for k := int64(0); k < 8; k++ {
		rmw(t, c, k)
	}
	point := db.Prepare("SELECT v FROM acct WHERE id = ?")
	lookup := func(i int) {
		_, rs, err := c.Run(context.Background(), point, []val.Value{val.NewInt(int64(i % rows))})
		if err != nil || rs.Count() != 1 {
			t.Fatalf("id %d: %v, %v", i%rows, rs, err)
		}
	}
	for i := 0; i < 8; i++ {
		lookup(i)
	}

	parses, misses := counter(t, db, "sqlparse.parses"), counter(t, db, "opt.plancache.misses")
	perRMW := mallocs(n, func(i int) { rmw(t, c, int64(100+i)) })
	perLookup := mallocs(n, lookup)
	t.Logf("objects per op: rmw transaction %.1f, prepared point lookup %.1f", perRMW, perLookup)
	if perRMW > 150 {
		t.Errorf("the rmw transaction allocates %.1f objects, ceiling 150", perRMW)
	}
	if perLookup > 45 {
		t.Errorf("the prepared point lookup allocates %.1f objects, ceiling 45", perLookup)
	}
	if p, m := counter(t, db, "sqlparse.parses")-parses, counter(t, db, "opt.plancache.misses")-misses; p != 0 || m != 0 {
		t.Errorf("%d warm transactions and %d lookups: %d parses, %d plan-cache misses, want none", n, n, p, m)
	}
}

// BenchmarkAdHocPointLookup and BenchmarkPreparedPointLookup put objects per
// statement in every commit's CI log (-benchmem), without the driver. Each
// trains its shape before the clock starts, so even -benchtime=1x measures
// the statement a running system executes: a known shape, a cached template.
func BenchmarkAdHocPointLookup(b *testing.B) {
	_, c := acctDB(b, 4000)
	lookup := func(i int) { mustQuery(b, c, fmt.Sprintf("SELECT v FROM acct WHERE id = %d", i%4000)) }
	for i := 0; i < 8; i++ {
		lookup(4000 - i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lookup(i)
	}
}

func BenchmarkPreparedPointLookup(b *testing.B) {
	db, c := acctDB(b, 4000)
	st := db.Prepare("SELECT v FROM acct WHERE id = ?")
	lookup := func(i int) {
		if _, _, err := c.Run(context.Background(), st, []val.Value{val.NewInt(int64(i % 4000))}); err != nil {
			b.Fatal(err)
		}
	}
	for i := 0; i < 8; i++ {
		lookup(4000 - i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lookup(i)
	}
}

// --- Shared template vs fresh compile ----------------------------------------
//
// The arm below holds a plan instantiated from a shared template to the plan
// a compile of that very text, with those very values, builds: two databases
// with the same data run the same statements in the same order, and on one
// of them every text ends in a comment no other text has — a shape of its
// own, an untrained slot, a compile every time.

// templatePair is the two databases: hot shares templates, fresh compiles.
type templatePair struct {
	t          *testing.T
	hot, fresh *Conn
	n          int
}

// outcome is everything a client can see of one execution.
type outcome struct {
	rows     []string
	affected int64
	err      string
	explain  []string
}

func (p *templatePair) run(c *Conn, sql, explainSQL string, params []val.Value, ordered bool) outcome {
	var o outcome
	res, rows, err := c.RunContext(context.Background(), sql, params...)
	if err != nil {
		o.err = err.Error()
		return o
	}
	o.affected = res.RowsAffected
	if rows != nil && rows.Columns() != nil {
		o.rows = renderRows(rows, ordered)
	}
	if explainSQL != "" {
		ex, err := c.Query(explainSQL, params...)
		if err != nil {
			o.err = "EXPLAIN: " + err.Error()
			return o
		}
		o.explain = renderExplain(ex)
	}
	return o
}

// both runs one statement on both databases and compares what came back.
func (p *templatePair) both(what, sql string, params []val.Value, ordered bool) {
	p.t.Helper()
	p.n += 2
	explain, explainFresh := "EXPLAIN "+sql, fmt.Sprintf("EXPLAIN %s -- fresh %d", sql, p.n+1)
	if strings.HasPrefix(sql, "INSERT") {
		explain, explainFresh = "", ""
	}
	hot := p.run(p.hot, sql, explain, params, ordered)
	fresh := p.run(p.fresh, fmt.Sprintf("%s -- fresh %d", sql, p.n), explainFresh, params, ordered)
	if hot.err != fresh.err || hot.affected != fresh.affected {
		p.t.Errorf("%s: %q %v: error %q, %d rows affected; a fresh compile: %q, %d", what, sql, params, hot.err, hot.affected, fresh.err, fresh.affected)
		return
	}
	diffCompare(p.t, diffQuery{sql: sql}, what, hot.rows, fresh.rows)
	diffCompare(p.t, diffQuery{sql: "EXPLAIN " + sql}, what, hot.explain, fresh.explain)
}

// perturb re-spells sql with every lifted literal moved a little: integers
// and doubles by run%3 − 1, strings by a suffix on every third run. What the
// lift rule leaves in the key is left alone, so the text keeps its shape.
func perturb(t *testing.T, sql string, run int) string {
	t.Helper()
	var rd sqlparse.Reader
	key, values := rd.Read(sql)
	if key == nil {
		return sql
	}
	parts := strings.Split(string(key), "\x00")
	if len(parts) != len(values)+1 {
		t.Fatalf("%q: key %q has %d slots for %d values", sql, key, len(parts)-1, len(values))
	}
	var sb strings.Builder
	for i, v := range values {
		sb.WriteString(parts[i])
		switch d := int64(run%3 - 1); v.Kind {
		case val.KInt:
			fmt.Fprintf(&sb, "%d", max(v.I+d, 0))
		case val.KDouble:
			fmt.Fprintf(&sb, "%g", v.F+float64(d)+0.25)
		default:
			s := v.S
			if run%3 == 2 {
				s += "x"
			}
			sb.WriteString("'" + strings.ReplaceAll(s, "'", "''") + "'")
		}
	}
	sb.WriteString(parts[len(values)])
	return sb.String()
}

func wrongKind(v val.Value) val.Value {
	if v.Kind == val.KStr {
		return val.NewInt(1)
	}
	return val.NewStr("x")
}

// TestDifferentialTemplateVsFresh runs every statement of diffWorkload and
// dmlPredCorpus as written, then ten times with its literals perturbed —
// hits on one shared template, some of them verifications — and, with every
// constant bound as a parameter, with a NULL and a value of the wrong kind
// in each position in turn: same rows, same RowsAffected, same error, same
// EXPLAIN tree and estimates as a compile of that text with those values.
func TestDifferentialTemplateVsFresh(t *testing.T) {
	hotDB, freshDB := openDB(t, Options{}), openDB(t, Options{})
	p := &templatePair{t: t, hot: conn(t, hotDB), fresh: conn(t, freshDB)}
	for _, c := range []*Conn{p.hot, p.fresh} {
		diffSeed(t, c)
		dmlDiffSeed(t, c, true)
	}
	seedHits := counter(t, freshDB, "opt.plancache.hits") // the seed's repeated INSERTs

	type stmt struct {
		sql     string
		params  []val.Value
		ordered bool
		// undo: the statement runs inside a transaction that is rolled back,
		// so that ten DELETEs do not empty the table the corpus reads.
		undo bool
	}
	var corpus []stmt
	for _, q := range diffWorkload {
		corpus = append(corpus, stmt{sql: q.sql, params: q.params, ordered: q.ordered})
	}
	for _, c := range dmlPredCorpus {
		where := ""
		if c.sql != "" {
			where = " WHERE " + c.sql
		}
		corpus = append(corpus,
			stmt{sql: "SELECT id FROM tgt" + where, params: c.params},
			stmt{sql: "UPDATE tgt SET mark = mark + 1" + where, params: c.params},
			stmt{sql: "DELETE FROM tgt" + where, params: c.params, undo: true})
	}
	for _, c := range dmlSetCorpus {
		corpus = append(corpus, stmt{sql: "UPDATE tgt SET a = " + c.sql + " WHERE id < 30", params: c.params, undo: true})
	}

	exec := func(what string, s stmt, sql string, params []val.Value) {
		t.Helper()
		if s.undo {
			mustExec(t, p.hot, "BEGIN")
			mustExec(t, p.fresh, "BEGIN")
		}
		p.both(what, sql, params, s.ordered)
		if s.undo {
			mustExec(t, p.hot, "ROLLBACK")
			mustExec(t, p.fresh, "ROLLBACK")
		}
	}
	for _, s := range corpus {
		exec("as written", s, s.sql, s.params)
		for run := 1; run <= 10; run++ {
			exec(fmt.Sprintf("perturbed, run %d", run), s, perturb(t, s.sql, run), s.params)
		}

		// Every constant a parameter: a shape of its own, trained on the
		// statement's values, then handed the values a template cannot serve.
		lifted, params := liftConstants(t, s.sql, s.params)
		if len(params) == 0 {
			continue
		}
		for run := 0; run < 4; run++ {
			exec("parameters", s, lifted, params)
		}
		for i := range params {
			for _, v := range []val.Value{val.Null, wrongKind(params[i])} {
				odd := append([]val.Value(nil), params...)
				odd[i] = v
				exec(fmt.Sprintf("parameter %d = %v", i+1, v), s, lifted, odd)
			}
		}
	}

	if h := counter(t, freshDB, "opt.plancache.hits") - seedHits; h != 0 {
		t.Errorf("the always-compiling side hit its plan cache %d times", h)
	}
	// The shared side misses while a shape trains, on every statement that
	// runs a CTE or a subquery, and on values of a kind its template was not
	// compiled for; the rest, most of it, is hits.
	h, m := counter(t, hotDB, "opt.plancache.hits"), counter(t, hotDB, "opt.plancache.misses")
	t.Logf("shared side: %d hits (%d verifications, %d of them retrained), %d misses", h,
		counter(t, hotDB, "opt.plancache.verifications"), counter(t, hotDB, "opt.plancache.invalidations"), m)
	if h < 2*m {
		t.Errorf("the shared side: %d plan-cache hits, %d misses: literals are not sharing templates", h, m)
	}
}

// --- Invalidation -------------------------------------------------------------

// TestTemplateNotServedAcrossSchemaChange: a template is bound to the tables,
// indexes, storage layout and statistics it was compiled under. After each
// kind of schema change the next execution compiles — counted as one
// invalidation of the one trained slot — and EXPLAIN shows the access path
// the new schema offers; on an unchanging schema nothing is invalidated.
func TestTemplateNotServedAcrossSchemaChange(t *testing.T) {
	db := openDB(t, Options{ReorgMinRows: 100})
	c := conn(t, db)
	const q = "SELECT v FROM t WHERE id = 7"
	const upd = "UPDATE t SET v = v WHERE id = 7"
	train := func() {
		t.Helper()
		for i := 0; i < 5; i++ {
			mustQuery(t, c, q)
			mustExec(t, c, upd)
		}
	}
	access := func(sql string) string {
		t.Helper()
		lines := renderExplain(mustQuery(t, c, "EXPLAIN "+sql))
		return strings.TrimSpace(strings.SplitN(lines[len(lines)-1], "|", 2)[0])
	}
	// change runs a schema change on a trained statement pair and requires
	// the very next execution of each (here an EXPLAIN) to be a compile that
	// sees the new schema.
	change := func(what string, ddl func(), wantSelect, wantUpdate string, wantV int64) {
		t.Helper()
		train()
		inv, hits := counter(t, db, "opt.plancache.invalidations"), counter(t, db, "opt.plancache.hits")
		for i := 0; i < 20; i++ {
			mustQuery(t, c, q)
		}
		if n, h := counter(t, db, "opt.plancache.invalidations")-inv, counter(t, db, "opt.plancache.hits")-hits; n != 0 || h != 20 {
			t.Errorf("before %s: 20 executions on an unchanging schema: %d hits, %d invalidations, want 20 and 0", what, h, n)
		}
		ddl()
		gotSelect, gotUpdate := access(q), access(upd)
		if n := counter(t, db, "opt.plancache.invalidations") - inv; n != 2 {
			t.Errorf("%s: %d invalidations, want 2 (the SELECT's template and the UPDATE's)", what, n)
		}
		if gotSelect != wantSelect || gotUpdate != wantUpdate {
			t.Errorf("%s: SELECT reads through %s, UPDATE through %s; want %s and %s", what, gotSelect, gotUpdate, wantSelect, wantUpdate)
		}
		if rows := mustQuery(t, c, q).All(); len(rows) != 1 || rows[0][0].I != wantV {
			t.Errorf("%s: %q = %v, want %d", what, q, rows, wantV)
		}
		if res := mustExec(t, c, upd); res.RowsAffected != 1 {
			t.Errorf("%s: %q affected %d rows", what, upd, res.RowsAffected)
		}
	}

	loadPairs(t, c, "t", "id INT, v INT", 400, func(i int) (int, int) { return i, i * 10 })
	change("CREATE STATISTICS", func() { mustExec(t, c, "CREATE STATISTICS t") }, "TableScan(t)", "TableScan(t)", 70)
	change("CREATE INDEX", func() { mustExec(t, c, "CREATE UNIQUE INDEX t_id ON t (id)") }, "IndexScan(t.t_id)", "IndexScan(t.t_id)", 70)
	change("ALTER TABLE STORE COLUMNAR", func() { mustExec(t, c, "ALTER TABLE t STORE COLUMNAR") }, "TableScan(t columnar zone:id=7)", "IndexScan(t.t_id)", 70)
	change("DROP and CREATE TABLE", func() {
		mustExec(t, c, "DROP TABLE t")
		loadPairs(t, c, "t", "id INT, v INT", 400, func(i int) (int, int) { return i, i * 1000 })
	}, "TableScan(t)", "TableScan(t)", 7000)
	change("reorg promotion", func() {
		for i := 0; i < 1000; i++ { // scans ≥ 8 × every write the test has made
			mustQuery(t, c, "SELECT COUNT(*) FROM t")
		}
		if n := db.ReorgOnce(); n != 1 {
			t.Fatalf("the reorganizer promoted %d tables, want 1", n)
		}
	}, "TableScan(t columnar zone:id=7)", "TableScan(t)", 7000)
}

// TestValueDrivenPlanChangeIsCaughtAtVerification: the paper's policy, end
// to end. A shape trained on a selective literal keeps its index plan when
// an unselective literal arrives — a hit is not re-costed — until the next
// scheduled verification compiles with the value in hand, finds another
// plan, and retrains; every answer on the way is right.
func TestValueDrivenPlanChangeIsCaughtAtVerification(t *testing.T) {
	db := openDB(t, Options{})
	c := conn(t, db)
	// a = 1 on nine rows in ten, a = 1000 + id on the rest.
	loadPairs(t, c, "t", "id INT, a INT", 3000, func(i int) (int, int) {
		if i%10 != 0 {
			return i, 1
		}
		return i, 1000 + i
	})
	mustExec(t, c, "CREATE INDEX t_a ON t (a)")
	mustExec(t, c, "CREATE STATISTICS t")
	access := func(sql string) string {
		lines := renderExplain(mustQuery(t, c, "EXPLAIN "+sql))
		return strings.TrimSpace(strings.SplitN(lines[len(lines)-1], "|", 2)[0])
	}
	const rare, common = "SELECT id FROM t WHERE a = 1500", "SELECT id FROM t WHERE a = 1"
	for i := 0; i < 3; i++ {
		if n := mustQuery(t, c, rare).Count(); n != 1 {
			t.Fatalf("%q: %d rows", rare, n)
		}
	}
	inv := counter(t, db, "opt.plancache.invalidations")
	if got := access(rare); got != "IndexScan(t.t_a)" {
		t.Fatalf("trained on a rare value, the shape reads through %s", got)
	}
	// The first hit after training is served as trained; by the second use
	// the schedule (uses 2, 4, 8, ...) has verified with the common value.
	verified := 0
	for ; verified < 4 && counter(t, db, "opt.plancache.invalidations") == inv; verified++ {
		if n := mustQuery(t, c, common).Count(); n != 2700 {
			t.Fatalf("%q: %d rows, want 2700", common, n)
		}
	}
	if counter(t, db, "opt.plancache.invalidations") != inv+1 {
		t.Fatalf("four executions with an unselective value and no verification found the plan changed")
	}
	for i := 0; i < 3; i++ {
		if n := mustQuery(t, c, common).Count(); n != 2700 {
			t.Fatalf("%q: %d rows, want 2700", common, n)
		}
	}
	if got := access(common); got != "TableScan(t)" {
		t.Errorf("retrained on the common value, the shape reads through %s, want TableScan(t)", got)
	}
}

// --- Concurrency --------------------------------------------------------------

// TestOneShapeManyLiteralsUnderDDL: eight connections run one SELECT shape
// and one UPDATE shape, each execution with its own literal, while a ninth
// changes the schema under them; every answer is checked against its own
// literal. Run with -race: the shape, its template and its AST are shared.
func TestOneShapeManyLiteralsUnderDDL(t *testing.T) {
	db := openDB(t, Options{})
	c0 := conn(t, db)
	const rows = 400
	loadPairs(t, c0, "t", "id INT, v INT", rows, func(i int) (int, int) { return i, i * 10 })
	mustExec(t, c0, "CREATE UNIQUE INDEX t_id ON t (id)")
	mustExec(t, c0, "CREATE STATISTICS t")

	stop := make(chan struct{})
	var ddl sync.WaitGroup
	ddl.Add(1)
	go func() {
		defer ddl.Done()
		c, err := db.Connect()
		if err != nil {
			t.Error(err)
			return
		}
		defer c.Close()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			for _, s := range []string{
				"CREATE STATISTICS t",
				"ALTER TABLE t STORE COLUMNAR",
				fmt.Sprintf("CREATE TABLE side_%d (a INT)", i),
				"ALTER TABLE t STORE ROW",
				fmt.Sprintf("DROP TABLE side_%d", i),
			} {
				// A columnar build gives up when a writer gets in its way.
				if _, err := c.Exec(s); err != nil && !strings.Contains(err.Error(), "invalidated by concurrent write") {
					t.Errorf("%s: %v", s, err)
					return
				}
			}
		}
	}()

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
			for i := 0; i < 300; i++ {
				// Goroutine g owns the fifty ids ≡ g (mod 8) and passes over
				// them six times: at pass p, id k holds 10k + p.
				k, pass := int64((i*8+g)%rows), int64(i/50)
				got, err := c.Query(fmt.Sprintf("SELECT v, id FROM t WHERE id = %d", k))
				if err != nil || got.Count() != 1 || got.All()[0][1].I != k || got.All()[0][0].I != k*10+pass {
					t.Errorf("id %d, pass %d: %v, %v", k, pass, got, err)
					return
				}
				res, err := c.Exec(fmt.Sprintf("UPDATE t SET v = %d WHERE id = %d", k*10+pass+1, k))
				if err != nil || res.RowsAffected != 1 {
					t.Errorf("UPDATE of id %d: %v, %v", k, res, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	ddl.Wait()
}

// --- The submitted text keeps its identity --------------------------------------

// recordingTracer keeps what Conn.Run hands the Application Profiling hook.
type recordingTracer struct {
	sql    []string
	params [][]val.Value
}

func (r *recordingTracer) TraceStatement(sql string, params []val.Value, micros, rows int64) {
	r.sql = append(r.sql, sql)
	r.params = append(r.params, params)
}

// TestSubmittedTextIsWhatIsRecorded: texts that share a shape are still
// distinct statements to everyone who records them. The flight recorder
// shows each submitted text once, in order (the benchmark's trace pass pairs
// its spans with the engine's by order and text), and the tracer receives
// the text as submitted beside the parameters the caller bound — not the
// shape's first spelling, and not the lifted literals.
func TestSubmittedTextIsWhatIsRecorded(t *testing.T) {
	db := openDB(t, Options{})
	c := conn(t, db)
	loadPairs(t, c, "t", "id INT, v INT", 50, func(i int) (int, int) { return i, i * 10 })
	tr := &recordingTracer{}
	db.SetTracer(tr)
	defer db.SetTracer(nil)

	var texts []string
	for k := 0; k < 12; k++ {
		texts = append(texts,
			fmt.Sprintf("SELECT v FROM t WHERE id = %d", k),
			fmt.Sprintf("UPDATE t SET v = %d WHERE id = %d AND v <> ?", k*10+1, k))
	}
	before := db.FlightRecorder().Recent()
	for i, sql := range texts {
		var params []val.Value
		if i%2 == 1 {
			params = []val.Value{val.NewInt(-1)}
		}
		res, rows, err := c.RunContext(context.Background(), sql, params...)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		if k := int64(i / 2); i%2 == 0 && (rows.Count() != 1 || rows.All()[0][0].I != k*10) {
			t.Errorf("%s: %v", sql, rows.All())
		} else if i%2 == 1 && res.RowsAffected != 1 {
			t.Errorf("%s: %d rows affected", sql, res.RowsAffected)
		}
	}
	if db.Prepare(texts[0]).Shape != db.Prepare(texts[2]).Shape {
		t.Fatal("the texts do not share a shape: the test tests nothing")
	}

	spans := db.FlightRecorder().Recent()[len(before):]
	if len(spans) != len(texts) {
		t.Fatalf("%d spans for %d statements", len(spans), len(texts))
	}
	for i, sp := range spans {
		if sp.SQL != texts[i] {
			t.Errorf("span %d records %q, statement %d was %q", i, sp.SQL, i, texts[i])
		}
	}
	if len(tr.sql) != len(texts) {
		t.Fatalf("%d traced statements for %d run", len(tr.sql), len(texts))
	}
	for i, sql := range tr.sql {
		if want := i % 2; sql != texts[i] || len(tr.params[i]) != want {
			t.Errorf("traced %q with %d parameters, statement %d was %q with %d", sql, len(tr.params[i]), i, texts[i], want)
		}
	}
}
