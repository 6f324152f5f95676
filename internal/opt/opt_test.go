package opt

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"

	"anywheredb/internal/buffer"
	"anywheredb/internal/dtt"
	"anywheredb/internal/exec"
	"anywheredb/internal/sqlparse"
	"anywheredb/internal/store"
	"anywheredb/internal/table"
	"anywheredb/internal/val"
	"anywheredb/internal/vclock"
)

// testDB is a tiny schema for optimizer tests.
type testDB struct {
	tables map[string]*table.Table
	pool   *buffer.Pool
	st     *store.Store
	ctx    *exec.Ctx
}

func (db *testDB) Table(name string) (*table.Table, bool) {
	t, ok := db.tables[name]
	return t, ok
}

func newDB(t testing.TB) *testDB {
	t.Helper()
	st, err := store.Open(store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	pool := buffer.New(st, 16, 1024, 2048)
	return &testDB{
		tables: map[string]*table.Table{},
		pool:   pool,
		st:     st,
		ctx:    &exec.Ctx{Pool: pool, St: st, Clk: vclock.New()},
	}
}

var nextObjID uint64 = 1000

func (db *testDB) mkTable(t testing.TB, name string, cols []table.Column, rows [][]val.Value) *table.Table {
	t.Helper()
	nextObjID++
	tbl, err := table.Create(db.pool, db.st, store.MainFile, nextObjID, name, cols)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if _, err := tbl.Insert(nil, r); err != nil {
			t.Fatal(err)
		}
	}
	if err := tbl.RebuildStatistics(); err != nil {
		t.Fatal(err)
	}
	db.tables[name] = tbl
	return tbl
}

// standard emp/dept schema.
func empDept(t testing.TB, nEmp, nDept int) *testDB {
	db := newDB(t)
	var deptRows [][]val.Value
	for i := 0; i < nDept; i++ {
		deptRows = append(deptRows, []val.Value{val.NewInt(int64(i)), val.NewStr(fmt.Sprintf("dept-%d", i))})
	}
	dept := db.mkTable(t, "dept", []table.Column{
		{Name: "did", Kind: val.KInt}, {Name: "dname", Kind: val.KStr},
	}, deptRows)
	var empRows [][]val.Value
	for i := 0; i < nEmp; i++ {
		empRows = append(empRows, []val.Value{
			val.NewInt(int64(i)),
			val.NewStr(fmt.Sprintf("emp-%d", i)),
			val.NewInt(int64(i % nDept)),
			val.NewDouble(float64(1000 + i%5000)),
		})
	}
	emp := db.mkTable(t, "emp", []table.Column{
		{Name: "eid", Kind: val.KInt}, {Name: "ename", Kind: val.KStr},
		{Name: "did", Kind: val.KInt}, {Name: "salary", Kind: val.KDouble},
	}, empRows)
	nextObjID++
	if _, err := dept.AddIndex(nextObjID, "dept_pk", []int{0}, true); err != nil {
		t.Fatal(err)
	}
	nextObjID++
	if _, err := emp.AddIndex(nextObjID, "emp_did", []int{2}, false); err != nil {
		t.Fatal(err)
	}
	return db
}

func benv(db *testDB) *BuildEnv {
	return &BuildEnv{
		Env: &Env{DTT: dtt.Default(), PoolPages: func() int { return 256 }},
		Res: db,
		Ctx: db.ctx,
	}
}

func runSQL(t testing.TB, db *testDB, sql string) ([]exec.Row, *Plan) {
	t.Helper()
	stmt, err := sqlparse.Parse(sql)
	if err != nil {
		t.Fatalf("parse %q: %v", sql, err)
	}
	plan, err := Build(stmt.(*sqlparse.Select), benv(db))
	if err != nil {
		t.Fatalf("build %q: %v", sql, err)
	}
	rows, err := exec.Drain(db.ctx, plan.Root)
	if err != nil {
		t.Fatalf("run %q: %v", sql, err)
	}
	return rows, plan
}

func TestSimpleSelect(t *testing.T) {
	db := empDept(t, 100, 5)
	rows, plan := runSQL(t, db, "SELECT eid, ename FROM emp WHERE eid < 10")
	if len(rows) != 10 {
		t.Fatalf("rows %d", len(rows))
	}
	if len(plan.Columns) != 2 || plan.Columns[0] != "eid" {
		t.Fatalf("columns %v", plan.Columns)
	}
}

func TestSelectStarAndPredicates(t *testing.T) {
	db := empDept(t, 200, 4)
	rows, _ := runSQL(t, db, "SELECT * FROM emp WHERE did = 2 AND salary >= 1000")
	if len(rows) != 50 {
		t.Fatalf("rows %d, want 50", len(rows))
	}
	if len(rows[0]) != 4 {
		t.Fatalf("star width %d", len(rows[0]))
	}
}

func TestTwoWayJoin(t *testing.T) {
	db := empDept(t, 300, 6)
	rows, plan := runSQL(t, db,
		"SELECT ename, dname FROM emp, dept WHERE emp.did = dept.did AND dept.did = 3")
	if len(rows) != 50 {
		t.Fatalf("rows %d, want 50", len(rows))
	}
	for _, r := range rows {
		if r[1].S != "dept-3" {
			t.Fatalf("row %v", r)
		}
	}
	if plan.Enum == nil || plan.Enum.Visits == 0 {
		t.Fatal("enumeration did not run")
	}
}

func TestExplicitJoinSyntax(t *testing.T) {
	db := empDept(t, 60, 3)
	rows, _ := runSQL(t, db,
		"SELECT ename, dname FROM emp JOIN dept ON emp.did = dept.did WHERE dept.did = 1")
	if len(rows) != 20 {
		t.Fatalf("rows %d", len(rows))
	}
}

func TestLeftOuterJoin(t *testing.T) {
	db := newDB(t)
	db.mkTable(t, "a", []table.Column{{Name: "x", Kind: val.KInt}}, [][]val.Value{
		{val.NewInt(1)}, {val.NewInt(2)}, {val.NewInt(3)},
	})
	db.mkTable(t, "b", []table.Column{{Name: "y", Kind: val.KInt}, {Name: "z", Kind: val.KInt}}, [][]val.Value{
		{val.NewInt(2), val.NewInt(20)},
	})
	rows, _ := runSQL(t, db, "SELECT x, z FROM a LEFT OUTER JOIN b ON a.x = b.y ORDER BY x")
	if len(rows) != 3 {
		t.Fatalf("rows %d, want 3", len(rows))
	}
	if !rows[0][1].IsNull() || rows[1][1].I != 20 || !rows[2][1].IsNull() {
		t.Fatalf("outer join wrong: %v", rows)
	}
}

func TestLeftOuterWhereAfterPadding(t *testing.T) {
	db := newDB(t)
	db.mkTable(t, "a", []table.Column{{Name: "x", Kind: val.KInt}}, [][]val.Value{
		{val.NewInt(1)}, {val.NewInt(2)},
	})
	db.mkTable(t, "b", []table.Column{{Name: "y", Kind: val.KInt}}, [][]val.Value{
		{val.NewInt(2)},
	})
	// WHERE b.y IS NULL keeps only the padded row: anti-join pattern.
	rows, _ := runSQL(t, db, "SELECT x FROM a LEFT OUTER JOIN b ON a.x = b.y WHERE b.y IS NULL")
	if len(rows) != 1 || rows[0][0].I != 1 {
		t.Fatalf("anti-join rows %v", rows)
	}
}

func TestGroupByAggregates(t *testing.T) {
	db := empDept(t, 100, 4)
	rows, _ := runSQL(t, db,
		"SELECT did, COUNT(*), AVG(salary), MIN(eid), MAX(eid) FROM emp GROUP BY did ORDER BY did")
	if len(rows) != 4 {
		t.Fatalf("groups %d", len(rows))
	}
	for i, r := range rows {
		if r[0].I != int64(i) || r[1].I != 25 {
			t.Fatalf("group %v", r)
		}
	}
}

func TestHavingAndOrderByAggregate(t *testing.T) {
	db := empDept(t, 100, 10)
	rows, _ := runSQL(t, db,
		"SELECT did, COUNT(*) AS n FROM emp WHERE eid < 55 GROUP BY did HAVING COUNT(*) > 5 ORDER BY n DESC, did")
	// eid<55: dids 0..4 have 6 rows, 5..9 have 5 rows. HAVING >5 keeps 0..4.
	if len(rows) != 5 {
		t.Fatalf("having rows %d: %v", len(rows), rows)
	}
	if rows[0][1].I != 6 {
		t.Fatalf("order by aggregate: %v", rows[0])
	}
}

func TestGlobalAggregate(t *testing.T) {
	db := empDept(t, 42, 3)
	rows, _ := runSQL(t, db, "SELECT COUNT(*), SUM(salary) FROM emp")
	if len(rows) != 1 || rows[0][0].I != 42 {
		t.Fatalf("global agg %v", rows)
	}
}

func TestDistinct(t *testing.T) {
	db := empDept(t, 100, 4)
	rows, _ := runSQL(t, db, "SELECT DISTINCT did FROM emp")
	if len(rows) != 4 {
		t.Fatalf("distinct %d", len(rows))
	}
}

func TestInListAndBetween(t *testing.T) {
	db := empDept(t, 50, 5)
	rows, _ := runSQL(t, db, "SELECT eid FROM emp WHERE eid IN (3, 7, 999) OR eid BETWEEN 40 AND 42")
	if len(rows) != 5 {
		t.Fatalf("rows %d", len(rows))
	}
}

func TestLike(t *testing.T) {
	db := empDept(t, 30, 3)
	rows, _ := runSQL(t, db, "SELECT ename FROM emp WHERE ename LIKE 'emp-1%'")
	// emp-1, emp-10..emp-19 = 11 rows.
	if len(rows) != 11 {
		t.Fatalf("like rows %d", len(rows))
	}
}

func TestUncorrelatedSubqueries(t *testing.T) {
	db := empDept(t, 60, 6)
	rows, _ := runSQL(t, db,
		"SELECT ename FROM emp WHERE did IN (SELECT did FROM dept WHERE dname = 'dept-2')")
	if len(rows) != 10 {
		t.Fatalf("IN subquery rows %d", len(rows))
	}
	rows, _ = runSQL(t, db,
		"SELECT ename FROM emp WHERE EXISTS (SELECT * FROM dept WHERE dname = 'dept-5') AND eid < 3")
	if len(rows) != 3 {
		t.Fatalf("EXISTS rows %d", len(rows))
	}
	rows, _ = runSQL(t, db,
		"SELECT ename FROM emp WHERE EXISTS (SELECT * FROM dept WHERE dname = 'nope') AND eid < 3")
	if len(rows) != 0 {
		t.Fatalf("false EXISTS rows %d", len(rows))
	}
	rows, _ = runSQL(t, db,
		"SELECT ename FROM emp WHERE NOT EXISTS (SELECT * FROM dept WHERE dname = 'nope') AND eid < 3")
	if len(rows) != 3 {
		t.Fatalf("NOT EXISTS rows %d", len(rows))
	}
}

func TestUnion(t *testing.T) {
	db := empDept(t, 20, 2)
	rows, _ := runSQL(t, db,
		"SELECT eid FROM emp WHERE eid < 3 UNION ALL SELECT eid FROM emp WHERE eid < 2")
	if len(rows) != 5 {
		t.Fatalf("union all %d", len(rows))
	}
	rows, _ = runSQL(t, db,
		"SELECT eid FROM emp WHERE eid < 3 UNION SELECT eid FROM emp WHERE eid < 2")
	if len(rows) != 3 {
		t.Fatalf("union distinct %d", len(rows))
	}
}

func TestRecursiveCTEQuery(t *testing.T) {
	db := newDB(t)
	db.mkTable(t, "dual", []table.Column{{Name: "one", Kind: val.KInt}},
		[][]val.Value{{val.NewInt(1)}})
	rows, _ := runSQL(t, db, `WITH RECURSIVE nums (n) AS (
		SELECT one FROM dual
		UNION ALL
		SELECT n + 1 FROM nums WHERE n < 10
	) SELECT n FROM nums ORDER BY n`)
	if len(rows) != 10 || rows[9][0].I != 10 {
		t.Fatalf("recursive cte: %d rows", len(rows))
	}
}

func TestOrderByPositionAndLimit(t *testing.T) {
	db := empDept(t, 30, 3)
	rows, _ := runSQL(t, db, "SELECT eid, salary FROM emp ORDER BY 1 DESC LIMIT 5")
	if len(rows) != 5 || rows[0][0].I != 29 {
		t.Fatalf("order/limit %v", rows)
	}
}

func TestParams(t *testing.T) {
	db := empDept(t, 30, 3)
	stmt, _ := sqlparse.Parse("SELECT eid FROM emp WHERE eid = ?")
	be := benv(db)
	be.Params = []val.Value{val.NewInt(7)}
	plan, err := Build(stmt.(*sqlparse.Select), be)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := exec.Drain(db.ctx, plan.Root)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0][0].I != 7 {
		t.Fatalf("param rows %v", rows)
	}
}

// --- Enumeration behaviour -------------------------------------------------

// chainDB builds a chain query schema: t0 -- t1 -- ... -- t(n-1), each
// joined on k.
func chainDB(t testing.TB, n, rowsPer int) (*testDB, string) {
	db := newDB(t)
	for i := 0; i < n; i++ {
		var rows [][]val.Value
		for r := 0; r < rowsPer; r++ {
			rows = append(rows, []val.Value{val.NewInt(int64(r)), val.NewInt(int64(r))})
		}
		tbl := db.mkTable(t, fmt.Sprintf("t%d", i),
			[]table.Column{{Name: "k", Kind: val.KInt}, {Name: "v", Kind: val.KInt}}, rows)
		nextObjID++
		if _, err := tbl.AddIndex(nextObjID, fmt.Sprintf("t%d_k", i), []int{0}, false); err != nil {
			t.Fatal(err)
		}
	}
	sql := "SELECT COUNT(*) FROM "
	for i := 0; i < n; i++ {
		if i > 0 {
			sql += ", "
		}
		sql += fmt.Sprintf("t%d", i)
	}
	sql += " WHERE "
	for i := 1; i < n; i++ {
		if i > 1 {
			sql += " AND "
		}
		sql += fmt.Sprintf("t%d.k = t%d.k", i-1, i)
	}
	return db, sql
}

func TestChainJoinCorrectness(t *testing.T) {
	db, sql := chainDB(t, 5, 20)
	rows, _ := runSQL(t, db, sql)
	if rows[0][0].I != 20 {
		t.Fatalf("5-chain count %v, want 20", rows[0][0])
	}
}

func TestGovernorQuotaBoundsVisits(t *testing.T) {
	db, sql := chainDB(t, 8, 10)
	stmt, _ := sqlparse.Parse(sql)
	sel := stmt.(*sqlparse.Select)

	limited := benv(db)
	limited.Env.Quota = 200
	p1, err := Build(sel, limited)
	if err != nil {
		t.Fatal(err)
	}
	if p1.Enum.Visits > 3*200 {
		t.Fatalf("governed visits %d far exceed quota", p1.Enum.Visits)
	}

	unlimited := benv(db)
	unlimited.Env.DisableGovernor = true
	p2, err := Build(sel, unlimited)
	if err != nil {
		t.Fatal(err)
	}
	if p2.Enum.Visits <= p1.Enum.Visits {
		t.Fatalf("ungoverned search (%d visits) should exceed governed (%d)",
			p2.Enum.Visits, p1.Enum.Visits)
	}
	// The governed plan must still execute correctly.
	rows, err := exec.Drain(db.ctx, p1.Root)
	if err != nil {
		t.Fatal(err)
	}
	if rows[0][0].I != 10 {
		t.Fatalf("governed plan result %v", rows[0])
	}
}

func TestPruningReducesSearch(t *testing.T) {
	db, sql := chainDB(t, 6, 10)
	stmt, _ := sqlparse.Parse(sql)
	sel := stmt.(*sqlparse.Select)

	pruned := benv(db)
	pruned.Env.DisableGovernor = true
	p1, _ := Build(sel, pruned)

	unpruned := benv(db)
	unpruned.Env.DisableGovernor = true
	unpruned.Env.DisablePruning = true
	p2, _ := Build(sel, unpruned)

	if p1.Enum.Visits >= p2.Enum.Visits {
		t.Fatalf("pruned %d visits should be fewer than unpruned %d",
			p1.Enum.Visits, p2.Enum.Visits)
	}
	if p1.Enum.Pruned == 0 {
		t.Fatal("expected pruning events")
	}
}

func TestCartesianDeferred(t *testing.T) {
	// Two connected tables and one disconnected: the Cartesian product
	// must come last in the join order.
	db := newDB(t)
	for _, name := range []string{"a", "b", "c"} {
		var rows [][]val.Value
		for r := 0; r < 10; r++ {
			rows = append(rows, []val.Value{val.NewInt(int64(r))})
		}
		db.mkTable(t, name, []table.Column{{Name: "k", Kind: val.KInt}}, rows)
	}
	stmt, _ := sqlparse.Parse("SELECT COUNT(*) FROM a, b, c WHERE a.k = b.k")
	plan, err := Build(stmt.(*sqlparse.Select), benv(db))
	if err != nil {
		t.Fatal(err)
	}
	order := plan.Enum.Order
	// c (disconnected) must be placed last.
	last := order[len(order)-1].Quant
	if db.tables["c"] == nil {
		t.Fatal("setup")
	}
	// Quantifier 2 is c (FROM order).
	if last != 2 {
		t.Fatalf("Cartesian product not deferred: order %v", order)
	}
	rows, err := exec.Drain(db.ctx, plan.Root)
	if err != nil {
		t.Fatal(err)
	}
	if rows[0][0].I != 100 {
		t.Fatalf("count %v, want 100", rows[0][0])
	}
}

func TestHundredWayJoinSmallMemory(t *testing.T) {
	// The paper's E6 claim: a 100-way join optimized with ~1 MB for the
	// optimizer. The enumerator is depth-first, so its footprint is the
	// current path; we check it completes under quota and runs.
	if testing.Short() {
		t.Skip("long test")
	}
	db, sql := chainDB(t, 100, 3)
	stmt, _ := sqlparse.Parse(sql)
	be := benv(db)
	be.Env.Quota = 2000
	plan, err := Build(stmt.(*sqlparse.Select), be)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Enum.Order) != 100 {
		t.Fatalf("placed %d quantifiers", len(plan.Enum.Order))
	}
	rows, err := exec.Drain(db.ctx, plan.Root)
	if err != nil {
		t.Fatal(err)
	}
	if rows[0][0].I != 3 {
		t.Fatalf("100-way join count %v, want 3", rows[0][0])
	}
}

func TestINLAnnotationOnHashJoins(t *testing.T) {
	db := empDept(t, 500, 10)
	_, plan := runSQL(t, db,
		"SELECT ename, dname FROM emp, dept WHERE emp.did = dept.did AND emp.eid = 123")
	// Whatever order was chosen, any hash join over an indexed key should
	// carry the alternate-strategy annotation.
	for _, hj := range plan.HashJoins {
		if hj.Alt == nil {
			t.Fatal("hash join lacks the alternate INL annotation despite an index")
		}
		if hj.INLMaxBuildRows < 0 {
			t.Fatal("INL threshold not computed")
		}
	}
}

// --- Plan cache ------------------------------------------------------------

// fakeSteps is a compile whose only content is its join order.
func fakeSteps(sig int) *Template {
	return &Template{block: blockTemplate{order: []Step{{Quant: sig, Method: MethodScan}, {Quant: sig + 1, Method: MethodHash}}}}
}

func TestPlanCacheTrainingPeriod(t *testing.T) {
	var c PlanSlot
	for i := 0; i < 2; i++ {
		if _, hit, _ := c.Lookup(); hit {
			t.Fatal("hit during training")
		}
		c.Offer(fakeSteps(1))
	}
	// Third identical optimization completes training.
	c.Offer(fakeSteps(1))
	if _, hit, _ := c.Lookup(); !hit {
		t.Fatal("expected hit after training")
	}
}

func TestPlanCacheTrainingResetOnChange(t *testing.T) {
	var c PlanSlot
	c.Offer(fakeSteps(1))
	c.Offer(fakeSteps(1))
	c.Offer(fakeSteps(2)) // different plan: reset
	c.Offer(fakeSteps(2))
	if _, hit, _ := c.Lookup(); hit {
		t.Fatal("training should have reset")
	}
	c.Offer(fakeSteps(2))
	if _, hit, _ := c.Lookup(); !hit {
		t.Fatal("should be cached after 3 identical")
	}
}

// trainedSlot returns a slot that has completed training on steps.
func trainedSlot(steps *Template) *PlanSlot {
	c := &PlanSlot{}
	for i := 0; i < planTraining; i++ {
		c.Offer(steps)
	}
	return c
}

func TestPlanCacheLogarithmicVerification(t *testing.T) {
	c := trainedSlot(fakeSteps(1))
	verifies := 0
	for i := 0; i < 64; i++ {
		_, hit, verify := c.Lookup()
		if !hit {
			t.Fatalf("miss at use %d", i)
		}
		if verify {
			verifies++
			c.Verify(fakeSteps(1))
		}
	}
	// 2,4,8,16,32,64 → about 6 verifications, certainly not 64.
	if verifies == 0 || verifies > 10 {
		t.Fatalf("verifications %d, want logarithmic count", verifies)
	}
}

func TestPlanCacheVerifyMismatchInvalidates(t *testing.T) {
	c := trainedSlot(fakeSteps(1))
	var sawVerify bool
	for i := 0; i < 8; i++ {
		_, hit, verify := c.Lookup()
		if !hit {
			break
		}
		if verify {
			sawVerify = true
			if c.Verify(fakeSteps(9)) {
				t.Fatal("mismatch should report false")
			}
			break
		}
	}
	if !sawVerify {
		t.Fatal("never asked to verify")
	}
	if _, hit, _ := c.Lookup(); hit {
		t.Fatal("stale plan should be invalidated")
	}
	// The mismatching plan is the first observation of a new training period.
	c.Offer(fakeSteps(9))
	c.Offer(fakeSteps(9))
	if tmpl, hit, _ := c.Lookup(); !hit || !tmpl.sameOrder(fakeSteps(9)) {
		t.Fatalf("retraining on the fresh plan: hit=%v steps=%v", hit, tmpl.block.order)
	}
}

func TestPlanCacheInvalidateRestartsTraining(t *testing.T) {
	// Same signature, but the order stopped fitting the catalog: Offer alone
	// would count it as one more identical plan and keep the stale steps.
	c := trainedSlot(fakeSteps(1))
	c.Invalidate(fakeSteps(1))
	c.Offer(fakeSteps(1))
	if _, hit, _ := c.Lookup(); hit {
		t.Fatal("hit two optimizations after an invalidation")
	}
	c.Offer(fakeSteps(1))
	if _, hit, _ := c.Lookup(); !hit {
		t.Fatal("expected hit after retraining")
	}
}

// --- Cost-model sanity -------------------------------------------------------

func TestCostModelOrdersPlansSanely(t *testing.T) {
	// With a selective indexed predicate, the chosen first access should
	// be the index.
	db := empDept(t, 5000, 50)
	emp := db.tables["emp"]
	nextObjID++
	if _, err := emp.AddIndex(nextObjID, "emp_pk", []int{0}, true); err != nil {
		t.Fatal(err)
	}
	stmt, _ := sqlparse.Parse("SELECT ename FROM emp WHERE eid = 4321")
	plan, err := Build(stmt.(*sqlparse.Select), benv(db))
	if err != nil {
		t.Fatal(err)
	}
	if plan.Enum.Order[0].Index == nil {
		t.Fatal("selective equality should choose the index access path")
	}
	rows, _ := exec.Drain(db.ctx, plan.Root)
	if len(rows) != 1 {
		t.Fatalf("rows %d", len(rows))
	}
}

func TestFeedbackObserversWired(t *testing.T) {
	db := empDept(t, 1000, 10)
	emp := db.tables["emp"]
	// Estimate before: histogram-based.
	before := emp.Hists[2].SelEq(val.NewInt(3))
	// Execute a filter query several times; feedback refines the estimate
	// toward the true 10%.
	for i := 0; i < 5; i++ {
		runSQL(t, db, "SELECT COUNT(*) FROM emp WHERE did = 3")
	}
	after := emp.Hists[2].SelEq(val.NewInt(3))
	trueSel := 0.1
	if abs(after-trueSel) > abs(before-trueSel)+1e-9 {
		t.Fatalf("feedback worsened estimate: before %g after %g", before, after)
	}
	if abs(after-trueSel) > 0.03 {
		t.Fatalf("estimate %g still far from %g after feedback", after, trueSel)
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

func TestEnumerateDeterministic(t *testing.T) {
	db, sql := chainDB(t, 6, 15)
	stmt, _ := sqlparse.Parse(sql)
	sel := stmt.(*sqlparse.Select)
	p1, err := Build(sel, benv(db))
	if err != nil {
		t.Fatal(err)
	}
	p2, err := Build(sel, benv(db))
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(p1.Enum.Order, p2.Enum.Order) {
		t.Fatal("enumeration must be deterministic")
	}
}

func TestJoinResultMatchesNaive(t *testing.T) {
	// Cross-check a 3-way join against a brute-force evaluation.
	rng := rand.New(rand.NewSource(42))
	db := newDB(t)
	mk := func(name string, n int) [][]val.Value {
		var rows [][]val.Value
		for i := 0; i < n; i++ {
			rows = append(rows, []val.Value{val.NewInt(int64(rng.Intn(8))), val.NewInt(int64(i))})
		}
		db.mkTable(t, name,
			[]table.Column{{Name: name + "k", Kind: val.KInt}, {Name: name + "v", Kind: val.KInt}}, rows)
		return rows
	}
	ra, rb, rc := mk("a", 30), mk("b", 25), mk("c", 20)

	rows, _ := runSQL(t, db, "SELECT COUNT(*) FROM a, b, c WHERE a.ak = b.bk AND b.bk = c.ck")
	var want int64
	for _, x := range ra {
		for _, y := range rb {
			if x[0].I != y[0].I {
				continue
			}
			for _, z := range rc {
				if y[0].I == z[0].I {
					want++
				}
			}
		}
	}
	if rows[0][0].I != want {
		t.Fatalf("join count %v, naive %d", rows[0][0], want)
	}
}

func TestOrderByAliasAcrossSort(t *testing.T) {
	db := empDept(t, 20, 4)
	rows, _ := runSQL(t, db, "SELECT did AS d, COUNT(*) AS n FROM emp GROUP BY did ORDER BY d")
	if !sort.SliceIsSorted(rows, func(i, j int) bool { return rows[i][0].I < rows[j][0].I }) {
		t.Fatal("not ordered by alias")
	}
}

// --- Templates ---------------------------------------------------------------

// TestTemplateInstantiatedConcurrently: a Template is immutable once Compile
// returns, so any number of executions instantiate it at once. Eight
// goroutines instantiate one template — a join with a residual predicate, a
// grouped aggregate and a sort — each with its own parameter value, and run
// their plans; every answer is checked against that value. Run with -race.
func TestTemplateInstantiatedConcurrently(t *testing.T) {
	db := empDept(t, 600, 6)
	stmt, err := sqlparse.Parse("SELECT dname, COUNT(*) AS n, MAX(eid) + 1 FROM emp, dept " +
		"WHERE emp.did = dept.did AND eid < ? AND salary >= 1000 GROUP BY dname HAVING COUNT(*) > 0 ORDER BY dname")
	if err != nil {
		t.Fatal(err)
	}
	env := func(bound int64) *BuildEnv {
		be := benv(db)
		ctx := *db.ctx
		be.Ctx, be.Params, be.SchemaVersion = &ctx, []val.Value{val.NewInt(bound)}, 7
		return be
	}
	tmpl, first, err := Compile(stmt, env(60))
	if err != nil {
		t.Fatal(err)
	}
	if !tmpl.Retainable() || tmpl.Bypass() || !tmpl.Current(7) || tmpl.Current(8) || first.Enum == nil {
		t.Fatalf("template: retainable %v bypass %v current(7) %v current(8) %v enum %v",
			tmpl.Retainable(), tmpl.Bypass(), tmpl.Current(7), tmpl.Current(8), first.Enum)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				bound := int64(6 * (1 + (g*40+i)%90)) // eids 0..bound-1: bound/6 per department
				be := env(bound)
				plan, ok, err := tmpl.Instantiate(be)
				if err != nil || !ok || plan.Enum != nil {
					t.Errorf("bound %d: served %v, enumerated %v, %v", bound, ok, plan != nil && plan.Enum != nil, err)
					return
				}
				rows, err := exec.Drain(be.Ctx, plan.Root)
				if err != nil || len(rows) != 6 {
					t.Errorf("bound %d: %d rows, %v", bound, len(rows), err)
					return
				}
				for d, r := range rows {
					if r[0].S != fmt.Sprintf("dept-%d", d) || r[1].I != bound/6 || r[2].I != bound-6+int64(d)+1 {
						t.Errorf("bound %d, department %d: %v", bound, d, r)
						return
					}
				}
			}
		}()
	}
	wg.Wait()

	// A value of another kind than the template was compiled for is not
	// served: the order was chosen for an estimate made from a number.
	for _, v := range []val.Value{val.Null, val.NewStr("x")} {
		be := env(0)
		be.Params = []val.Value{v}
		if plan, ok, err := tmpl.Instantiate(be); ok || err != nil || plan != nil {
			t.Errorf("parameter %v: served %v, %v", v, ok, err)
		}
	}
}
