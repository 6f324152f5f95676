package sqlparse

import (
	"testing"

	"anywheredb/internal/val"
)

func mustParse(t *testing.T, src string) Statement {
	t.Helper()
	s, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse(%q): %v", src, err)
	}
	return s
}

func TestCreateTable(t *testing.T) {
	s := mustParse(t, "CREATE TABLE emp (id INT, name VARCHAR(40), salary DOUBLE)")
	ct := s.(*CreateTable)
	if ct.Name != "emp" || len(ct.Cols) != 3 {
		t.Fatalf("%+v", ct)
	}
	if ct.Cols[0].Kind != val.KInt || ct.Cols[1].Kind != val.KStr || ct.Cols[2].Kind != val.KDouble {
		t.Fatalf("kinds: %+v", ct.Cols)
	}
}

func TestCreateIndex(t *testing.T) {
	s := mustParse(t, "CREATE UNIQUE INDEX pk ON emp (id, name)")
	ci := s.(*CreateIndex)
	if !ci.Unique || ci.Table != "emp" || len(ci.Cols) != 2 {
		t.Fatalf("%+v", ci)
	}
	s = mustParse(t, "CREATE INDEX by_name ON emp (name)")
	if s.(*CreateIndex).Unique {
		t.Fatal("unexpected unique")
	}
}

func TestCreateStatisticsAndCalibrate(t *testing.T) {
	s := mustParse(t, "CREATE STATISTICS emp (salary, name)")
	cs := s.(*CreateStatistics)
	if cs.Table != "emp" || len(cs.Cols) != 2 {
		t.Fatalf("%+v", cs)
	}
	mustParse(t, "CREATE STATISTICS emp")
	if _, ok := mustParse(t, "CALIBRATE DATABASE").(*Calibrate); !ok {
		t.Fatal("calibrate")
	}
}

func TestInsertValues(t *testing.T) {
	s := mustParse(t, "INSERT INTO emp (id, name) VALUES (1, 'alice'), (2, 'bob')")
	ins := s.(*Insert)
	if ins.Table != "emp" || len(ins.Cols) != 2 || len(ins.Rows) != 2 {
		t.Fatalf("%+v", ins)
	}
	if ins.Rows[0][1].(*Lit).Val.S != "alice" {
		t.Fatal("literal")
	}
}

func TestInsertSelect(t *testing.T) {
	s := mustParse(t, "INSERT INTO emp2 SELECT * FROM emp WHERE id > 10")
	if s.(*Insert).Query == nil {
		t.Fatal("insert-select")
	}
}

func TestUpdateDelete(t *testing.T) {
	s := mustParse(t, "UPDATE emp SET salary = salary * 1.1, name = 'x' WHERE id = 5")
	up := s.(*Update)
	if len(up.Set) != 2 || up.Where == nil {
		t.Fatalf("%+v", up)
	}
	s = mustParse(t, "DELETE FROM emp WHERE salary < 100")
	if s.(*Delete).Where == nil {
		t.Fatal("delete where")
	}
	s = mustParse(t, "DELETE FROM emp")
	if s.(*Delete).Where != nil {
		t.Fatal("delete all")
	}
}

func TestSelectBasics(t *testing.T) {
	s := mustParse(t, "SELECT id, name AS n, salary * 2 FROM emp WHERE salary >= 100 AND name LIKE 'a%' ORDER BY salary DESC LIMIT 10")
	sel := s.(*Select)
	if len(sel.Items) != 3 || sel.Items[1].Alias != "n" {
		t.Fatalf("items %+v", sel.Items)
	}
	if sel.Limit != 10 || len(sel.OrderBy) != 1 || !sel.OrderBy[0].Desc {
		t.Fatal("order/limit")
	}
	and := sel.Where.(*BinOp)
	if and.Op != "AND" {
		t.Fatal("where")
	}
	if _, ok := and.R.(*Like); !ok {
		t.Fatal("like")
	}
}

func TestSelectJoins(t *testing.T) {
	s := mustParse(t, "SELECT * FROM a, b WHERE a.x = b.y")
	sel := s.(*Select)
	j := sel.From.(*Join)
	if j.Kind != InnerJoin || j.On != nil {
		t.Fatal("comma join")
	}

	s = mustParse(t, "SELECT * FROM a JOIN b ON a.x = b.y LEFT OUTER JOIN c ON b.z = c.z")
	sel = s.(*Select)
	outer := sel.From.(*Join)
	if outer.Kind != LeftOuterJoin || outer.On == nil {
		t.Fatal("left outer")
	}
	inner := outer.Left.(*Join)
	if inner.Kind != InnerJoin || inner.On == nil {
		t.Fatal("inner join")
	}
}

func TestTableAliases(t *testing.T) {
	s := mustParse(t, "SELECT e.id FROM emp AS e, emp managers WHERE e.id = managers.id")
	sel := s.(*Select)
	j := sel.From.(*Join)
	if j.Left.(*BaseTable).Alias != "e" || j.Right.(*BaseTable).Alias != "managers" {
		t.Fatal("aliases")
	}
	cr := sel.Items[0].Expr.(*ColRef)
	if cr.Table != "e" || cr.Col != "id" {
		t.Fatal("qualified column")
	}
}

func TestGroupByHavingAggregates(t *testing.T) {
	s := mustParse(t, "SELECT dept, COUNT(*), SUM(salary), AVG(salary) FROM emp GROUP BY dept HAVING COUNT(*) > 5")
	sel := s.(*Select)
	if len(sel.GroupBy) != 1 || sel.Having == nil {
		t.Fatal("group/having")
	}
	if !sel.Items[1].Expr.(*FuncCall).Star {
		t.Fatal("count star")
	}
	if sel.Items[2].Expr.(*FuncCall).Name != "SUM" {
		t.Fatal("sum")
	}
}

func TestDistinctAndCountDistinct(t *testing.T) {
	s := mustParse(t, "SELECT DISTINCT dept FROM emp")
	if !s.(*Select).Distinct {
		t.Fatal("distinct")
	}
	s = mustParse(t, "SELECT COUNT(DISTINCT dept) FROM emp")
	if !s.(*Select).Items[0].Expr.(*FuncCall).Distinct {
		t.Fatal("count distinct")
	}
}

func TestPredicates(t *testing.T) {
	s := mustParse(t, "SELECT * FROM t WHERE a IS NULL AND b IS NOT NULL AND c BETWEEN 1 AND 10 AND d NOT LIKE '%x%' AND e IN (1,2,3) AND f NOT IN (SELECT g FROM u) AND NOT EXISTS (SELECT * FROM v)")
	sel := s.(*Select)
	if sel.Where == nil {
		t.Fatal("where")
	}
	// Walk down the AND chain counting predicate types.
	var kinds []string
	var walk func(e Expr)
	walk = func(e Expr) {
		switch x := e.(type) {
		case *BinOp:
			if x.Op == "AND" {
				walk(x.L)
				walk(x.R)
				return
			}
			kinds = append(kinds, x.Op)
		case *IsNull:
			if x.Neg {
				kinds = append(kinds, "isnotnull")
			} else {
				kinds = append(kinds, "isnull")
			}
		case *Between:
			kinds = append(kinds, "between")
		case *Like:
			kinds = append(kinds, "notlike")
		case *InList:
			kinds = append(kinds, "in")
		case *InSelect:
			kinds = append(kinds, "inselect")
		case *UnOp:
			kinds = append(kinds, "not")
		}
	}
	walk(sel.Where)
	want := []string{"isnull", "isnotnull", "between", "notlike", "in", "inselect", "not"}
	if len(kinds) != len(want) {
		t.Fatalf("kinds %v", kinds)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("kinds %v", kinds)
		}
	}
}

func TestUnionAll(t *testing.T) {
	s := mustParse(t, "SELECT a FROM t UNION ALL SELECT a FROM u UNION SELECT a FROM v")
	sel := s.(*Select)
	if sel.Union == nil || !sel.UnionAll {
		t.Fatal("first union all")
	}
	if sel.Union.Union == nil || sel.Union.UnionAll {
		t.Fatal("second union distinct")
	}
}

func TestRecursiveCTE(t *testing.T) {
	s := mustParse(t, `WITH RECURSIVE nums (n) AS (
		SELECT 1
		UNION ALL
		SELECT n + 1 FROM nums WHERE n < 10
	) SELECT n FROM nums`)
	sel := s.(*Select)
	if len(sel.With) != 1 || !sel.With[0].Recursive || sel.With[0].Name != "nums" {
		t.Fatalf("%+v", sel.With)
	}
	if sel.With[0].Query.Union == nil || !sel.With[0].Query.UnionAll {
		t.Fatal("recursive body must be a UNION ALL")
	}
}

func TestTxnStatements(t *testing.T) {
	if _, ok := mustParse(t, "BEGIN").(*Begin); !ok {
		t.Fatal("begin")
	}
	if _, ok := mustParse(t, "COMMIT").(*Commit); !ok {
		t.Fatal("commit")
	}
	if _, ok := mustParse(t, "ROLLBACK;").(*Rollback); !ok {
		t.Fatal("rollback")
	}
}

func TestExplainTextAndWrites(t *testing.T) {
	for _, c := range []struct {
		sql, text string
		writes    bool
	}{
		{"EXPLAIN SELECT a FROM t WHERE a = ?", "SELECT a FROM t WHERE a = ?", false},
		{"explain  analyze\n SELECT a FROM t", "SELECT a FROM t", false},
		{"EXPLAIN DELETE FROM t WHERE a = 1", "DELETE FROM t WHERE a = 1", false},
		{"EXPLAIN ANALYZE DELETE FROM t WHERE a = 1", "DELETE FROM t WHERE a = 1", true},
		{"EXPLAIN ANALYZE UPDATE t SET a = 1", "UPDATE t SET a = 1", true},
	} {
		ex := mustParse(t, c.sql).(*Explain)
		if ex.Text != c.text {
			t.Errorf("%q: inner text %q, want %q", c.sql, ex.Text, c.text)
		}
		if Writes(ex) != c.writes {
			t.Errorf("%q: Writes = %v, want %v", c.sql, !c.writes, c.writes)
		}
	}
	for sql, writes := range map[string]bool{
		"SELECT 1": false, "BEGIN": false, "COMMIT": false, "CREATE STATISTICS t": false,
		"INSERT INTO t VALUES (1)": true, "UPDATE t SET a = 1": true, "DELETE FROM t": true,
		"CREATE TABLE t (a INT)": true, "CREATE INDEX i ON t (a)": true, "DROP TABLE t": true,
		"LOAD TABLE t FROM 'f'": true, "ALTER TABLE t STORE COLUMNAR": true, "CALIBRATE DATABASE": true,
	} {
		if Writes(mustParse(t, sql)) != writes {
			t.Errorf("Writes(%q) = %v, want %v", sql, !writes, writes)
		}
	}
}

func TestDropAndLoad(t *testing.T) {
	if mustParse(t, "DROP TABLE t").(*DropTable).Name != "t" {
		t.Fatal("drop")
	}
	lt := mustParse(t, "LOAD TABLE emp FROM '/tmp/emp.csv'").(*LoadTable)
	if lt.Table != "emp" || lt.Path != "/tmp/emp.csv" {
		t.Fatalf("%+v", lt)
	}
}

func TestParams(t *testing.T) {
	s := mustParse(t, "SELECT * FROM t WHERE a = ? AND b > ?")
	sel := s.(*Select)
	and := sel.Where.(*BinOp)
	if and.L.(*BinOp).R.(*Param).Idx != 1 || and.R.(*BinOp).R.(*Param).Idx != 2 {
		t.Fatal("params")
	}
}

func TestStringEscapes(t *testing.T) {
	s := mustParse(t, "SELECT * FROM t WHERE n = 'o''brien'")
	sel := s.(*Select)
	if sel.Where.(*BinOp).R.(*Lit).Val.S != "o'brien" {
		t.Fatal("escape")
	}
}

func TestComments(t *testing.T) {
	mustParse(t, "SELECT 1 -- trailing comment\n")
}

func TestArithPrecedence(t *testing.T) {
	s := mustParse(t, "SELECT 1 + 2 * 3 - 4 / 2")
	e := s.(*Select).Items[0].Expr.(*BinOp)
	// ((1 + (2*3)) - (4/2))
	if e.Op != "-" {
		t.Fatalf("top op %s", e.Op)
	}
	add := e.L.(*BinOp)
	if add.Op != "+" || add.R.(*BinOp).Op != "*" {
		t.Fatal("precedence")
	}
}

func TestNegativeNumbersAndNull(t *testing.T) {
	s := mustParse(t, "SELECT -5, NULL, 2.5e3")
	items := s.(*Select).Items
	if items[0].Expr.(*UnOp).Op != "-" {
		t.Fatal("unary minus")
	}
	if !items[1].Expr.(*Lit).Val.IsNull() {
		t.Fatal("null literal")
	}
	if items[2].Expr.(*Lit).Val.F != 2500 {
		t.Fatal("scientific")
	}
}

func TestErrors(t *testing.T) {
	bad := []string{
		"",
		"SELEC 1",
		"SELECT FROM",
		"CREATE TABLE t (x BLOB)",
		"CREATE UNIQUE TABLE t (x INT)",
		"INSERT INTO t",
		"SELECT * FROM t WHERE 'unterminated",
		"SELECT * FROM t WHERE a = 1 extra garbage ~",
		"SELECT * FROM t; SELECT 2",
		"UPDATE t SET",
		"LOAD TABLE t FROM missing_quotes",
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) should fail", src)
		}
	}
}
