package core

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"anywheredb/internal/device"
	"anywheredb/internal/val"
	"anywheredb/internal/vclock"
)

func openDB(t testing.TB, opts Options) *DB {
	t.Helper()
	db, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		checkStmtTable(t, db)
		db.Close()
	})
	return db
}

func conn(t testing.TB, db *DB) *Conn {
	t.Helper()
	c, err := db.Connect()
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func mustExec(t testing.TB, c *Conn, sql string, params ...val.Value) Result {
	t.Helper()
	res, err := c.Exec(sql, params...)
	if err != nil {
		t.Fatalf("exec %q: %v", sql, err)
	}
	return res
}

func mustQuery(t testing.TB, c *Conn, sql string, params ...val.Value) *Rows {
	t.Helper()
	rows, err := c.Query(sql, params...)
	if err != nil {
		t.Fatalf("query %q: %v", sql, err)
	}
	return rows
}

func seedEmp(t testing.TB, c *Conn, n int) {
	t.Helper()
	mustExec(t, c, "CREATE TABLE emp (eid INT, ename VARCHAR(40), did INT, salary DOUBLE)")
	mustExec(t, c, "CREATE TABLE dept (did INT, dname VARCHAR(40))")
	for d := 0; d < 5; d++ {
		mustExec(t, c, fmt.Sprintf("INSERT INTO dept VALUES (%d, 'dept-%d')", d, d))
	}
	var sb strings.Builder
	sb.WriteString("INSERT INTO emp VALUES ")
	for i := 0; i < n; i++ {
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "(%d, 'emp-%d', %d, %d.5)", i, i, i%5, 1000+i)
	}
	mustExec(t, c, sb.String())
}

func TestEndToEndBasics(t *testing.T) {
	db := openDB(t, Options{})
	c := conn(t, db)
	seedEmp(t, c, 100)

	rows := mustQuery(t, c, "SELECT COUNT(*) FROM emp")
	if rows.Count() != 1 || rows.All()[0][0].I != 100 {
		t.Fatalf("count %v", rows.All())
	}

	rows = mustQuery(t, c, "SELECT ename, dname FROM emp, dept WHERE emp.did = dept.did AND eid = 42")
	if rows.Count() != 1 {
		t.Fatalf("join rows %d", rows.Count())
	}
	r := rows.All()[0]
	if r[0].S != "emp-42" || r[1].S != "dept-2" {
		t.Fatalf("row %v", r)
	}
}

func TestDMLAndTransactions(t *testing.T) {
	db := openDB(t, Options{})
	c := conn(t, db)
	seedEmp(t, c, 20)

	res := mustExec(t, c, "UPDATE emp SET salary = salary * 2 WHERE did = 1")
	if res.RowsAffected != 4 {
		t.Fatalf("updated %d", res.RowsAffected)
	}
	res = mustExec(t, c, "DELETE FROM emp WHERE eid >= 15")
	if res.RowsAffected != 5 {
		t.Fatalf("deleted %d", res.RowsAffected)
	}

	// Explicit transaction rollback.
	mustExec(t, c, "BEGIN")
	mustExec(t, c, "DELETE FROM emp")
	rows := mustQuery(t, c, "SELECT COUNT(*) FROM emp")
	if rows.All()[0][0].I != 0 {
		t.Fatal("delete not visible inside txn")
	}
	mustExec(t, c, "ROLLBACK")
	rows = mustQuery(t, c, "SELECT COUNT(*) FROM emp")
	if rows.All()[0][0].I != 15 {
		t.Fatalf("rollback restored %v rows", rows.All()[0][0])
	}

	// Commit path.
	mustExec(t, c, "BEGIN")
	mustExec(t, c, "INSERT INTO emp VALUES (99, 'new', 0, 1.0)")
	mustExec(t, c, "COMMIT")
	rows = mustQuery(t, c, "SELECT COUNT(*) FROM emp WHERE eid = 99")
	if rows.All()[0][0].I != 1 {
		t.Fatal("committed insert lost")
	}
}

// TestRollbackRestoresAmongGrowingNeighbours: a transaction empties a row's
// place (a DELETE, or an UPDATE that outgrows the page and moves), another
// connection's committed UPDATE grows a row in the same page, and the first
// rolls back. The rollback restores the row where it was, so the neighbour
// must not have taken its bytes: both rows survive.
func TestRollbackRestoresAmongGrowingNeighbours(t *testing.T) {
	for _, empty := range []string{
		"UPDATE t SET pad = '" + strings.Repeat("q", 1500) + "' WHERE id = 1",
		"DELETE FROM t WHERE id = 1",
	} {
		db := openDB(t, Options{})
		c1, c2 := conn(t, db), conn(t, db)
		mustExec(t, c1, "CREATE TABLE t (id INT, pad VARCHAR(2000))")
		pad := strings.Repeat("p", 180)
		for id := 1; id <= 40; id++ {
			mustExec(t, c1, "INSERT INTO t VALUES (?, ?)", val.NewInt(int64(id)), val.NewStr(pad))
		}
		mustExec(t, c1, "BEGIN")
		mustExec(t, c1, empty)
		mustExec(t, c2, "UPDATE t SET pad = ? WHERE id = 2", val.NewStr(strings.Repeat("g", 340)))
		mustExec(t, c1, "ROLLBACK")
		if n := mustQuery(t, c1, "SELECT id FROM t").Count(); n != 40 {
			t.Errorf("%.6s: %d rows after rollback, want 40", empty, n)
		}
		rows := mustQuery(t, c1, "SELECT id, pad FROM t WHERE id <= 2 ORDER BY id").All()
		if len(rows) != 2 || rows[0][1].S != pad || len(rows[1][1].S) != 340 {
			t.Errorf("%.6s: ids 1 and 2 after rollback: %d rows", empty, len(rows))
		}
	}
}

func TestIndexedDMLBypass(t *testing.T) {
	db := openDB(t, Options{})
	c := conn(t, db)
	seedEmp(t, c, 200)
	mustExec(t, c, "CREATE UNIQUE INDEX emp_pk ON emp (eid)")

	res := mustExec(t, c, "UPDATE emp SET salary = 1.0 WHERE eid = 7")
	if res.RowsAffected != 1 {
		t.Fatalf("indexed update %d rows", res.RowsAffected)
	}
	rows := mustQuery(t, c, "SELECT salary FROM emp WHERE eid = 7")
	if rows.All()[0][0].F != 1.0 {
		t.Fatal("update not applied")
	}
	// Unique violation surfaces.
	if _, err := c.Exec("INSERT INTO emp VALUES (7, 'dup', 0, 1.0)"); err == nil {
		t.Fatal("unique violation not detected")
	}
}

func TestParamsAndPreparedReuse(t *testing.T) {
	db := openDB(t, Options{})
	c := conn(t, db)
	seedEmp(t, c, 50)
	for i := 0; i < 10; i++ {
		rows := mustQuery(t, c, "SELECT ename FROM emp WHERE eid = ?", val.NewInt(int64(i)))
		if rows.Count() != 1 || rows.All()[0][0].S != fmt.Sprintf("emp-%d", i) {
			t.Fatalf("param query %d: %v", i, rows.All())
		}
	}
}

func TestPersistenceAndRecovery(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	c, _ := db.Connect()
	seedEmp(t, c, 30)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: schema and data must survive.
	db2 := openDB(t, Options{Dir: dir})
	c2 := conn(t, db2)
	rows := mustQuery(t, c2, "SELECT COUNT(*) FROM emp")
	if rows.All()[0][0].I != 30 {
		t.Fatalf("rows after reopen: %v", rows.All()[0][0])
	}
	// Statistics survived too (persisted at checkpoint).
	tbl, _ := db2.Table("emp")
	if tbl.Hists[2] == nil || tbl.Hists[2].Total() == 0 {
		t.Fatal("histograms not persisted")
	}
}

func TestCrashRecoveryRedo(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	c, _ := db.Connect()
	mustExec(t, c, "CREATE TABLE t (a INT)")
	db.Checkpoint() // catalog durable
	mustExec(t, c, "INSERT INTO t VALUES (1), (2), (3)")
	// Simulate a crash: flush the LOG but not the data pages, then drop
	// everything without checkpointing.
	db.log.Flush()
	db.st.Sync()
	// NOTE: rows were committed (autocommit flushes the log); data pages
	// may or may not have reached disk. Skip Close (which would
	// checkpoint); reopen and let recovery redo the work.
	db2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	c2, _ := db2.Connect()
	rows := mustQuery(t, c2, "SELECT COUNT(*) FROM t")
	if rows.All()[0][0].I != 3 {
		t.Fatalf("recovered rows %v, want 3", rows.All()[0][0])
	}
}

func TestAutoShutdown(t *testing.T) {
	db, err := Open(Options{AutoShutdown: true})
	if err != nil {
		t.Fatal(err)
	}
	c1, _ := db.Connect()
	c2, _ := db.Connect()
	c1.Close()
	if db.Closed() {
		t.Fatal("closed while a connection remains")
	}
	c2.Close()
	if !db.Closed() {
		t.Fatal("auto-shutdown did not fire on last disconnect")
	}
	if _, err := db.Connect(); err == nil {
		t.Fatal("connect after shutdown should fail")
	}
}

// TestCalibrateStoresModel: CALIBRATE DATABASE on a device that charges
// no time refuses, leaving the model and the catalog as they were; on a
// simulated disk it installs the measured model and persists it.
func TestCalibrateStoresModel(t *testing.T) {
	t.Run("default device", func(t *testing.T) {
		db := openDB(t, Options{Dir: t.TempDir()})
		c := conn(t, db)
		model, stored := db.DTTModel().Encode(), db.cat.DTT()
		if _, err := c.Exec("CALIBRATE DATABASE"); !errors.Is(err, errZeroReadCost) {
			t.Fatalf("CALIBRATE DATABASE on RAM: %v, want errZeroReadCost", err)
		}
		if !bytes.Equal(db.DTTModel().Encode(), model) || !bytes.Equal(db.cat.DTT(), stored) {
			t.Fatal("a refused calibration changed the cost model or the catalog")
		}
	})
	t.Run("simulated HDD", func(t *testing.T) {
		dir := t.TempDir()
		clk := vclock.New()
		dev := device.NewHDD(device.Barracuda7200(), clk)
		db := openDB(t, Options{Dir: dir, Device: dev, Clock: clk})
		c := conn(t, db)
		before := db.DTTModel().Name
		mustExec(t, c, "CALIBRATE DATABASE")
		after := db.DTTModel().Name
		if before == after || !strings.HasPrefix(after, "calibrated:") {
			t.Fatalf("model %q -> %q", before, after)
		}
		db.Close()
		db2 := openDB(t, Options{Dir: dir, Device: dev, Clock: clk})
		if db2.DTTModel().Name != after {
			t.Fatal("calibrated model not persisted in catalog")
		}
	})
}

func TestLoadTableCSV(t *testing.T) {
	dir := t.TempDir()
	csvPath := filepath.Join(dir, "emp.csv")
	content := "1,alice,10,100.5\n2,bob,20,200.5\n3,,30,\n"
	if err := os.WriteFile(csvPath, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	db := openDB(t, Options{})
	c := conn(t, db)
	mustExec(t, c, "CREATE TABLE emp (id INT, name VARCHAR(10), did INT, sal DOUBLE)")
	res := mustExec(t, c, fmt.Sprintf("LOAD TABLE emp FROM '%s'", csvPath))
	if res.RowsAffected != 3 {
		t.Fatalf("loaded %d", res.RowsAffected)
	}
	rows := mustQuery(t, c, "SELECT name FROM emp WHERE id = 2")
	if rows.All()[0][0].S != "bob" {
		t.Fatal("load content wrong")
	}
	rows = mustQuery(t, c, "SELECT COUNT(*) FROM emp WHERE sal IS NULL")
	if rows.All()[0][0].I != 1 {
		t.Fatal("NULL handling in CSV")
	}
	// LOAD TABLE builds statistics automatically (§3.2).
	tbl, _ := db.Table("emp")
	if tbl.Hists[0].Total() != 3 {
		t.Fatalf("stats after load: %g", tbl.Hists[0].Total())
	}
}

func TestPlanCacheAcrossRepeats(t *testing.T) {
	db := openDB(t, Options{})
	c := conn(t, db)
	seedEmp(t, c, 200)
	q := "SELECT COUNT(*) FROM emp, dept WHERE emp.did = dept.did"
	for i := 0; i < 10; i++ {
		rows := mustQuery(t, c, q)
		if rows.All()[0][0].I != 200 {
			t.Fatalf("iter %d: %v", i, rows.All()[0][0])
		}
	}
	hits, misses := counter(t, db, "opt.plancache.hits"), counter(t, db, "opt.plancache.misses")
	if hits == 0 {
		t.Fatalf("plan cache never hit (hits=%d misses=%d)", hits, misses)
	}
}

func TestDropTable(t *testing.T) {
	db := openDB(t, Options{})
	c := conn(t, db)
	mustExec(t, c, "CREATE TABLE tmp (a INT)")
	mustExec(t, c, "DROP TABLE tmp")
	if _, err := c.Query("SELECT * FROM tmp"); err == nil {
		t.Fatal("dropped table still queryable")
	}
	// Recreate with the same name works.
	mustExec(t, c, "CREATE TABLE tmp (a INT)")
}

func TestGovernorIntegration(t *testing.T) {
	clk := vclock.New()
	db := openDB(t, Options{
		Clock:         clk,
		PoolMinPages:  32,
		PoolInitPages: 64,
		PoolMaxPages:  2048,
		TotalRAM:      128 << 20,
	})
	c := conn(t, db)
	seedEmp(t, c, 2000)

	// With a small database, Eq. 1's soft bound caps the pool near the
	// database size regardless of free memory.
	d := db.CacheGovernor().Poll()
	softBound := (db.Store().TotalBytes() + 10<<20) / 4096
	if int64(db.Pool().SizePages()) > softBound {
		t.Fatalf("pool %d pages exceeds Eq.1 bound ~%d (%s)", db.Pool().SizePages(), softBound, d.Reason)
	}

	// Growing the database unconstrains the bound: the pool may grow at
	// the next polls (misses keep occurring as we insert).
	seedMore(t, c, 20000)
	small := db.Pool().SizePages()
	for i := 0; i < 8; i++ {
		// Scans of the now-larger-than-pool table produce the buffer
		// misses that license growth.
		mustQuery(t, c, "SELECT COUNT(*) FROM emp")
		clk.Advance(vclock.Minute)
		db.CacheGovernor().Poll()
	}
	grown := db.Pool().SizePages()
	if grown <= small {
		t.Fatalf("pool %d -> %d, expected growth after DB growth", small, grown)
	}

	// External pressure forces a shrink at the next poll.
	db.Machine().SetExternal("hog", 126<<20)
	clk.Advance(vclock.Minute)
	d = db.CacheGovernor().Poll()
	if db.Pool().SizePages() >= grown {
		t.Fatalf("pool did not shrink under pressure (%s)", d.Reason)
	}
}

// seedMore bulk-inserts extra rows to grow the database.
func seedMore(t testing.TB, c *Conn, n int) {
	t.Helper()
	const batch = 500
	for start := 0; start < n; start += batch {
		var sb strings.Builder
		sb.WriteString("INSERT INTO emp VALUES ")
		for i := start; i < start+batch && i < n; i++ {
			if i > start {
				sb.WriteString(", ")
			}
			fmt.Fprintf(&sb, "(%d, 'bulk-emp-name-%08d', %d, %d.5)", 100000+i, i, i%5, i)
		}
		mustExec(t, c, sb.String())
	}
}

func TestInsertSelect(t *testing.T) {
	db := openDB(t, Options{})
	c := conn(t, db)
	seedEmp(t, c, 50)
	mustExec(t, c, "CREATE TABLE rich (eid INT, ename VARCHAR(40))")
	// salary = 1000+i+0.5, so salary > 1040 matches i = 40..49.
	res := mustExec(t, c, "INSERT INTO rich SELECT eid, ename FROM emp WHERE salary > 1040")
	if res.RowsAffected != 10 {
		t.Fatalf("insert-select %d rows", res.RowsAffected)
	}
}

func TestAggregationThroughSQL(t *testing.T) {
	db := openDB(t, Options{})
	c := conn(t, db)
	seedEmp(t, c, 100)
	rows := mustQuery(t, c, "SELECT did, COUNT(*) AS n, AVG(salary) FROM emp GROUP BY did ORDER BY did")
	if rows.Count() != 5 {
		t.Fatalf("groups %d", rows.Count())
	}
	for i, r := range rows.All() {
		if r[0].I != int64(i) || r[1].I != 20 {
			t.Fatalf("group %v", r)
		}
	}
}

func TestErrorPaths(t *testing.T) {
	db := openDB(t, Options{})
	c := conn(t, db)
	cases := []string{
		"SELECT * FROM missing",
		"INSERT INTO missing VALUES (1)",
		"CREATE INDEX ix ON missing (a)",
		"DROP TABLE missing",
		"COMMIT",   // no open txn
		"ROLLBACK", // no open txn
		"NOT SQL AT ALL",
	}
	for _, sql := range cases {
		if _, err := c.Exec(sql); err == nil {
			t.Errorf("%q should fail", sql)
		}
	}
	mustExec(t, c, "BEGIN")
	if _, err := c.Exec("BEGIN"); err == nil {
		t.Error("nested BEGIN should fail")
	}
	mustExec(t, c, "ROLLBACK")

	// A correlated subquery is refused by SELECT as by DML (SELECT used to
	// drop the conjunct and return every row).
	seedEmp(t, c, 5)
	const correlated = "WHERE EXISTS (SELECT 1 FROM dept WHERE dept.did = emp.did)"
	for _, sql := range []string{"SELECT ename FROM emp " + correlated, "DELETE FROM emp " + correlated} {
		if _, err := c.Exec(sql); err == nil || !strings.Contains(err.Error(), "correlated subqueries are not supported") {
			t.Errorf("%q: %v, want the correlated-subquery error", sql, err)
		}
	}
}

func TestConnClosedRejects(t *testing.T) {
	db := openDB(t, Options{})
	c := conn(t, db)
	c.Close()
	if _, err := c.Exec("SELECT 1"); err == nil {
		t.Fatal("closed connection accepted work")
	}
}
