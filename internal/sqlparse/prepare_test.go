package sqlparse

import "testing"

// prepareSeeds is FuzzPrepare's seed corpus: the benchmark's statements
// (bench/workload.go), the core differential suites' diffWorkload and
// dmlPredCorpus in their SELECT / UPDATE / DELETE forms, the spellings the
// read router used to misjudge, and text that does not lex or parse.
var prepareSeeds = []string{
	"SELECT v FROM kv WHERE id = ?",
	"INSERT INTO ev VALUES (?, ?, ?, ?)",
	"BEGIN", "SELECT v FROM acct WHERE id = 4711", "UPDATE acct SET v = 18 WHERE id = 4711", "COMMIT",
	"SELECT grp, COUNT(*), SUM(v) FROM fact WHERE v < ? GROUP BY grp",

	"SELECT eid, ename, salary FROM emp WHERE salary > 1100",
	"SELECT eid, salary * 2, ename FROM emp WHERE eid < 50",
	"SELECT ename, dname FROM emp, dept WHERE emp.did = dept.did AND salary < 1050",
	"SELECT e.ename, d.dname, b.tag FROM emp e, dept d, badge b WHERE e.did = d.did AND e.eid = b.eid AND b.tag = 'gold'",
	"SELECT d.dname, b.tag FROM dept d LEFT OUTER JOIN badge b ON d.did = b.eid",
	"SELECT COUNT(*), SUM(salary), MIN(eid), MAX(eid) FROM emp",
	"SELECT did, COUNT(*) AS n FROM emp GROUP BY did HAVING COUNT(*) > 30 ORDER BY n DESC, did",
	"SELECT did, NOT (COUNT(*) > 1) FROM emp WHERE eid < 7 GROUP BY did",
	"WITH g (did, s, n) AS (SELECT did, SUM(salary), COUNT(*) FROM emp WHERE eid < 8 GROUP BY did) SELECT did, s > 2007 AND n > 1 FROM g",
	"SELECT did, COUNT(*) FROM emp WHERE eid < 13 GROUP BY did HAVING COUNT(*) BETWEEN ? AND ?",
	"SELECT did FROM emp WHERE eid < 13 GROUP BY did HAVING COUNT(*) IN (2, 7)",
	"SELECT d.did, SUM(b.eid) FROM dept d LEFT OUTER JOIN badge b ON d.did = b.eid GROUP BY d.did HAVING SUM(b.eid) IS NOT NULL",
	"SELECT did, ABS(SUM(0 - salary)) FROM emp GROUP BY did",
	"SELECT eid FROM emp WHERE did = 2 ORDER BY salary DESC",
	"SELECT eid FROM emp ORDER BY eid LIMIT 10",
	"SELECT DISTINCT did FROM emp",
	"SELECT did FROM emp WHERE eid < 20 UNION ALL SELECT did FROM dept",
	"SELECT ename FROM emp WHERE eid IN (SELECT eid FROM badge) AND EXISTS (SELECT 1 FROM badge WHERE tag = 'gold')",
	"WITH RECURSIVE nums (n) AS (SELECT 1 UNION ALL SELECT n + 1 FROM nums WHERE n < 50) SELECT n FROM nums, dept WHERE nums.n = dept.did ORDER BY n",
	"UPDATE emp SET salary = salary + 10 WHERE did = 2",
	"DELETE FROM emp WHERE eid >= 280",
	"INSERT INTO emp VALUES (900, 'late-1', 0, 5000.5), (901, 'late-2', 1, 5001.5)",

	"SELECT id FROM tgt WHERE id = 5 OR id = 6",
	"UPDATE tgt SET mark = mark + 1 WHERE NOT (id = 5)",
	"DELETE FROM tgt WHERE id IN (SELECT id FROM tgt WHERE a > 2)",
	"EXPLAIN ANALYZE UPDATE tgt SET mark = mark + 1 WHERE id NOT IN (SELECT id FROM pick)",
	"SELECT id FROM tgt WHERE ABS(a) = 3",
	"SELECT id FROM tgt WHERE -a > 2",
	"EXPLAIN SELECT id FROM tgt WHERE 17 = id",
	"SELECT id FROM tgt WHERE id = 21 AND a IS NULL",
	"SELECT id FROM tgt WHERE NULL",

	"SELECT PROPERTY ('buffer.hits')",
	"SELECT name FROM sys . properties -- where the replica would answer",
	"SELECT v FROM kv WHERE s = 'sys.x' AND t LIKE 'it''s %' AND k != 2;",
	"INSERT INTO x SELECT id, v FROM a WHERE id = 7",
	"CREATE TABLE t (a INT, b VARCHAR(10), c DOUBLE)", "CREATE UNIQUE INDEX t_a ON t (a)", "CREATE STATISTICS t",
	"ALTER TABLE t STORE COLUMNAR", "LOAD TABLE t FROM '/tmp/t.csv' STORE COLUMNAR", "BEGIN READ ONLY", "CALIBRATE DATABASE",

	"SELECT 'unterminated", "SELECT a FROM t WHERE b = $1", "a -- c\n $", "SELEC v FROM kv", "SELECT FROM", "EXPLAIN EXPLAIN SELECT 1", "", "héllo",
}

// FuzzPrepare: reading a text once, through a Reader, must be
// indistinguishable from reading it with Parse and Fingerprint — the same
// statement once the lifted values are put back in their slots, the same
// error, the same fingerprint — and never panics. The shape key is stable:
// the text re-spelled with its lifted values reads to the same key and the
// same values. A fingerprint is itself SQL of the same shape:
// fingerprinting it again changes nothing, whenever the text lexed at all
// (the lower-cased fallback of text that does not is compared only with
// itself: squeezing its newlines can turn a comment's tail into more
// comment).
func FuzzPrepare(f *testing.F) {
	for _, s := range prepareSeeds {
		f.Add(s)
	}
	f.Fuzz(checkRead)
}
