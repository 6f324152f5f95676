package core

import (
	"strings"
	"testing"

	"anywheredb/internal/val"
)

// TestUpdateLogsItsChangedSpan: an UPDATE of one INT column logs the bytes
// it changes, not the row twice, and a write transaction logs no begin
// record. BEGIN/UPDATE/COMMIT appends at most 48 bytes of log whether the
// row carries a 64-byte or a 1 000-byte pad, and each write transaction
// appends its data records and its commit record, nothing else.
func TestUpdateLogsItsChangedSpan(t *testing.T) {
	for _, pad := range []int{64, 1000} {
		db := openDB(t, Options{})
		c := conn(t, db)
		mustExec(t, c, "CREATE TABLE acct (id INT, v INT, pad VARCHAR(2000))")
		for id := int64(0); id < 20; id++ {
			mustExec(t, c, "INSERT INTO acct VALUES (?, ?, ?)", val.NewInt(id), val.NewInt(id), val.NewStr(strings.Repeat("p", pad)))
		}
		appended := func(data int64, stmts ...string) int64 {
			t.Helper()
			bytes, recs := counter(t, db, "wal.bytes_appended"), counter(t, db, "wal.records")
			for _, s := range stmts {
				mustExec(t, c, s)
			}
			if n := counter(t, db, "wal.records") - recs; n != data+1 {
				t.Errorf("pad %d: %q appended %d records, want %d data records + 1", pad, stmts, n, data)
			}
			return counter(t, db, "wal.bytes_appended") - bytes
		}
		n := appended(1, "BEGIN", "UPDATE acct SET v = 1000 WHERE id = 7", "COMMIT")
		t.Logf("pad %d: BEGIN/UPDATE/COMMIT appended %d bytes of log", pad, n)
		if n > 48 {
			t.Errorf("pad %d: BEGIN/UPDATE/COMMIT appended %d bytes of log, want ≤ 48", pad, n)
		}
		appended(1, "UPDATE acct SET v = 5 WHERE id = 8")
		appended(1, "INSERT INTO acct VALUES (20, 20, 'x')")
		appended(3, "BEGIN", "UPDATE acct SET v = 6 WHERE id = 9", "DELETE FROM acct WHERE id = 10", "UPDATE acct SET v = 7 WHERE id = 11", "COMMIT")
		// A rollback's data records are its changes and their compensations.
		appended(4, "BEGIN", "UPDATE acct SET v = 8 WHERE id = 12", "UPDATE acct SET v = 9 WHERE id = 12", "ROLLBACK")
	}
}

// TestReadOnlyRollbackLogsNothing: a transaction that only read ends, at
// ROLLBACK as at COMMIT, with no record appended and no log flush waited
// for; one that wrote and rolled back still logs its end.
func TestReadOnlyRollbackLogsNothing(t *testing.T) {
	db := openDB(t, Options{})
	c := conn(t, db)
	mustExec(t, c, "CREATE TABLE acct (id INT, v INT)")
	mustExec(t, c, "INSERT INTO acct VALUES (1, 1), (2, 2)")
	moved := func(stmts ...string) (bytes, flushes int64) {
		t.Helper()
		b, f := counter(t, db, "wal.bytes_appended"), counter(t, db, "wal.flushes")
		for _, s := range stmts {
			mustExec(t, c, s)
		}
		return counter(t, db, "wal.bytes_appended") - b, counter(t, db, "wal.flushes") - f
	}
	for _, end := range []string{"ROLLBACK", "COMMIT"} {
		if b, f := moved("BEGIN", "SELECT v FROM acct WHERE id = 1", end); b != 0 || f != 0 {
			t.Errorf("BEGIN; SELECT; %s appended %d bytes of log and flushed it %d times, want neither", end, b, f)
		}
	}
	if b, f := moved("BEGIN", "UPDATE acct SET v = 3 WHERE id = 2", "ROLLBACK"); b == 0 || f == 0 {
		t.Errorf("a rolled-back UPDATE appended %d bytes of log and flushed %d times, want its records flushed", b, f)
	}
}
