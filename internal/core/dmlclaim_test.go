package core

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"anywheredb/internal/val"
)

// claimDB is a table w (id, v) with a unique index on id and the rows
// (1, 7) … (5, 7), and two connections: t1, the holder, and t2.
func claimDB(t *testing.T) (db *DB, t1, t2 *Conn) {
	t.Helper()
	db = openDB(t, Options{})
	t1, t2 = conn(t, db), conn(t, db)
	mustExec(t, t1, "CREATE TABLE w (id INT, v INT)")
	for id := 1; id <= 5; id++ {
		mustExec(t, t1, "INSERT INTO w VALUES (?, 7)", val.NewInt(int64(id)))
	}
	mustExec(t, t1, "CREATE UNIQUE INDEX w_id ON w (id)")
	return db, t1, t2
}

// rowOf is the committed (v) of id in w, or "gone".
func rowOf(t *testing.T, c *Conn, id int64) string {
	t.Helper()
	rows := mustQuery(t, c, "SELECT v FROM w WHERE id = ?", val.NewInt(id)).All()
	switch len(rows) {
	case 0:
		return "gone"
	case 1:
		return fmt.Sprint(rows[0][0].I)
	}
	t.Fatalf("id %d: %d rows", id, len(rows))
	return ""
}

// TestHeldRowFailingWhereIsNotWaitedFor: an UPDATE or DELETE by key whose
// probe finds a row another transaction holds decides on that row's newest
// image. If the image fails the WHERE the row is no target: the statement
// returns 0 rows at once and waits for nobody. If it matches, the statement
// waits for the holder, then reads the row again and checks it again: after
// a ROLLBACK it goes ahead on the restored row if that still matches, after
// a COMMIT on the committed row if that does.
func TestHeldRowFailingWhereIsNotWaitedFor(t *testing.T) {
	verbs := map[string]string{
		"UPDATE": "UPDATE w SET v = v + 1 WHERE ",
		"DELETE": "DELETE FROM w WHERE ",
	}
	for verb, head := range verbs {
		// The holder's open writes leave id 3's newest image failing where.
		for _, c := range []struct{ hold, where string }{
			{"UPDATE w SET v = 5 WHERE id = 3", "id = 3 AND v = 7"},
			{"UPDATE w SET id = 30 WHERE id = 3", "id = 3"},
		} {
			t.Run(verb+" "+c.where+" after "+c.hold, func(t *testing.T) {
				db, t1, t2 := claimDB(t)
				mustExec(t, t1, "BEGIN")
				mustExec(t, t1, c.hold)
				waits := counter(t, db, "lock.row_waits")
				done := execAsync(t2, head+c.where)
				select {
				case r := <-done:
					if r.err != nil || r.res.RowsAffected != 0 {
						t.Fatalf("%+v, %v; want 0 rows", r.res, r.err)
					}
				case <-time.After(2 * time.Second):
					t.Fatal("the statement waited for the holder of a row its WHERE rejects")
				}
				if got := counter(t, db, "lock.row_waits") - waits; got != 0 {
					t.Errorf("lock.row_waits moved by %d, want 0", got)
				}
				mustExec(t, t1, "ROLLBACK")
				if got := rowOf(t, t2, 3); got != "7" {
					t.Errorf("id 3 is %s, want 7", got)
				}
			})
		}

		// The holder sets v = 5, which matches; then it may write again
		// before it ends.
		for _, c := range []struct {
			where, then, end string
			want             int64  // rows the statement affects
			v                string // id 3's v after both ("gone": deleted)
		}{
			{"id = 3", "", "ROLLBACK", 1, "8"},
			{"id = 3", "", "COMMIT", 1, "6"},
			{"id = 3 AND v = 5", "", "ROLLBACK", 0, "7"},
			{"id = 3 AND v = 5", "", "COMMIT", 1, "6"},
			{"id = 3 AND v = 5", "UPDATE w SET v = 4 WHERE id = 3", "COMMIT", 0, "4"},
		} {
			if verb == "DELETE" && c.want == 1 {
				c.v = "gone"
			}
			name := verb + " " + c.where + " then " + c.end
			if c.then != "" {
				name = verb + " " + c.where + " after a second write then " + c.end
			}
			t.Run(name, func(t *testing.T) {
				db, t1, t2 := claimDB(t)
				mustExec(t, t1, "BEGIN")
				mustExec(t, t1, "UPDATE w SET v = 5 WHERE id = 3")
				waits := counter(t, db, "lock.waits")
				done := execAsync(t2, head+c.where)
				mustBlock(t, db, waits, done, verb+" of a held row that matches")
				if c.then != "" {
					mustExec(t, t1, c.then)
				}
				mustExec(t, t1, c.end)
				r := <-done
				if r.err != nil || r.res.RowsAffected != c.want {
					t.Fatalf("%+v, %v; want %d rows", r.res, r.err, c.want)
				}
				if got := rowOf(t, t2, 3); got != c.v {
					t.Errorf("id 3 is %s, want %s", got, c.v)
				}
			})
		}
	}
}

// TestProbedRowFailingWhereWritesNothing: a row the index probe names but a
// non-key conjunct rejects is not written, under EXPLAIN ANALYZE too: 0 rows
// affected, the row as it was, and nothing appended to the log nor flushed,
// as for an UPDATE whose probe names no row at all (a transaction that logged
// nothing commits like a read-only one).
func TestProbedRowFailingWhereWritesNothing(t *testing.T) {
	db, c, _ := claimDB(t)
	logged := func(sql string) {
		t.Helper()
		bytes, flushes := counter(t, db, "wal.bytes_appended"), counter(t, db, "wal.flushes")
		if strings.HasPrefix(sql, "EXPLAIN") {
			plan := renderExplain(mustQuery(t, c, sql))
			if len(plan) != 1 || !strings.HasPrefix(plan[0], "IndexScan(w.w_id)|") || !strings.HasSuffix(plan[0], "|1") {
				t.Errorf("%s: %q, want the probe alone handing over one RID", sql, plan)
			}
		} else if res := mustExec(t, c, sql); res.RowsAffected != 0 {
			t.Errorf("%s affected %d rows, want 0", sql, res.RowsAffected)
		}
		bytes, flushes = counter(t, db, "wal.bytes_appended")-bytes, counter(t, db, "wal.flushes")-flushes
		if bytes != 0 || flushes != 0 {
			t.Errorf("%s appended %d log bytes in %d flushes, want 0 and 0", sql, bytes, flushes)
		}
	}
	const upd = "UPDATE w SET v = 9 WHERE id = 3 AND v = 5"
	logged("UPDATE w SET v = 9 WHERE id = 99")
	logged(upd)
	logged("EXPLAIN ANALYZE " + upd)
	if got := rowOf(t, c, 3); got != "7" {
		t.Errorf("id 3 is %s, want 7", got)
	}
}
