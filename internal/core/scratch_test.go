package core

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"anywheredb/internal/btree"
	"anywheredb/internal/table"
	"anywheredb/internal/val"
)

// A write statement cuts its row images from the transaction's scratch
// chunks and builds its keys in the transaction's key scratch and its new
// rows in the connection's rows (see txn.Txn.Scratch). The tests below
// write more than three chunks' worth of images in one transaction and then
// need every one of them back: a rollback's inverses read them, a crash's
// recovery reads the log copies, and a snapshot reader reads the version
// entries, which must hold nothing the scratch holds.

// scratchRows is the row count of scratchDB's table s.
const scratchRows = 200

// scratchDB opens a database in dir with table s (id, grp, pad): ids
// 1..scratchRows, grp = id % 10, a 300-byte pad, a unique index on id and
// a non-unique one on grp.
func scratchDB(t *testing.T, dir string) (*DB, *Conn) {
	t.Helper()
	db := openDB(t, Options{Dir: dir})
	c := conn(t, db)
	mustExec(t, c, "CREATE TABLE s (id INT, grp INT, pad VARCHAR(2000))")
	mustExec(t, c, "BEGIN")
	for id := int64(1); id <= scratchRows; id++ {
		mustExec(t, c, "INSERT INTO s VALUES (?, ?, ?)", val.NewInt(id), val.NewInt(id%10), val.NewStr(strings.Repeat("a", 300)))
	}
	mustExec(t, c, "COMMIT")
	mustExec(t, c, "CREATE UNIQUE INDEX s_id ON s (id)")
	mustExec(t, c, "CREATE INDEX s_grp ON s (grp)")
	return db, c
}

// tableImage renders s's heap, each row with its RID, after checking that
// every index of s holds exactly one entry per row, under the row's key and
// naming its RID.
func tableImage(t *testing.T, db *DB) string {
	t.Helper()
	tbl, _ := db.Table("s")
	var heap []string
	want := map[string][]string{}
	if err := tbl.Scan(func(rid table.RID, row []val.Value) (bool, error) {
		heap = append(heap, fmt.Sprintf("%v %v", rid, row))
		for _, ix := range tbl.IndexList() {
			want[ix.Name] = append(want[ix.Name], fmt.Sprintf("%x %v", ix.Key(row), rid))
		}
		return true, nil
	}); err != nil {
		t.Fatal(err)
	}
	for _, ix := range tbl.IndexList() {
		var got []string
		var it btree.Iterator
		for err := ix.Tree.First(&it); it.Valid(); it.Next() {
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, fmt.Sprintf("%x %v", it.Key(), table.RIDFromBytes(it.Value())))
		}
		if err := it.Err(); err != nil {
			t.Fatal(err)
		}
		it.Close()
		slices.Sort(got)
		slices.Sort(want[ix.Name])
		if !slices.Equal(got, want[ix.Name]) {
			t.Errorf("index %s holds %d entries that are not the heap's %d rows", ix.Name, len(got), len(heap))
		}
	}
	return strings.Join(heap, "\n")
}

// scratchSpanningTxn runs, in an open transaction on c, updates and deletes
// of s whose old and new images come to more than three 16 KiB scratch
// chunks: in-place updates, key changes under both indexes, moved rows
// (some changing their key too), deletes by key, and an UPDATE of the many
// rows the non-unique index finds. It fails the test unless a row moved.
func scratchSpanningTxn(t *testing.T, db *DB, c *Conn) {
	t.Helper()
	tbl, _ := db.Table("s")
	ridOf := func(id int64) table.RID {
		var at table.RID
		if err := tbl.Scan(func(rid table.RID, row []val.Value) (bool, error) {
			if row[0].I == id {
				at = rid
			}
			return true, nil
		}); err != nil {
			t.Fatal(err)
		}
		return at
	}
	images := 0
	padded := func(id int64, pad string) []val.Value {
		return []val.Value{val.NewInt(id), val.NewInt(id % 10), val.NewStr(pad)}
	}
	old := strings.Repeat("a", 300)
	for id := int64(1); id <= 60; id++ {
		pad := strings.Repeat("b", 300)
		mustExec(t, c, "UPDATE s SET pad = ? WHERE id = ?", val.NewStr(pad), val.NewInt(id))
		images += val.RowSize(padded(id, old)) + val.RowSize(padded(id, pad))
	}
	for id := int64(61); id <= 80; id++ {
		mustExec(t, c, "UPDATE s SET id = id + 1000, grp = grp + 100 WHERE id = ?", val.NewInt(id))
		images += 2 * val.RowSize(padded(id, old))
	}
	home := ridOf(81)
	for id := int64(81); id <= 90; id++ {
		pad := strings.Repeat("c", 1500)
		sql := "UPDATE s SET pad = ? WHERE id = ?"
		if id%2 == 0 {
			sql = "UPDATE s SET pad = ?, id = id + 2000 WHERE id = ?"
		}
		mustExec(t, c, sql, val.NewStr(pad), val.NewInt(id))
		images += val.RowSize(padded(id, old)) + val.RowSize(padded(id, pad))
	}
	if ridOf(81) == home {
		t.Fatal("growing id 81 past its page's free space did not move it; the test proves nothing")
	}
	for id := int64(91); id <= 140; id++ {
		mustExec(t, c, "DELETE FROM s WHERE id = ?", val.NewInt(id))
		images += val.RowSize(padded(id, old))
	}
	if res := mustExec(t, c, "UPDATE s SET grp = grp + 50 WHERE grp = 3"); res.RowsAffected == 0 {
		t.Fatal("the UPDATE by grp found no row")
	}
	if images < 3*16<<10 {
		t.Fatalf("the transaction's images come to %d bytes, under three scratch chunks", images)
	}
}

// TestScratchSpanningWritesAreTakenBack: a transaction whose images span
// more than three scratch chunks is taken back whole, by ROLLBACK and, after
// its pages and log reached disk, by recovery from a crash before its end.
// Every row is back at its RID with its image, and every index agrees with
// the heap.
func TestScratchSpanningWritesAreTakenBack(t *testing.T) {
	for _, end := range []string{"rollback", "crash"} {
		t.Run(end, func(t *testing.T) {
			dir := t.TempDir()
			db, c := scratchDB(t, dir)
			before := tableImage(t, db)
			mustExec(t, c, "BEGIN")
			scratchSpanningTxn(t, db, c)
			if tableImage(t, db) == before {
				t.Fatal("the transaction changed nothing")
			}
			if end == "rollback" {
				mustExec(t, c, "ROLLBACK")
			} else {
				if err := db.Pool().FlushAll(); err != nil {
					t.Fatal(err)
				}
				db, c = crashAndReopen(t, db, dir)
			}
			if after := tableImage(t, db); after != before {
				t.Errorf("after %s the heap is\n%s\nnot\n%s", end, after, before)
			}
			if n := countRows(t, c, "s"); n != scratchRows {
				t.Errorf("after %s: %d rows, want %d", end, n, scratchRows)
			}
		})
	}
}

// TestSnapshotReadsPreImageAcrossScratchReuse: a snapshot taken before an
// UPDATE reads the row's pre-image, by index and by scan, after the writer
// has run more than a hundred further statements in its transaction (which
// reuse its scratch chunks, its key scratch and the connection's rows), and
// again after the writer commits.
func TestSnapshotReadsPreImageAcrossScratchReuse(t *testing.T) {
	db, w := scratchDB(t, t.TempDir())
	r := conn(t, db)
	all := "SELECT id, grp, pad FROM s ORDER BY id"
	before := fmt.Sprint(mustQuery(t, w, all).All())
	mustExec(t, r, "BEGIN READ ONLY")
	one := fmt.Sprint(mustQuery(t, r, "SELECT id, grp, pad FROM s WHERE id = 1").All())

	mustExec(t, w, "BEGIN")
	mustExec(t, w, "UPDATE s SET grp = 77, pad = 'new' WHERE id = 1")
	statements := 1
	for id := int64(2); id <= scratchRows; id++ {
		mustExec(t, w, "UPDATE s SET grp = grp + 1, pad = ? WHERE id = ?", val.NewStr(strings.Repeat("d", 300)), val.NewInt(id))
		statements++
	}
	if statements < 101 {
		t.Fatalf("the writer ran %d statements", statements)
	}
	check := func(when string) {
		t.Helper()
		if got := fmt.Sprint(mustQuery(t, r, "SELECT id, grp, pad FROM s WHERE id = 1").All()); got != one {
			t.Errorf("%s: the snapshot reads id 1 by key as %s, want %s", when, got, one)
		}
		if got := fmt.Sprint(mustQuery(t, r, all).All()); got != before {
			t.Errorf("%s: the snapshot's scan is not the table before the writer", when)
		}
	}
	check(fmt.Sprintf("after %d writer statements", statements))
	mustExec(t, w, "COMMIT")
	check("after the writer's commit")
	mustExec(t, r, "COMMIT")
	if got := fmt.Sprint(mustQuery(t, r, "SELECT grp, pad FROM s WHERE id = 1").All()); got != "[[77 new]]" {
		t.Errorf("after the reader's end it reads id 1 as %s, want [[77 new]]", got)
	}
}
