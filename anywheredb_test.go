package anywheredb

import (
	"errors"
	"fmt"
	"testing"

	"anywheredb/internal/faultinject"
)

// The public façade: a downstream user's first contact with the library.
func TestPublicAPI(t *testing.T) {
	db, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	conn, err := db.Connect()
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	if _, err := conn.Exec("CREATE TABLE t (id INT, name VARCHAR(20), score DOUBLE)"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 25; i++ {
		if _, err := conn.Exec("INSERT INTO t VALUES (?, ?, ?)",
			Int(int64(i)), Str(fmt.Sprintf("n%d", i)), Double(float64(i)/2)); err != nil {
			t.Fatal(err)
		}
	}
	rows, err := conn.Query("SELECT name, score FROM t WHERE id BETWEEN ? AND ? ORDER BY id", Int(10), Int(12))
	if err != nil {
		t.Fatal(err)
	}
	if rows.Count() != 3 || rows.Columns()[0] != "name" {
		t.Fatalf("rows=%d cols=%v", rows.Count(), rows.Columns())
	}
	var names []string
	for rows.Next() {
		names = append(names, rows.Row()[0].S)
	}
	if len(names) != 3 || names[0] != "n10" || names[2] != "n12" {
		t.Fatalf("names %v", names)
	}

	if _, err := conn.Exec("INSERT INTO t VALUES (?, ?, ?)", Int(99), Null, Null); err != nil {
		t.Fatal(err)
	}
	rows, _ = conn.Query("SELECT COUNT(*) FROM t WHERE name IS NULL")
	if rows.All()[0][0].I != 1 {
		t.Fatal("NULL params")
	}
}

func TestPublicAPIPersistence(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	conn, _ := db.Connect()
	conn.Exec("CREATE TABLE kv (k VARCHAR(10), v INT)")
	conn.Exec("INSERT INTO kv VALUES ('answer', 42)")
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	conn2, _ := db2.Connect()
	rows, err := conn2.Query("SELECT v FROM kv WHERE k = ?", Str("answer"))
	if err != nil || rows.Count() != 1 || rows.All()[0][0].I != 42 {
		t.Fatalf("persistence: %v %v", rows, err)
	}
}

// The public error taxonomy: a downstream user classifying I/O failures
// with errors.Is against the re-exported sentinels, and observing the
// engine latch read-only degraded mode on a permanently failed WAL.
func TestErrorTaxonomy(t *testing.T) {
	sched := faultinject.NewSchedule(faultinject.Config{
		Seed:           1,
		PermanentAfter: map[faultinject.Op]int{faultinject.OpWALFlush: 1},
	})
	// The schema goes in while the device still works: CREATE TABLE is
	// durable when it returns, which takes log flushes.
	dir := t.TempDir()
	seed, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if c, err := seed.Connect(); err != nil {
		t.Fatal(err)
	} else if _, err := c.Exec("CREATE TABLE t (id INT)"); err != nil {
		t.Fatal(err)
	}
	if err := seed.Close(); err != nil {
		t.Fatal(err)
	}
	db, err := Open(Options{Dir: dir, Injector: sched})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	conn, err := db.Connect()
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	var werr error
	for i := 0; i < 5 && werr == nil; i++ {
		_, werr = conn.Exec("INSERT INTO t VALUES (1)")
	}
	if !errors.Is(werr, ErrPermanent) {
		t.Fatalf("want ErrPermanent, got %v", werr)
	}
	if _, err := conn.Exec("INSERT INTO t VALUES (2)"); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("degraded write: want ErrReadOnly, got %v", err)
	}
	if _, err := conn.Query("SELECT id FROM t"); err != nil {
		t.Fatalf("degraded read failed: %v", err)
	}
}
