package core

import (
	"fmt"
	"strings"
	"testing"
)

// published is what one statement's run added to what the engine publishes
// about its executor: the telemetry counters, the statement's own
// flight-recorder span, and the access table the storage reorganizer reads.
type published struct {
	batches, skipped, decoded int64 // exec.batches, colseg.segments_skipped, colseg.decode_rows
	spanBatches, spanSpill    int64 // the span's batches and spill_bytes
	access                    string
}

// publishedBy runs sql on c and reports what it published, the access
// table as each of tables' change (scans+, rows scanned+, writes+), and the
// statement's error.
func publishedBy(t *testing.T, db *DB, c *Conn, sql string, tables ...string) (published, error) {
	t.Helper()
	names := []string{"exec.batches", "colseg.segments_skipped", "colseg.decode_rows"}
	var before [3]int64
	for i, n := range names {
		before[i] = counter(t, db, n)
	}
	type access struct{ scans, rows, writes int64 }
	accBefore := make([]access, len(tables))
	for i, name := range tables {
		st, _ := db.FlightRecorder().Access().Get(name)
		accBefore[i] = access{st.Scans, st.ScanRows, st.Writes}
	}
	_, err := c.Query(sql)
	var p published
	p.batches = counter(t, db, names[0]) - before[0]
	p.skipped = counter(t, db, names[1]) - before[1]
	p.decoded = counter(t, db, names[2]) - before[2]
	var acc []string
	for i, name := range tables {
		st, _ := db.FlightRecorder().Access().Get(name)
		acc = append(acc, fmt.Sprintf("%s +%d/+%d/+%d", name,
			st.Scans-accBefore[i].scans, st.ScanRows-accBefore[i].rows, st.Writes-accBefore[i].writes))
	}
	p.access = strings.Join(acc, " ")
	// The newest span in the ring is the statement's: the query reading it
	// has not finished its own.
	var seq int64 = -1
	for _, r := range mustQuery(t, c, "SELECT seq, batches, spill_bytes FROM sys.recent_statements").All() {
		if r[0].I > seq {
			seq, p.spanBatches, p.spanSpill = r[0].I, r[1].I, r[2].I
		}
	}
	return p, err
}

// TestStatementsPublishWhatTheyDid pins, statement by statement, what the
// executor's work adds to the engine's published figures: the batches the
// plan root delivered (to exec.batches and to the span), the segments a
// zone map skipped and the rows decoded, the bytes spilled, and the table
// scans noted in the access table, which a DML statement's own target scan
// stays out of. The figures are those of a statement that runs several
// plans as well as one that fails part way.
func TestStatementsPublishWhatTheyDid(t *testing.T) {
	db := openDB(t, Options{VacuumInterval: -1})
	c := conn(t, db)
	defer c.Close()
	mustExec(t, c, "CREATE TABLE p (id INT, v INT)")
	mustExec(t, c, "CREATE TABLE src (k INT, v INT)")
	mustExec(t, c, "CREATE TABLE dst (k INT, v INT)")
	var sp, ss strings.Builder
	for i := 0; i < 100; i++ {
		fmt.Fprintf(&sp, ", (%d, %d)", i, 10*i)
	}
	for i := 0; i < 2000; i++ {
		fmt.Fprintf(&ss, ", (%d, %d)", i, i%50)
	}
	mustExec(t, c, "INSERT INTO p VALUES "+sp.String()[2:])
	mustExec(t, c, "INSERT INTO src VALUES "+ss.String()[2:])
	mustExec(t, c, "CREATE UNIQUE INDEX p_pk ON p (id)")
	seedFact(t, db, c, 320)
	mustExec(t, c, "ALTER TABLE fact STORE COLUMNAR")

	cases := []struct {
		name, sql string
		tables    []string
		want      published
		fails     bool
	}{
		{"point lookup", "SELECT v FROM p WHERE id = 5", []string{"p"},
			published{batches: 1, spanBatches: 1, access: "p +0/+0/+0"}, false},
		{"zone-hinted columnar scan", "SELECT v FROM fact WHERE k = 100", []string{"fact"},
			published{batches: 1, skipped: 4, decoded: 64, spanBatches: 1, access: "fact +1/+64/+0"}, false},
		{"update by a subquery over a heap scan", "UPDATE p SET v = v + 1 WHERE id IN (SELECT k FROM src WHERE v = 7)", []string{"p", "src"},
			published{batches: 3, spanBatches: 3, access: "p +0/+0/+1 src +1/+2000/+0"}, false},
		{"select failing after its first batch", "SELECT 100 / (k - 1500) FROM src", []string{"src"},
			published{batches: 1, spanBatches: 1, access: "src +1/+2000/+0"}, true},
		{"insert select", "INSERT INTO dst SELECT k, v FROM src WHERE v < 10", []string{"src", "dst"},
			published{batches: 2, spanBatches: 2, access: "src +1/+2000/+0 dst +0/+0/+1"}, false},
		{"recursive union", "WITH RECURSIVE nums (n) AS (SELECT 1 UNION ALL SELECT n + 1 FROM nums WHERE n < 5) SELECT n FROM nums", nil,
			published{batches: 8, spanBatches: 8}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, err := publishedBy(t, db, c, tc.sql, tc.tables...)
			if (err != nil) != tc.fails {
				t.Fatalf("error %v, want one: %v", err, tc.fails)
			}
			if got != tc.want {
				t.Errorf("published %+v\nwant      %+v", got, tc.want)
			}
		})
	}

	t.Run("spilling sort", func(t *testing.T) {
		small := openDB(t, Options{PoolMinPages: 64, PoolInitPages: 64, PoolMaxPages: 64, VacuumInterval: -1})
		cs := conn(t, small)
		defer cs.Close()
		mustExec(t, cs, "CREATE TABLE b (k INT, s VARCHAR(40))")
		var sb strings.Builder
		for i := 0; i < 20000; i++ {
			fmt.Fprintf(&sb, ", (%d, 'payload-%032d')", i*7919%20000, i)
		}
		mustExec(t, cs, "INSERT INTO b VALUES "+sb.String()[2:])
		got, err := publishedBy(t, small, cs, "SELECT k, s FROM b ORDER BY k", "b")
		if err != nil {
			t.Fatal(err)
		}
		want := published{batches: 79, spanBatches: 79, spanSpill: 2 << 20, access: "b +1/+20000/+0"}
		if got != want {
			t.Errorf("published %+v\nwant      %+v", got, want)
		}
	})
}
