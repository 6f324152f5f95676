package profile

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"anywheredb/internal/core"
	"anywheredb/internal/flightrec"
	"anywheredb/internal/val"
)

func setup(t *testing.T) (*core.DB, *core.Conn) {
	t.Helper()
	db, err := core.Open(core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	c, err := db.Connect()
	if err != nil {
		t.Fatal(err)
	}
	return db, c
}

// digests is the workload trace the profiling tools read.
func digests(db *core.DB) []flightrec.DigestStat {
	return db.FlightRecorder().Digests().Snapshot()
}

func seed(t *testing.T, c *core.Conn, n int) {
	t.Helper()
	if _, err := c.Exec("CREATE TABLE orders (oid INT, cust INT, amount DOUBLE)"); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	sb.WriteString("INSERT INTO orders VALUES ")
	for i := 0; i < n; i++ {
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "(%d, %d, %d.0)", i, i%100, i)
	}
	if _, err := c.Exec(sb.String()); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Exec("CREATE STATISTICS orders"); err != nil {
		t.Fatal(err)
	}
}

func TestClientSideJoinDetection(t *testing.T) {
	db, c := setup(t)
	seed(t, c, 200)
	// The classic anti-pattern: a loop issuing one query per id.
	for i := 0; i < 25; i++ {
		c.Query(fmt.Sprintf("SELECT amount FROM orders WHERE oid = %d", i))
	}
	// Some unrelated statements below the threshold.
	c.Query("SELECT COUNT(*) FROM orders")

	findings := Analyze(digests(db))
	var csj *Finding
	for i := range findings {
		if findings[i].Kind == "client-side-join" {
			csj = &findings[i]
		}
	}
	if csj == nil {
		t.Fatal("client-side join not detected")
	}
	if csj.Count != 25 {
		t.Fatalf("count %d", csj.Count)
	}
}

func TestIndexConsultant(t *testing.T) {
	// A workload probing by cust — no index exists on cust — as literal SQL
	// and as the prepared statement a wire client sends. Either way it is
	// one digest called 12 times, whose sample is the first statement as
	// submitted, so the consultant costs both workloads alike.
	got := map[string]Recommendation{}
	defer func() {
		if lit, par := got["literal"], got["parameters"]; !t.Failed() && !reflect.DeepEqual(lit, par) {
			t.Errorf("the literal workload is recommended %+v, the same workload with parameters %+v", lit, par)
		}
	}()
	for name, probe := range map[string]func(c *core.Conn, i int) error{
		"literal": func(c *core.Conn, i int) error {
			_, err := c.Query(fmt.Sprintf("SELECT amount FROM orders WHERE cust = %d", i))
			return err
		},
		"parameters": func(c *core.Conn, i int) error {
			_, err := c.Query("SELECT amount FROM orders WHERE cust = ?", val.NewInt(int64(i)))
			return err
		},
	} {
		t.Run(name, func(t *testing.T) {
			db, c := setup(t)
			seed(t, c, 5000)
			for i := 0; i < 12; i++ {
				if err := probe(c, i); err != nil {
					t.Fatal(err)
				}
			}
			ds := digests(db)
			var probes []flightrec.DigestStat
			for _, d := range ds {
				if strings.HasPrefix(d.Fingerprint, "SELECT") {
					probes = append(probes, d)
				}
			}
			if len(probes) != 1 || probes[0].Calls != 12 {
				t.Fatalf("the trace holds %+v, want one SELECT digest called 12 times", probes)
			}
			recs, err := IndexConsultant(db, ds)
			if err != nil {
				t.Fatal(err)
			}
			if len(recs) == 0 {
				t.Fatal("expected an index recommendation on orders(cust)")
			}
			r := recs[0]
			got[name] = r
			if r.Table != "orders" || len(r.Columns) != 1 || r.Columns[0] != "cust" {
				t.Fatalf("recommendation %+v", r)
			}
			if r.BenefitFrac < MinBenefit {
				t.Fatalf("benefit %g", r.BenefitFrac)
			}
			// Virtual indexes must not persist.
			tbl, _ := db.Table("orders")
			for _, ix := range tbl.Indexes {
				if strings.HasPrefix(ix.Name, "__virtual_") {
					t.Fatal("virtual index leaked")
				}
			}
		})
	}
}

// TestIndexConsultantLeavesStatistics: a virtual index is priced on the
// statistics the table has, and building one rebuilds none. Rows inserted
// after CREATE STATISTICS move the live histograms away from what a
// fresh scan would build; every column's histogram must encode the same
// bytes after the consultant ran as before.
func TestIndexConsultantLeavesStatistics(t *testing.T) {
	db, c := setup(t)
	seed(t, c, 5000)
	for i := 0; i < 150; i++ {
		if _, err := c.Exec(fmt.Sprintf("INSERT INTO orders VALUES (%d, %d, 1.0)", 5000+i, 1000+i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 12; i++ {
		if _, err := c.Query(fmt.Sprintf("SELECT amount FROM orders WHERE cust = %d", i)); err != nil {
			t.Fatal(err)
		}
	}
	tbl, _ := db.Table("orders")
	var before [][]byte
	for _, h := range tbl.Hists {
		before = append(before, h.Encode())
	}
	recs, err := IndexConsultant(db, digests(db))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) == 0 || recs[0].Columns[0] != "cust" {
		t.Fatalf("recommendations %+v, want orders(cust)", recs)
	}
	for i, h := range tbl.Hists {
		if !bytes.Equal(h.Encode(), before[i]) {
			t.Errorf("the consultant changed the histogram of %s", tbl.Columns[i].Name)
		}
	}
}

func TestIndexConsultantNoGainNoRecommendation(t *testing.T) {
	db, c := setup(t)
	seed(t, c, 100)
	// Full scans benefit little from an index.
	for i := 0; i < 12; i++ {
		c.Query("SELECT COUNT(*) FROM orders")
	}
	recs, err := IndexConsultant(db, digests(db))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 {
		t.Fatalf("unexpected recommendations %+v", recs)
	}
}

// TestIndexConsultantWithoutTrace: a database whose flight recorder is off
// keeps no workload trace, and the Index Consultant says so by name rather
// than returning an empty result that reads as "no index would help".
func TestIndexConsultantWithoutTrace(t *testing.T) {
	db, err := core.Open(core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	db.FlightRecorder().SetEnabled(false)
	c, err := db.Connect()
	if err != nil {
		t.Fatal(err)
	}
	seed(t, c, 100)
	for i := 0; i < 12; i++ {
		c.Query(fmt.Sprintf("SELECT amount FROM orders WHERE cust = %d", i))
	}
	recs, err := IndexConsultant(db, digests(db))
	if !errors.Is(err, ErrNoTrace) || recs != nil {
		t.Fatalf("IndexConsultant with the recorder off: %v, %v; want ErrNoTrace", recs, err)
	}
}

// TestTraceCapturedIntoTable: the paper captures the trace into ordinary
// tables; sys.statements is that trace relation, so one INSERT ... SELECT
// saves it.
func TestTraceCapturedIntoTable(t *testing.T) {
	_, c := setup(t)
	seed(t, c, 10)
	for i := 0; i < 3; i++ {
		c.Query(fmt.Sprintf("SELECT amount FROM orders WHERE oid = %d", i))
	}
	if _, err := c.Exec("CREATE TABLE trace_log (fp VARCHAR(4000), calls BIGINT)"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Exec("INSERT INTO trace_log SELECT fingerprint, calls FROM sys.statements"); err != nil {
		t.Fatal(err)
	}
	rows, err := c.Query("SELECT calls FROM trace_log WHERE fp = 'SELECT amount FROM orders WHERE oid = ?'")
	if err != nil {
		t.Fatal(err)
	}
	if got := rows.All(); len(got) != 1 || got[0][0].I != 3 {
		t.Fatalf("captured trace rows %v, want one fingerprint with 3 calls", got)
	}
}
