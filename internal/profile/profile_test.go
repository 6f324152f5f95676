package profile

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"anywheredb/internal/core"
	"anywheredb/internal/val"
)

func setup(t *testing.T) (*core.DB, *core.Conn, *Tracer) {
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
	tr := NewTracer()
	db.SetTracer(tr)
	return db, c, tr
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

func TestTracerCaptures(t *testing.T) {
	_, c, tr := setup(t)
	seed(t, c, 10)
	c.Query("SELECT COUNT(*) FROM orders")
	events := tr.Events()
	if len(events) < 3 {
		t.Fatalf("events %d", len(events))
	}
	last := events[len(events)-1]
	if !strings.HasPrefix(last.SQL, "SELECT") || last.Rows != 1 {
		t.Fatalf("last event %+v", last)
	}
	tr.Reset()
	if len(tr.Events()) != 0 {
		t.Fatal("reset failed")
	}
}

func TestClientSideJoinDetection(t *testing.T) {
	_, c, tr := setup(t)
	seed(t, c, 200)
	// The classic anti-pattern: a loop issuing one query per id.
	for i := 0; i < 25; i++ {
		c.Query(fmt.Sprintf("SELECT amount FROM orders WHERE oid = %d", i))
	}
	// Some unrelated statements below the threshold.
	c.Query("SELECT COUNT(*) FROM orders")

	findings := Analyze(tr.Events(), nil)
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

func TestOptionFindings(t *testing.T) {
	findings := Analyze(nil, map[string]string{
		"blocking_timeout": "0",
		"auto_commit":      "off",
		"harmless":         "x",
	})
	if len(findings) != 2 {
		t.Fatalf("findings %v", findings)
	}
}

func TestIndexConsultant(t *testing.T) {
	// A workload probing by cust — no index exists on cust — as literal SQL
	// and as the prepared statement a wire client sends. The literal texts
	// share one statement shape in the engine, but the trace holds each as
	// it was submitted, so the consultant costs both workloads alike.
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
			db, c, tr := setup(t)
			seed(t, c, 5000)
			for i := 0; i < 12; i++ {
				if err := probe(c, i); err != nil {
					t.Fatal(err)
				}
			}
			texts := map[string]bool{}
			for _, e := range tr.Events() {
				if strings.HasPrefix(e.SQL, "SELECT") {
					texts[e.SQL] = true
				}
			}
			if want := map[string]int{"literal": 12, "parameters": 1}[name]; len(texts) != want {
				t.Fatalf("the trace holds %d distinct probe texts, want %d: %v", len(texts), want, texts)
			}
			recs, err := IndexConsultant(db, tr.Events(), nil)
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

func TestIndexConsultantNoGainNoRecommendation(t *testing.T) {
	db, c, tr := setup(t)
	seed(t, c, 100)
	// Full scans benefit little from an index.
	for i := 0; i < 12; i++ {
		c.Query("SELECT COUNT(*) FROM orders")
	}
	recs, err := IndexConsultant(db, tr.Events(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 {
		t.Fatalf("unexpected recommendations %+v", recs)
	}
}

func TestSaveTo(t *testing.T) {
	db, c, tr := setup(t)
	seed(t, c, 10)
	c.Query("SELECT COUNT(*) FROM orders")
	db.SetTracer(nil) // stop tracing before writing the trace
	if err := tr.SaveTo(c, "trace_log"); err != nil {
		t.Fatal(err)
	}
	rows, err := c.Query("SELECT COUNT(*) FROM trace_log")
	if err != nil {
		t.Fatal(err)
	}
	if rows.All()[0][0].I < 3 {
		t.Fatalf("trace rows %v", rows.All()[0][0])
	}
	_ = val.Null
}
