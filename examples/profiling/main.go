// Application Profiling: read a workload back from the flight recorder's
// digest table, detect a client-side join, and let the Index Consultant
// recommend an index via virtual indexes (§5).
//
//	go run ./examples/profiling
package main

import (
	"fmt"
	"log"
	"strings"

	"anywheredb"
	"anywheredb/internal/profile"
)

func main() {
	db, err := anywheredb.Open(anywheredb.Options{PoolMinPages: 1024, PoolMaxPages: 2048})
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()
	conn, _ := db.Connect()
	defer conn.Close()

	conn.Exec("CREATE TABLE orders (oid INT, cust INT, amount DOUBLE)")
	var rows []string
	for i := 0; i < 8000; i++ {
		rows = append(rows, fmt.Sprintf("(%d, %d, %d.25)", i, i%400, i))
	}
	for lo := 0; lo < len(rows); lo += 500 {
		hi := lo + 500
		if hi > len(rows) {
			hi = len(rows)
		}
		conn.Exec("INSERT INTO orders VALUES " + strings.Join(rows[lo:hi], ", "))
	}
	conn.Exec("CREATE STATISTICS orders")

	// The flight recorder captures all server activity; a reset scopes the
	// profiling window to the application's run (§5).
	digests := db.FlightRecorder().Digests()
	digests.Reset()

	// The application's anti-pattern: a loop issuing one query per
	// customer instead of a single join.
	for cust := 0; cust < 30; cust++ {
		conn.Query(fmt.Sprintf("SELECT amount FROM orders WHERE cust = %d", cust))
	}

	// Analysis: the flaw database recognizes the pattern.
	trace := digests.Snapshot()
	for _, f := range profile.Analyze(trace) {
		fmt.Printf("[%s] %s\n", f.Kind, f.Detail)
	}

	// The Index Consultant evaluates the indexes the optimizer would like
	// to have, as virtual indexes in the temp file.
	recs, err := profile.IndexConsultant(db, trace)
	if err != nil {
		log.Fatal(err)
	}
	for _, r := range recs {
		fmt.Printf("recommend: CREATE INDEX ON %s (%s) — estimated workload cost %.0f -> %.0f (%.0f%% better)\n",
			r.Table, strings.Join(r.Columns, ", "), r.CostBefore, r.CostAfter, r.BenefitFrac*100)
	}

	// Apply the top recommendation and show the improvement.
	if len(recs) > 0 {
		ddl := fmt.Sprintf("CREATE INDEX consult_ix ON %s (%s)", recs[0].Table, strings.Join(recs[0].Columns, ", "))
		if _, err := conn.Exec(ddl); err != nil {
			log.Fatal(err)
		}
		fmt.Println("applied:", ddl)
		rows, _ := conn.Query("SELECT COUNT(*) FROM orders WHERE cust = 7")
		fmt.Printf("indexed probe now returns %v rows\n", rows.All()[0][0].I)
	}
}
