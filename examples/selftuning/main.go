// Self-tuning statistics: histograms maintained as a side effect of query
// execution converge onto a shifted data distribution without any
// UPDATE STATISTICS command (§3).
//
//	go run ./examples/selftuning
package main

import (
	"fmt"
	"log"
	"math/rand"
	"strings"

	"anywheredb"
	"anywheredb/internal/val"
)

func main() {
	db, err := anywheredb.Open(anywheredb.Options{PoolMinPages: 1024, PoolMaxPages: 2048})
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()
	conn, _ := db.Connect()
	defer conn.Close()

	conn.Exec("CREATE TABLE events (kind INT, payload VARCHAR(20))")

	// Load uniform data; statistics are built during the load.
	rng := rand.New(rand.NewSource(1))
	var rows []string
	for i := 0; i < 20000; i++ {
		rows = append(rows, fmt.Sprintf("(%d, 'p%d')", rng.Intn(1000), i))
	}
	insertBatches(conn, rows)
	conn.Exec("CREATE STATISTICS events")

	tbl, _ := db.Table("events")
	fmt.Printf("uniform data: estimated selectivity of kind=7: %.4f (true ~0.001)\n",
		tbl.Hists[0].SelEq(val.NewInt(7)))

	// The distribution shifts: a burst of kind=7 events arrives. The
	// histograms see every INSERT.
	var burst []string
	for i := 0; i < 20000; i++ {
		burst = append(burst, "(7, 'hot')")
	}
	insertBatches(conn, burst)

	// DML maintenance adjusted the bucket masses (the covering range now
	// predicts double the rows); equality estimates stay density-based
	// until query feedback promotes the value to a singleton bucket.
	lo7, hi7 := val.NewInt(0), val.NewInt(20)
	fmt.Printf("after the shift (DML maintenance): rows in kind [0,20): %.0f of %.0f\n",
		tbl.Hists[0].SelRange(&lo7, &hi7, true, false)*tbl.Hists[0].Total(), tbl.Hists[0].Total())

	// Query feedback sharpens it further: every predicate evaluation can
	// update the histogram.
	for i := 0; i < 5; i++ {
		conn.Query("SELECT COUNT(*) FROM events WHERE kind = 7")
	}
	est := tbl.Hists[0].SelEq(val.NewInt(7))
	fmt.Printf("after query feedback: kind=7 estimate %.4f\n", est)
	fmt.Printf("histogram: %d range buckets, %d singleton buckets, density %.6f\n",
		tbl.Hists[0].BucketCount(), tbl.Hists[0].SingletonCount(), tbl.Hists[0].Density())
}

func insertBatches(conn *anywheredb.Conn, rows []string) {
	const batch = 500
	for lo := 0; lo < len(rows); lo += batch {
		hi := lo + batch
		if hi > len(rows) {
			hi = len(rows)
		}
		if _, err := conn.Exec("INSERT INTO events VALUES " + strings.Join(rows[lo:hi], ", ")); err != nil {
			log.Fatal(err)
		}
	}
}
