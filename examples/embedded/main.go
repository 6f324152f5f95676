// Embedded lifecycle: the database starts with the application, manages
// its own buffer pool against a (simulated) machine's memory, and shuts
// down automatically when the last connection closes (§1, §2).
//
//	go run ./examples/embedded
package main

import (
	"fmt"
	"log"

	"anywheredb"
	"anywheredb/internal/core"
	"anywheredb/internal/vclock"
)

func main() {
	clk := vclock.New()
	// The simulated machine (Clock, TotalRAM) and the pool's starting size
	// are engine-internal inputs, so this example opens through core.
	db, err := core.Open(core.Options{
		Clock:         clk,
		AutoShutdown:  true,
		PoolMinPages:  32,
		PoolInitPages: 64,
		PoolMaxPages:  8192,
		TotalRAM:      256 << 20,
	})
	if err != nil {
		log.Fatal(err)
	}

	conn, err := db.Connect()
	if err != nil {
		log.Fatal(err)
	}

	conn.Exec("CREATE TABLE note (id INT, body VARCHAR(200))")
	pad := fmt.Sprintf("%0200d", 0) // 200-byte bodies so the database has real size
	for i := 0; i < 20000; i++ {
		conn.Exec("INSERT INTO note VALUES (?, ?)",
			anywheredb.Int(int64(i)), anywheredb.Str(pad))
	}

	// The cache-sizing governor polls the machine and adjusts the pool.
	// Between polls the application scans, so the pool misses while it is
	// smaller than the working set (Eq. 1 caps it near the database size).
	fmt.Printf("pool before governor: %d pages\n", db.Pool().SizePages())
	for i := 0; i < 6; i++ {
		conn.Query("SELECT COUNT(*) FROM note")
		clk.Advance(vclock.Minute)
		d := db.CacheGovernor().Poll()
		fmt.Printf("poll %d: ws=%.1fMB free=%.1fMB pool=%.1fMB (%s)\n",
			i, float64(d.WorkingSet)/(1<<20), float64(d.Free)/(1<<20),
			float64(d.Applied)/(1<<20), d.Reason)
	}

	// A competing application appears; the pool gives memory back.
	db.Machine().SetExternal("browser", 250<<20)
	clk.Advance(vclock.Minute)
	d := db.CacheGovernor().Poll()
	fmt.Printf("under pressure: pool=%.1fMB (%s)\n", float64(d.Applied)/(1<<20), d.Reason)

	// Closing the last connection shuts the database down.
	conn.Close()
	fmt.Printf("database closed automatically: %v\n", db.Closed())
}
