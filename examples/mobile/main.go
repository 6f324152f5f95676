// Mobile deployment: the Windows CE configuration — flash storage with a
// calibrated DTT model, the CE-mode cache governor (no working-set API),
// and a complex query optimized in a tiny buffer pool (§2, §4.1, §4.2).
//
//	go run ./examples/mobile
package main

import (
	"fmt"
	"log"
	"strings"

	"anywheredb/internal/core"
	"anywheredb/internal/device"
	"anywheredb/internal/vclock"
)

func main() {
	clk := vclock.New()
	// The simulated handheld (Clock, Device, CEMode, TotalRAM) and the
	// pool's starting size are engine-internal inputs, so this example
	// opens through core.
	db, err := core.Open(core.Options{
		Clock:  clk,
		Device: device.NewFlash(device.SDCard512(), clk), // SD card storage
		CEMode: true,
		// A handheld: 64 MB of RAM, 3 MB buffer pool cap.
		TotalRAM:      64 << 20,
		PoolMinPages:  64,
		PoolInitPages: 256,
		PoolMaxPages:  768,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()
	conn, err := db.Connect()
	if err != nil {
		log.Fatal(err)
	}
	defer conn.Close()

	// Calibrate the cost model for the flash device and store it in the
	// catalog — deployable to thousands of devices from one measurement.
	if _, err := conn.Exec("CALIBRATE DATABASE"); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("cost model: %s\n", db.DTTModel().Name)

	// A 20-way join on a PDA-sized pool: the depth-first branch-and-bound
	// enumerator needs only the current search path.
	for i := 0; i < 20; i++ {
		conn.Exec(fmt.Sprintf("CREATE TABLE m%d (k INT, v INT)", i))
		for r := 0; r < 4; r++ {
			conn.Exec(fmt.Sprintf("INSERT INTO m%d VALUES (%d, %d)", i, r, r*10))
		}
	}
	var q strings.Builder
	q.WriteString("SELECT COUNT(*) FROM ")
	for i := 0; i < 20; i++ {
		if i > 0 {
			q.WriteString(", ")
		}
		fmt.Fprintf(&q, "m%d", i)
	}
	q.WriteString(" WHERE ")
	for i := 1; i < 20; i++ {
		if i > 1 {
			q.WriteString(" AND ")
		}
		fmt.Fprintf(&q, "m%d.k = m%d.k", i-1, i)
	}
	rows, err := conn.Query(q.String())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("20-way join result: %v rows matched (pool: %d pages)\n",
		rows.All()[0][0].I, db.Pool().SizePages())
	if p := rows.Plan(); p != nil && p.Enum != nil {
		fmt.Printf("optimizer visits: %d, approx enumerator state: %d bytes\n",
			p.Enum.Visits, p.Enum.BytesApprox)
	}

	// CE-mode governor: another app allocates; the pool gives memory back.
	before := db.Pool().SizePages()
	db.Machine().SetExternal("mail-client", 52<<20)
	clk.Advance(vclock.Minute)
	d := db.CacheGovernor().Poll()
	fmt.Printf("CE governor: pool %d -> %d pages under memory pressure (%s)\n",
		before, db.Pool().SizePages(), d.Reason)
}
