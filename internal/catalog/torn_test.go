package catalog_test

// The torn-chain test drives the whole engine (the checkpoint logs the images
// Save hands it, recovery restores them), so it sits in the external test
// package: core imports catalog.

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"anywheredb/internal/core"
	"anywheredb/internal/faultinject"
	"anywheredb/internal/page"
)

// crashOnCatalogWrite counts catalog page writes and, once armed, loses
// power at the nth: that write and everything after it fails.
type crashOnCatalogWrite struct {
	mu      sync.Mutex
	armed   bool
	nth     int
	seen    int
	crashed bool
}

func (c *crashOnCatalogWrite) Fault(op faultinject.Op, arg uint64, data []byte) ([]byte, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.crashed {
		return nil, faultinject.Crashed(fmt.Errorf("%v %d after crash", op, arg))
	}
	if op == faultinject.OpWrite && page.Buf(data).Type() == page.TypeCatalog {
		if c.seen++; c.armed && c.seen == c.nth {
			c.crashed = true
			return nil, faultinject.Crashed(fmt.Errorf("crash at catalog page write %d", c.seen))
		}
	}
	return nil, nil
}

func (c *crashOnCatalogWrite) Crashpoint(string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.crashed {
		return faultinject.Crashed(fmt.Errorf("crashpoint after crash"))
	}
	return nil
}

// TestTornCatalogChain: a catalog of several pages is written page by page.
// A crash between two of those writes must not leave pages of two versions
// chained together — no Load can decode that, and the database would never
// open again.
func TestTornCatalogChain(t *testing.T) {
	dir := t.TempDir()
	inj := &crashOnCatalogWrite{nth: 2}
	db, err := core.Open(core.Options{Dir: dir, Injector: inj})
	if err != nil {
		t.Fatal(err)
	}
	c, err := db.Connect()
	if err != nil {
		t.Fatal(err)
	}
	// Wide tables: the column names are what fills catalog pages.
	const tables = 30
	var cols []string
	for i := 0; i < 12; i++ {
		cols = append(cols, fmt.Sprintf("a_column_with_quite_a_long_name_%02d INT", i))
	}
	for i := 0; i < tables; i++ {
		if _, err := c.Exec(fmt.Sprintf("CREATE TABLE side_%02d (%s)", i, strings.Join(cols, ", "))); err != nil {
			t.Fatal(err)
		}
	}
	inj.mu.Lock()
	inj.seen = 0
	inj.mu.Unlock()
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	inj.mu.Lock()
	if inj.seen < 3 {
		t.Fatalf("a checkpoint wrote %d catalog pages: the chain is too short for the test", inj.seen)
	}
	inj.seen, inj.armed = 0, true
	inj.mu.Unlock()
	// The statement that rewrites the chain dies in its checkpoint.
	if _, err := c.Exec("CREATE TABLE one_more (a INT)"); err == nil {
		_ = db.Checkpoint()
	}
	if !inj.crashed {
		t.Fatal("the injector never fired")
	}
	db.Crash()

	db2, err := core.Open(core.Options{Dir: dir, ParanoidRecovery: true})
	if err != nil {
		t.Fatalf("database does not open after a crash between two catalog page writes: %v", err)
	}
	defer db2.Close()
	for i := 0; i < tables; i++ {
		if _, ok := db2.Table(fmt.Sprintf("side_%02d", i)); !ok {
			t.Fatalf("table side_%02d lost", i)
		}
	}
	// The unacknowledged CREATE TABLE may have made it or not; either way
	// the database works.
	c2, err := db2.Connect()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := db2.Table("one_more"); !ok {
		if _, err := c2.Exec("CREATE TABLE one_more (a INT)"); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c2.Exec("INSERT INTO one_more VALUES (1)"); err != nil {
		t.Fatal(err)
	}
}
