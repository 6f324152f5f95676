package catalog

import (
	"fmt"
	"testing"

	"anywheredb/internal/buffer"
	"anywheredb/internal/dtt"
	"anywheredb/internal/store"
	"anywheredb/internal/val"
)

func setup(t *testing.T, dir string) (*Catalog, *buffer.Pool, *store.Store) {
	t.Helper()
	st, err := store.Open(store.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	pool := buffer.New(st, 8, 128, 256)
	c, err := Create(pool, st)
	if err != nil {
		t.Fatal(err)
	}
	return c, pool, st
}

func TestCreateLandsOnRootPage(t *testing.T) {
	c, _, st := setup(t, "")
	defer st.Close()
	if c.chain[0] != RootPage {
		t.Fatalf("catalog root %v, want %v", c.chain[0], RootPage)
	}
}

func TestTableRoundTrip(t *testing.T) {
	dir := t.TempDir()
	c, pool, st := setup(t, dir)
	id := c.NextID()
	c.SetTables([]*TableMeta{{
		ID:   id,
		Name: "orders",
		Columns: []ColumnMeta{
			{Name: "id", Kind: val.KInt},
			{Name: "desc", Kind: val.KStr},
		},
		First: store.MakePageID(store.MainFile, 7),
		Indexes: []IndexMeta{
			{ID: 2, Name: "pk", Cols: []int{0}, Unique: true, Root: store.MakePageID(store.MainFile, 9)},
		},
		Hists: [][]byte{nil, []byte{1, 2, 3}},
	}})
	c.SetOption("blocking_timeout", "5s")
	if err := c.Save(nil); err != nil {
		t.Fatal(err)
	}
	pool.FlushAll()
	st.Close()

	st2, err := store.Open(store.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	pool2 := buffer.New(st2, 8, 128, 256)
	c2, err := Load(pool2, st2)
	if err != nil {
		t.Fatal(err)
	}
	tm, ok := c2.GetTable("orders")
	if !ok {
		t.Fatal("orders missing after reload")
	}
	if tm.ID != id || len(tm.Columns) != 2 || tm.Columns[1].Kind != val.KStr {
		t.Fatalf("table meta: %+v", tm)
	}
	if len(tm.Indexes) != 1 || !tm.Indexes[0].Unique {
		t.Fatalf("index meta: %+v", tm.Indexes)
	}
	if string(tm.Hists[1]) != "\x01\x02\x03" {
		t.Fatal("histogram blob lost")
	}
	if v, _ := c2.Option("blocking_timeout"); v != "5s" {
		t.Fatalf("option lost: %q", v)
	}
	if c2.NextID() <= id {
		t.Fatal("NextID went backwards after reload")
	}
}

func TestLargeCatalogSpansPages(t *testing.T) {
	dir := t.TempDir()
	c, pool, st := setup(t, dir)
	// Enough tables to exceed one page worth of gob.
	var tms []*TableMeta
	for i := 0; i < 200; i++ {
		cols := make([]ColumnMeta, 10)
		for j := range cols {
			cols[j] = ColumnMeta{Name: fmt.Sprintf("column_%d_%d", i, j), Kind: val.KInt}
		}
		tms = append(tms, &TableMeta{ID: uint64(i + 1), Name: fmt.Sprintf("table_%03d", i), Columns: cols})
	}
	c.SetTables(tms)
	if err := c.Save(nil); err != nil {
		t.Fatal(err)
	}
	pool.FlushAll()
	st.Close()

	st2, _ := store.Open(store.Options{Dir: dir})
	defer st2.Close()
	pool2 := buffer.New(st2, 8, 128, 256)
	c2, err := Load(pool2, st2)
	if err != nil {
		t.Fatal(err)
	}
	if len(c2.TableNames()) != 200 {
		t.Fatalf("tables after reload: %d", len(c2.TableNames()))
	}
	// Shrink: drop most tables, save, reload.
	c2.SetTables(tms[:1])
	if err := c2.Save(nil); err != nil {
		t.Fatal(err)
	}
	pool2.FlushAll()
	st2.Sync()
	c3, err := Load(pool2, st2)
	if err != nil {
		t.Fatal(err)
	}
	if len(c3.TableNames()) != 1 {
		t.Fatalf("tables after shrink: %d", len(c3.TableNames()))
	}
}

func TestDTTPersistence(t *testing.T) {
	c, _, st := setup(t, "")
	defer st.Close()
	if c.DTT() != nil {
		t.Fatal("fresh catalog should have no DTT")
	}
	m := dtt.Default()
	c.SetDTT(m.Encode())
	got, err := dtt.Decode(c.DTT())
	if err != nil {
		t.Fatal(err)
	}
	if got.Cost(dtt.Read, 4096, 100) != m.Cost(dtt.Read, 4096, 100) {
		t.Fatal("DTT round trip")
	}
}

func TestOptions(t *testing.T) {
	c, _, st := setup(t, "")
	defer st.Close()
	if _, ok := c.Option("missing"); ok {
		t.Fatal("missing option found")
	}
	c.SetOption("a", "1")
	c.SetOption("b", "2")
	opts := c.Options()
	if opts["a"] != "1" || opts["b"] != "2" {
		t.Fatalf("options %v", opts)
	}
}
