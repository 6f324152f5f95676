// Package catalog persists the database's metadata — tables, columns,
// indexes, statistics, options, and the DTT cost model (§4.2 stores the
// DTT model in the catalog so it can be altered or deployed with DDL) — in
// a chain of catalog pages inside the main database file.
package catalog

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"sync"

	"anywheredb/internal/buffer"
	"anywheredb/internal/page"
	"anywheredb/internal/store"
	"anywheredb/internal/val"
)

// ColumnMeta describes one column.
type ColumnMeta struct {
	Name string
	Kind val.Kind
}

// IndexMeta describes one index.
type IndexMeta struct {
	ID     uint64
	Name   string
	Cols   []int
	Unique bool
	Root   store.PageID
}

// Storage formats for a table's scan-acceleration layout. The row heap is
// always present and always authoritative; StorageColumnar additionally
// maintains sealed column segments (see internal/colseg).
const (
	StorageRow      = ""         // default: heap only
	StorageColumnar = "columnar" // heap + sealed column segments
)

// TableMeta describes one table, including its persisted statistics.
type TableMeta struct {
	ID      uint64
	Name    string
	Columns []ColumnMeta
	First   store.PageID
	Indexes []IndexMeta
	// Hists holds each column's encoded histogram (may be nil).
	Hists [][]byte
	// Storage is the table's layout (StorageRow or StorageColumnar).
	Storage string
	// SegHead is the first page of the serialized segment blob chain when
	// Storage is columnar; 0 means segments exist only in memory.
	SegHead store.PageID
	// SegDeltaStart is the first heap page NOT covered by the sealed
	// segments — the head of the delta tail scanned alongside them.
	SegDeltaStart store.PageID
}

// state is the serialized catalog image.
type state struct {
	NextID uint64
	Tables map[string]*TableMeta
	DTT    []byte
}

// Catalog is the in-memory catalog, persisted on demand.
type Catalog struct {
	pool *buffer.Pool
	st   *store.Store

	mu    sync.Mutex
	s     state
	chain []store.PageID // the pages holding the saved image, root first
}

// Create allocates a fresh catalog in the main file and saves it. Call
// before any other allocation so the catalog root lands on page 1, where
// Load expects it.
func Create(pool *buffer.Pool, st *store.Store) (*Catalog, error) {
	f, err := pool.NewPage(store.MainFile, page.TypeCatalog)
	if err != nil {
		return nil, err
	}
	c := &Catalog{pool: pool, st: st, chain: []store.PageID{f.ID}}
	pool.Unpin(f, true)
	c.s = state{NextID: 1, Tables: map[string]*TableMeta{}}
	return c, c.Save(nil)
}

// RootPage is where Create places the catalog in the main file.
var RootPage = store.MakePageID(store.MainFile, 1)

// Load reads the catalog from its root page chain.
func Load(pool *buffer.Pool, st *store.Store) (*Catalog, error) {
	c := &Catalog{pool: pool, st: st}
	var blob []byte
	for cur := RootPage; cur != 0; {
		f, err := pool.Get(cur)
		if err != nil {
			return nil, err
		}
		f.RLock()
		if f.Data.Type() != page.TypeCatalog {
			f.RUnlock()
			pool.Unpin(f, false)
			return nil, fmt.Errorf("catalog: page %v is %v, not catalog", cur, f.Data.Type())
		}
		if cell := f.Data.Cell(0); cell != nil {
			blob = append(blob, cell...)
		}
		c.chain = append(c.chain, cur)
		cur = store.PageID(f.Data.Next())
		f.RUnlock()
		pool.Unpin(f, false)
	}
	if err := gob.NewDecoder(bytes.NewReader(blob)).Decode(&c.s); err != nil {
		return nil, fmt.Errorf("catalog: decode: %w", err)
	}
	if c.s.Tables == nil {
		c.s.Tables = map[string]*TableMeta{}
	}
	return c, nil
}

// Save serializes the catalog into its page chain, extending it as needed.
// Pages reach the file one at a time, and a crash between two of those
// writes would chain pages of two catalog versions together, which no Load
// can decode. So before it changes the first page of a multi-page chain,
// Save hands the new images to logChain (nil: the caller does not need
// this). The engine logs them as one set, and recovery — which restores
// logged images before the catalog is read — yields the new chain whole or
// leaves the old alone.
func (c *Catalog) Save(logChain func(ids []store.PageID, images []page.Buf) error) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&c.s); err != nil {
		return fmt.Errorf("catalog: encode: %w", err)
	}
	blob := buf.Bytes()
	const chunk = page.Size - page.HeaderSize - 64

	// Split the blob into page images, reusing chain pages and allocating
	// more if needed.
	nChunks := max((len(blob)+chunk-1)/chunk, 1)
	ids := c.chain
	for len(ids) < nChunks {
		f, err := c.pool.NewPage(store.MainFile, page.TypeCatalog)
		if err != nil {
			return err
		}
		ids = append(ids, f.ID)
		c.pool.Unpin(f, true)
	}
	images := make([]page.Buf, nChunks)
	for i := range images {
		img := page.Buf(make([]byte, page.Size))
		img.Init(page.TypeCatalog)
		if i+1 < nChunks {
			img.SetNext(uint64(ids[i+1]))
		}
		img.Insert(blob[i*chunk : min((i+1)*chunk, len(blob))])
		images[i] = img
	}
	// A chain of one page changes in one page write.
	if len(ids) > 1 && logChain != nil {
		if err := logChain(ids[:nChunks], images); err != nil {
			return err
		}
	}
	for i, img := range images {
		f, err := c.pool.Get(ids[i])
		if err != nil {
			return err
		}
		f.Lock()
		copy(f.Data, img)
		f.MarkDirty()
		f.Unlock()
		c.pool.Unpin(f, true)
	}
	// Surplus pages return to the free chain.
	c.chain = ids[:nChunks:nChunks]
	for _, id := range ids[nChunks:] {
		c.pool.Discard(id)
	}
	return c.st.Free(ids[nChunks:]...)
}

// NextID hands out a fresh object id.
func (c *Catalog) NextID() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	id := c.s.NextID
	c.s.NextID++
	return id
}

// SetTables replaces the set of tables: the checkpoint derives every entry
// from the live table it describes, so a table that is gone is simply not
// in tms.
func (c *Catalog) SetTables(tms []*TableMeta) {
	tables := make(map[string]*TableMeta, len(tms))
	for _, tm := range tms {
		tables[tm.Name] = tm
	}
	c.mu.Lock()
	c.s.Tables = tables
	c.mu.Unlock()
}

// GetTable looks a table up by name. The result is the caller's own copy.
func (c *Catalog) GetTable(name string) (*TableMeta, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	tm, ok := c.s.Tables[name]
	if !ok {
		return nil, false
	}
	cp := *tm
	return &cp, true
}

// TableNames lists tables (unordered).
func (c *Catalog) TableNames() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]string, 0, len(c.s.Tables))
	for n := range c.s.Tables {
		out = append(out, n)
	}
	return out
}

// SetDTT stores the encoded DTT model (CALIBRATE DATABASE persists its
// result here).
func (c *Catalog) SetDTT(encoded []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.s.DTT = append([]byte(nil), encoded...)
}

// DTT returns the stored DTT model encoding, nil if none.
func (c *Catalog) DTT() []byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.s.DTT == nil {
		return nil
	}
	return append([]byte(nil), c.s.DTT...)
}
