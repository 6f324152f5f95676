package exec

import (
	"bytes"
	"sort"

	"anywheredb/internal/btree"
	"anywheredb/internal/table"
	"anywheredb/internal/val"
)

// keyRange is an interval of encoded index keys: from lo (nil = the first
// key) up to hi (nil = the last). With hiInc, hi bounds as a prefix: every
// key that begins with hi is inside, so lo = hi = k with hiInc is "the keys
// with prefix k". of is the caller's name for the range, stamped on every
// row found in it.
type keyRange struct {
	lo, hi []byte
	hiInc  bool
	of     int
}

// endsBefore reports whether key lies past the range's upper bound.
func (r keyRange) endsBefore(key []byte) bool {
	if r.hi == nil {
		return false
	}
	if r.hiInc {
		return bytes.Compare(key, r.hi) > 0 && !bytes.HasPrefix(key, r.hi)
	}
	return bytes.Compare(key, r.hi) >= 0
}

func (r keyRange) contains(key []byte) bool {
	return (r.lo == nil || bytes.Compare(key, r.lo) >= 0) && !r.endsBefore(key)
}

// indexHit is one row an index probe found: the range it answers, where it
// lives, and the version of it the statement sees.
type indexHit struct {
	of  int
	rid table.RID
	row Row
}

// probe is the scratch of the executor's one read path through an index,
// kept by the operator that probes from call to call: the rows found, the
// values of the rows the walks read, back to back, a key buffer and the
// tree iterator. A row of a hit is valid until the next run or release.
type probe struct {
	hits []indexHit
	vals []val.Value
	key  []byte
	it   btree.Iterator
}

// release empties the probe for its operator's next execution, keeping the
// capacity of one batch.
func (p *probe) release() {
	p.hits = retain(p.hits, DefaultBatchSize)
	p.vals = retain(p.vals, DefaultBatchSize)
}

// run sets p.hits to the rows of t whose ix keys fall in each of ranges, as
// ctx's statement sees them, ordered by range and then by key.
//
// The index is a guide, not the truth. It tracks the newest row versions,
// so each entry only names a place to look: the row there is fetched as the
// statement sees it (through its version chain under a snapshot; a row that
// has vanished or is invisible is skipped), and its key is recomputed from
// that version and re-checked against the range. Rows the index no longer
// points at — deleted, moved or re-keyed by writers the snapshot does not
// see — still have version chains, so after every range has been walked
// the chained rows are fetched too. That order matters: a writer chains a
// row before it touches the index, and vacuum keeps every chain a live
// snapshot needs, so a row missing from a walk is in the store by the time
// the store is read.
//
// With ridsOnly, the probe of an UPDATE's or DELETE's targets, each hit is
// the RID an entry names and nothing more: no row is fetched, no key
// recomputed. Its claim (table.UpdateChecked, DeleteChecked) reads the row,
// and that first read stands in for this one: a row it finds absent or
// failing the WHERE is no target. A DML target scan runs with no snapshot
// (the newest rows are its targets), so chainedHits adds nothing to it.
// A DML target found by a heap scan is read there, under a Filter, one
// page pin for many rows; the claim's read is then its second.
func (p *probe) run(ctx *Ctx, t *table.Table, ix *table.Index, ranges []keyRange, ridsOnly bool) (err error) {
	p.hits, p.vals = p.hits[:0], p.vals[:0]
	n := 0
	it := &p.it
	for _, r := range ranges {
		if err = ix.Tree.Seek(it, r.lo); err != nil {
			return err
		}
		for ; it.Valid() && !r.endsBefore(it.Key()); it.Next() {
			if n++; n%interruptEvery == 0 {
				if err = ctx.Interrupted(); err != nil {
					break
				}
			}
			rid := table.RIDFromBytes(it.Value())
			if ridsOnly {
				p.hits = append(p.hits, indexHit{of: r.of, rid: rid})
				continue
			}
			// A row is read into the end of p.vals. A read that outgrows it
			// moves it, and leaves the rows read before where they are.
			start := len(p.vals)
			var ok bool
			if p.vals, ok, err = t.FetchAppend(p.vals, rid, ctx.Snap); err != nil {
				break
			}
			if !ok {
				continue
			}
			row := p.vals[start:len(p.vals):len(p.vals)]
			if p.key = ix.AppendKey(p.key[:0], row); r.contains(p.key) {
				p.hits = append(p.hits, indexHit{r.of, rid, row})
			} else {
				p.vals = p.vals[:start]
			}
		}
		if err == nil {
			err = it.Err() // a sibling leaf that could not be read ends the walk early
		}
		it.Close()
		if err != nil {
			return err
		}
	}
	p.hits, err = chainedHits(ctx, t, ix, ranges, p.hits, n)
	return err
}

// chainedHits adds to hits the chained rows of t that a snapshot sees in
// ranges and the index walks did not find (see probe.run), and sorts the
// lot; n is the rows fetched so far, for the interruption poll.
func chainedHits(ctx *Ctx, t *table.Table, ix *table.Index, ranges []keyRange, hits []indexHit, n int) ([]indexHit, error) {
	if ctx.Snap == nil || t.VersionsEmpty() {
		return hits, nil
	}

	type found struct {
		of  int
		rid table.RID
	}
	seen := make(map[found]bool, len(hits))
	for _, h := range hits {
		seen[found{h.of, h.rid}] = true
	}
	for _, rid := range t.VersionRIDs() {
		if n++; n%interruptEvery == 0 {
			if err := ctx.Interrupted(); err != nil {
				return hits, err
			}
		}
		row, ok, err := t.Fetch(rid, ctx.Snap)
		if err != nil {
			return hits, err
		}
		if !ok {
			continue
		}
		key := ix.Key(row)
		for _, r := range ranges {
			if r.contains(key) && !seen[found{r.of, rid}] {
				hits = append(hits, indexHit{r.of, rid, row})
			}
		}
	}
	// A chained row's visible key need not be the key the index filed it
	// under, so the walks' order is not key order either: sort everything.
	keys := make([][]byte, len(hits))
	for i, h := range hits {
		keys[i] = ix.Key(h.row)
	}
	sort.Stable(hitsByKey{hits, keys})
	return hits, nil
}

// hitsByKey orders hits by range, then by recomputed index key.
type hitsByKey struct {
	hits []indexHit
	keys [][]byte
}

func (s hitsByKey) Len() int { return len(s.hits) }
func (s hitsByKey) Less(i, j int) bool {
	if s.hits[i].of != s.hits[j].of {
		return s.hits[i].of < s.hits[j].of
	}
	return bytes.Compare(s.keys[i], s.keys[j]) < 0
}
func (s hitsByKey) Swap(i, j int) {
	s.hits[i], s.hits[j] = s.hits[j], s.hits[i]
	s.keys[i], s.keys[j] = s.keys[j], s.keys[i]
}
