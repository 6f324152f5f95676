package main

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"time"

	"anywheredb/internal/core"
	"anywheredb/internal/val"
)

// spec is one workload: a table, its size relative to the pinned buffer
// pool, and the operation a single closed-loop connection repeats. Every
// table has the columns (id INT, grp INT, v INT, pad VARCHAR(72)) with
// id = 0…rows−1, grp = id % 16, v = id % 1000 and a 64-byte pad, so every
// answer can be computed without reading the database.
type spec struct {
	name  string
	why   string
	table string
	rows  int
	// pool is the buffer pool in pages, pinned (min = init = max) so the
	// cache governor cannot resize it in one run and not in the next.
	pool     int
	index    bool // UNIQUE INDEX on id
	columnar bool // ALTER TABLE … STORE COLUMNAR after the load
	// mustFit: the measured slices may take no buffer miss at all;
	// mustNotFit: they must take more than one per op.
	mustFit, mustNotFit bool
	// op runs one operation over r's statement path and verifies its
	// answer; a non-nil error counts the op as failed.
	op func(r *run) error
	// sample returns the statements of one representative op, for EXPLAIN
	// and for the codec and parser probes. It must not advance the model.
	sample func(r *run) []call
	// durable, set where the op commits writes, checks after a crash and
	// recovery that everything the server acknowledged is in the database.
	durable func(r *run, c *core.Conn) error
}

// call is one statement as the workload issues it: prepared statements are
// prepared once per connection and run by handle, the rest travel as text.
type call struct {
	sql      string
	prepared bool
	params   []val.Value
}

const (
	groups   = 16
	vDomain  = 1000
	padBytes = 64
	// loadBatch is the rows per multi-row INSERT during set-up.
	loadBatch = 500
)

// specs returns the four workloads. scale shrinks row counts and the cold
// workload's pool together (tests run at a fraction of the real size); the
// benchmark itself always runs at scale 1.
func specs(scale float64) []*spec {
	n := func(rows int) int { return max(int(float64(rows)*scale), 200) }
	return []*spec{
		{
			name: "point_hot", table: "kv", rows: n(20000), pool: 4096, index: true, mustFit: true,
			why: "prepared one-row lookup on a table that fits the cache: wire, core glue, opt and btree should be the whole cost",
			op:  opPointHot, sample: samplePointHot,
		},
		{
			name: "insert_commit", table: "ev", rows: n(20000), pool: 4096, index: true, durable: durableInsertCommit,
			why: "prepared one-row autocommit INSERT: the price of a durable commit, wal flush and table/btree insert do the work",
			op:  opInsertCommit, sample: sampleInsertCommit,
		},
		{
			name: "rmw_cold", table: "acct", rows: n(30000), pool: max(int(128*scale), 16), index: true, mustNotFit: true, durable: durableRMWCold,
			why: "unprepared BEGIN/SELECT/UPDATE/COMMIT on a table ~7x the cache: buffer misses and write-backs, lock, four parses per op",
			op:  opRMWCold, sample: sampleRMWCold,
		},
		{
			name: "scan_agg", table: "fact", rows: n(50000), pool: 4096, index: true, columnar: true,
			why: "prepared filtered GROUP BY over columnar segments: colseg decode and exec do the work, wal/lock/btree none",
			op:  opScanAgg, sample: sampleScanAgg,
		},
	}
}

func specByName(all []*spec, name string) *spec {
	for _, s := range all {
		if s.name == name {
			return s
		}
	}
	return nil
}

// padFor is the row's pad column: a rotation of a seed-drawn 64-letter
// string, so pads differ between rows and between seeds but stay a small
// dictionary for the columnar codec.
func padFor(base string, id int64) string {
	k := int(id % padBytes)
	return base[k:] + base[:k]
}

func newPadBase(rng *rand.Rand) string {
	b := make([]byte, padBytes)
	for i := range b {
		b[i] = byte('a' + rng.Intn(26))
	}
	return string(b)
}

// buildDB creates, loads, indexes (and seals) the workload's database in
// dir and checkpoints it. This is what setup_s times. opened is the moment
// core.Open returned: within microseconds of the time origin the database's
// flight recorder stamps its spans against.
func buildDB(dir string, s *spec, padBase string) (_ *core.DB, opened time.Time, err error) {
	db, err := core.Open(core.Options{
		Dir:          dir,
		PoolMinPages: s.pool, PoolInitPages: s.pool, PoolMaxPages: s.pool,
	})
	if err != nil {
		return nil, opened, err
	}
	opened = time.Now()
	defer func() {
		if err != nil {
			db.Crash()
		}
	}()
	c, err := db.Connect()
	if err != nil {
		return nil, opened, err
	}
	stmts := []string{
		fmt.Sprintf("CREATE TABLE %s (id INT, grp INT, v INT, pad VARCHAR(72))", s.table),
		"BEGIN",
	}
	for lo := 0; lo < s.rows; lo += loadBatch {
		var sb strings.Builder
		fmt.Fprintf(&sb, "INSERT INTO %s VALUES ", s.table)
		for id := lo; id < min(lo+loadBatch, s.rows); id++ {
			if id > lo {
				sb.WriteByte(',')
			}
			fmt.Fprintf(&sb, "(%d,%d,%d,'%s')", id, id%groups, id%vDomain, padFor(padBase, int64(id)))
		}
		stmts = append(stmts, sb.String())
	}
	stmts = append(stmts, "COMMIT")
	if s.index {
		stmts = append(stmts, fmt.Sprintf("CREATE UNIQUE INDEX %s_id ON %s (id)", s.table, s.table))
	}
	if s.columnar {
		stmts = append(stmts, fmt.Sprintf("ALTER TABLE %s STORE COLUMNAR", s.table))
	}
	for _, q := range stmts {
		if _, err := c.Exec(q); err != nil {
			return nil, opened, fmt.Errorf("set-up %.40q: %w", q, err)
		}
	}
	if err := c.Close(); err != nil {
		return nil, opened, err
	}
	if err := db.Checkpoint(); err != nil {
		return nil, opened, err
	}
	return db, opened, nil
}

// --- point_hot ---------------------------------------------------------------

const pointSQL = "SELECT v FROM kv WHERE id = ?"

func opPointHot(r *run) error {
	k := r.rng.Int63n(int64(r.spec.rows))
	rows, err := r.query(call{pointSQL, true, []val.Value{val.NewInt(k)}})
	if err != nil {
		return err
	}
	if len(rows) != 1 || len(rows[0]) != 1 || rows[0][0].AsInt() != k%vDomain {
		return fmt.Errorf("point_hot: id %d returned %v, want [[%d]]", k, rows, k%vDomain)
	}
	return nil
}

func samplePointHot(r *run) []call {
	return []call{{pointSQL, true, []val.Value{val.NewInt(int64(r.spec.rows / 2))}}}
}

// --- insert_commit -----------------------------------------------------------

const insertSQL = "INSERT INTO ev VALUES (?, ?, ?, ?)"

func insertParams(r *run, id int64) []val.Value {
	return []val.Value{val.NewInt(id), val.NewInt(id % groups), val.NewInt(id % vDomain), val.NewStr(padFor(r.padBase, id))}
}

func opInsertCommit(r *run) error {
	id := r.nextID
	r.nextID++
	n, err := r.exec(call{insertSQL, true, insertParams(r, id)})
	if err != nil {
		return err
	}
	if n != 1 {
		return fmt.Errorf("insert_commit: id %d affected %d rows, want 1", id, n)
	}
	r.ackedIDs = append(r.ackedIDs, id)
	return nil
}

func sampleInsertCommit(r *run) []call {
	return []call{{insertSQL, true, insertParams(r, r.nextID)}}
}

// durableInsertCommit requires every acknowledged insert id present.
func durableInsertCommit(r *run, c *core.Conn) error {
	rows, err := c.Query(fmt.Sprintf("SELECT id FROM ev WHERE id >= %d", r.spec.rows))
	if err != nil {
		return err
	}
	present := make(map[int64]bool, rows.Count())
	for rows.Next() {
		present[rows.Row()[0].AsInt()] = true
	}
	for _, id := range r.ackedIDs {
		if !present[id] {
			return fmt.Errorf("insert_commit: acknowledged id %d lost by crash recovery (%d acknowledged, %d present)",
				id, len(r.ackedIDs), len(present))
		}
	}
	return nil
}

// --- rmw_cold ----------------------------------------------------------------

func rmwCalls(k int64, v int32) []call {
	return []call{
		{sql: "BEGIN"},
		{sql: fmt.Sprintf("SELECT v FROM acct WHERE id = %d", k)},
		{sql: fmt.Sprintf("UPDATE acct SET v = %d WHERE id = %d", v+1, k)},
		{sql: "COMMIT"},
	}
}

func opRMWCold(r *run) error {
	k := r.rng.Int63n(int64(r.spec.rows))
	want := r.vals[k]
	cs := rmwCalls(k, want)
	if _, err := r.exec(cs[0]); err != nil {
		return err
	}
	abort := func(err error) error {
		_, _ = r.exec(call{sql: "ROLLBACK"}) // best effort: the op already failed
		return err
	}
	rows, err := r.query(cs[1])
	if err != nil {
		return abort(err)
	}
	if len(rows) != 1 || len(rows[0]) != 1 || rows[0][0].AsInt() != int64(want) {
		return abort(fmt.Errorf("rmw_cold: id %d read %v, want [[%d]]", k, rows, want))
	}
	n, err := r.exec(cs[2])
	if err != nil {
		return abort(err)
	}
	if n != 1 {
		return abort(fmt.Errorf("rmw_cold: update of id %d affected %d rows, want 1", k, n))
	}
	if _, err := r.exec(cs[3]); err != nil {
		// The commit may or may not have become durable.
		r.ambiguous++
		return err
	}
	r.vals[k]++
	r.ackedTxns++
	return nil
}

func sampleRMWCold(r *run) []call {
	k := int64(r.spec.rows / 2)
	return rmwCalls(k, r.vals[k])
}

// durableRMWCold requires SUM(v) to equal the initial sum plus the
// acknowledged transactions. A COMMIT that returned an error may or may not
// have landed, so each widens the accepted sum by one.
func durableRMWCold(r *run, c *core.Conn) error {
	rows, err := c.Query("SELECT SUM(v), COUNT(*) FROM acct")
	if err != nil {
		return err
	}
	if !rows.Next() {
		return errors.New("rmw_cold: SUM(v) returned no row")
	}
	var initial int64
	for id := 0; id < r.spec.rows; id++ {
		initial += int64(id % vDomain)
	}
	got, n := rows.Row()[0].AsInt(), rows.Row()[1].AsInt()
	lo := initial + r.ackedTxns
	if n != int64(r.spec.rows) || got < lo || got > lo+r.ambiguous {
		return fmt.Errorf("rmw_cold: after crash recovery SUM(v) = %d over %d rows, want %d (+%d ambiguous) over %d rows",
			got, n, lo, r.ambiguous, r.spec.rows)
	}
	return nil
}

// --- scan_agg ----------------------------------------------------------------

const aggSQL = "SELECT grp, COUNT(*), SUM(v) FROM fact WHERE v < ? GROUP BY grp"

// aggModel answers aggSQL arithmetically: cnt[g][b] and sum[g][b] are the
// COUNT(*) and SUM(v) of group g under the predicate v < b.
type aggModel struct {
	cnt, sum [groups][vDomain + 1]int64
}

func newAggModel(rows int) *aggModel {
	m := &aggModel{}
	for id := 0; id < rows; id++ {
		g, v := id%groups, id%vDomain
		m.cnt[g][v+1]++
		m.sum[g][v+1] += int64(v)
	}
	for g := 0; g < groups; g++ {
		for b := 1; b <= vDomain; b++ {
			m.cnt[g][b] += m.cnt[g][b-1]
			m.sum[g][b] += m.sum[g][b-1]
		}
	}
	return m
}

func opScanAgg(r *run) error {
	b := 500 + r.rng.Intn(100)
	rows, err := r.query(call{aggSQL, true, []val.Value{val.NewInt(int64(b))}})
	if err != nil {
		return err
	}
	want := 0
	for g := 0; g < groups; g++ {
		if r.agg.cnt[g][b] > 0 {
			want++
		}
	}
	if len(rows) != want {
		return fmt.Errorf("scan_agg: v < %d returned %d groups, want %d", b, len(rows), want)
	}
	seen := [groups]bool{}
	for _, row := range rows {
		if len(row) != 3 {
			return fmt.Errorf("scan_agg: row %v has %d columns, want 3", row, len(row))
		}
		g := row[0].AsInt()
		if g < 0 || g >= groups || seen[g] {
			return fmt.Errorf("scan_agg: unexpected or repeated group %d", g)
		}
		seen[g] = true
		if row[1].AsInt() != r.agg.cnt[g][b] || row[2].AsInt() != r.agg.sum[g][b] {
			return fmt.Errorf("scan_agg: v < %d group %d = (%d, %d), want (%d, %d)",
				b, g, row[1].AsInt(), row[2].AsInt(), r.agg.cnt[g][b], r.agg.sum[g][b])
		}
	}
	return nil
}

func sampleScanAgg(*run) []call {
	return []call{{aggSQL, true, []val.Value{val.NewInt(550)}}}
}
