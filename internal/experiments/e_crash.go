package experiments

import (
	"fmt"
	"math/rand"
	"os"
	"sort"
	"strings"

	"anywheredb/internal/core"
	"anywheredb/internal/faultinject"
	"anywheredb/internal/val"
)

// Crash-recovery torture (E19). A seeded DML workload runs against a real
// on-disk database while a deterministic fault schedule injects transient
// I/O errors and crashes the "machine" at scheduled operations and named
// crashpoints (mid-eviction, mid-WAL-flush, either side of the commit
// flush, before checkpoint truncation, mid-columnar-segment-build, and
// mid-recovery). Cycles also flip the table between row and columnar
// storage, so recovery is exercised with sealed segments, invalidated
// segments, and builds interrupted before their checkpoint; and half the
// cycles pin an MVCC snapshot across the writes, so crashes land with
// version chains live and the pinned view is re-verified after every
// commit. Between a cycle's transactions seeded schema changes run — CREATE
// TABLE and a first row, CREATE [UNIQUE] INDEX, DROP TABLE, CREATE
// STATISTICS — each ending in its own checkpoint, inside which the
// schedule's crashes land like anywhere else; the tables' long names make
// the catalog one to four pages long, so those checkpoints rewrite, grow
// and shrink a chain; and in some cycles a second connection holds a
// transaction open across the storage flip and every checkpoint of the
// cycle. After every cycle the database is reopened cleanly and the
// recovered contents are compared against a model kept in plain memory:
//
//   - durability: every acknowledged commit is present;
//   - atomicity: no uncommitted transaction is visible, in full or part;
//   - idempotency: replaying the same log again must not change the
//     database (enforced by ParanoidRecovery on every recovery);
//   - schema: every acknowledged schema change is present, an
//     unacknowledged one is wholly present or wholly absent, and the
//     database always opens.
//
// A commit whose COMMIT statement returned an error during a crash is
// indeterminate — the classic ambiguity — and the verifier accepts either
// fate, but nothing in between. The same goes for a schema change whose
// statement returned an error.

// CrashTortureConfig parameterizes one torture run.
type CrashTortureConfig struct {
	// Cycles is the number of crash/recover cycles (default 50).
	Cycles int
	// Seed drives the workload and every fault schedule.
	Seed int64
	// Dir is the database directory (required: crashes need real files).
	Dir string
	// OpsPerCycle is the number of transactions attempted per cycle
	// (default 8); each transaction runs one to three DML statements.
	OpsPerCycle int
	// RecoveryCrashEvery makes every Nth crashed cycle also crash during
	// the subsequent recovery, after its replay, before re-recovering
	// cleanly (default 5); the other crashed cycles crash inside that
	// recovery's rollback of a transaction without a commit record, if it
	// has one with more than one change.
	RecoveryCrashEvery int
	// PoolPages, when > 0, pins every database the harness opens to a
	// buffer pool of that many pages and grows the kv table to 200 rows per
	// pool page before torture begins, so the workload steals dirty pages:
	// deferred write-backs, frames imaged and changed again, and the sweep's
	// own syncs interleave with the crashes. 0 leaves the engine's default
	// pool and the 16-row table, which never evicts a dirty page.
	PoolPages int
}

// CrashTortureResult summarizes a run.
type CrashTortureResult struct {
	Cycles          int // cycles completed
	Crashes         int // scheduled crashes that fired
	RecoveryCrashes int // crashes injected mid-recovery, once the log tail is replayed
	UndoCrashes     int // crashes injected mid-recovery, inside the rollback of a loser
	Commits         int // transactions acknowledged committed
	Rollbacks       int // transactions rolled back after a statement error
	Indeterminate   int // commits with unknown fate (crash during COMMIT)
	SnapshotChecks  int // repeatable-read verifications through a pinned snapshot
	SchemaChanges   int // schema changes acknowledged
	SchemaIndet     int // schema changes with unknown fate (statement failed)

	// Engine fault counters accumulated across all cycles.
	Injected, Retried, GaveUp uint64
	// Buffer-pool write-back counters accumulated across all cycles: pages
	// written in place, page images logged ahead of them, and log syncs the
	// pool forced itself (the rest of the write-backs rode other flushes).
	Writebacks, ImagesLogged, WritebackSyncs uint64
}

// kvOp is one model-visible mutation.
type kvOp struct {
	kind byte // 'i' insert, 'u' update, 'd' delete
	k, v int64
}

func applyOps(m map[int64]int64, ops []kvOp) map[int64]int64 {
	out := make(map[int64]int64, len(m)+len(ops))
	for k, v := range m {
		out[k] = v
	}
	for _, op := range ops {
		switch op.kind {
		case 'i', 'u':
			out[op.k] = op.v
		case 'd':
			delete(out, op.k)
		}
	}
	return out
}

func kvKeys(m map[int64]int64) []int64 {
	out := make([]int64, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func kvEqual(a, b map[int64]int64) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if bv, ok := b[k]; !ok || bv != v {
			return false
		}
	}
	return true
}

// sideTable models one table (k INT, v INT) a torture cycle created.
type sideTable struct {
	rows   map[int64]int64
	maybe  *kvOp  // a first row whose INSERT failed: either fate
	index  string // name of its index, "" for none
	unique bool
}

// schemaOp is a schema change whose statement failed: it may have happened.
type schemaOp struct {
	kind   string // "create", "drop", "index"
	table  string
	unique bool
}

// sideName names the nth side table. The name is long on purpose: it is
// what the catalog stores per table, so four side tables make the catalog
// chain three pages long, and creating and dropping them grows and shrinks
// it. Messages quote the first nine bytes.
func sideName(n int) string {
	return fmt.Sprintf("side_%04d_%s", n, strings.Repeat("wide_", 160))
}

func sortedNames(m map[string]*sideTable) []string {
	out := make([]string, 0, len(m))
	for n := range m {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// CrashTorture runs the harness and verifies the recovery invariants after
// every cycle. It returns an error on the first invariant violation.
func CrashTorture(cfg CrashTortureConfig) (*CrashTortureResult, error) {
	if cfg.Dir == "" {
		return nil, fmt.Errorf("experiments: CrashTorture needs a directory")
	}
	if cfg.Cycles <= 0 {
		cfg.Cycles = 50
	}
	if cfg.OpsPerCycle <= 0 {
		cfg.OpsPerCycle = 8
	}
	if cfg.RecoveryCrashEvery <= 0 {
		cfg.RecoveryCrashEvery = 5
	}

	res := &CrashTortureResult{}
	master := rand.New(rand.NewSource(cfg.Seed))
	model := map[int64]int64{}
	nextKey := int64(1)
	// The schema model: the side tables that exist, every name ever
	// dropped, whether CREATE STATISTICS kv was ever acknowledged, and the
	// one schema change of the cycle whose fate is unknown.
	side := map[string]*sideTable{}
	dropped := []string{}
	nextSide := 0
	statsAcked := false
	var pending *schemaOp

	// open opens the database under test with the arm's pool.
	open := func(opts core.Options) (*core.DB, error) {
		opts.Dir = cfg.Dir
		if cfg.PoolPages > 0 {
			opts.PoolMinPages, opts.PoolInitPages, opts.PoolMaxPages = cfg.PoolPages, cfg.PoolPages, cfg.PoolPages
		}
		return core.Open(opts)
	}
	seedRows := 16
	if cfg.PoolPages > 0 {
		seedRows = 200 * cfg.PoolPages
	}

	// Seed schema and rows, checkpointed durably before torture begins.
	{
		db, err := open(core.Options{})
		if err != nil {
			return nil, err
		}
		conn, err := db.Connect()
		if err != nil {
			return nil, err
		}
		if _, err := conn.Exec("CREATE TABLE kv (k INT, v INT)"); err != nil {
			return nil, err
		}
		if _, err := conn.Exec("CREATE UNIQUE INDEX kv_k ON kv (k)"); err != nil {
			return nil, err
		}
		if _, err := conn.Exec("BEGIN"); err != nil {
			return nil, err
		}
		for i := 0; i < seedRows; i++ {
			v := master.Int63n(1_000_000)
			if _, err := conn.Exec("INSERT INTO kv VALUES (?, ?)", val.NewInt(nextKey), val.NewInt(v)); err != nil {
				return nil, err
			}
			model[nextKey] = v
			nextKey++
		}
		if _, err := conn.Exec("COMMIT"); err != nil {
			return nil, err
		}
		conn.Close()
		if err := db.Close(); err != nil {
			return nil, err
		}
	}

	// harvest accumulates a database's fault and write-back counters into
	// the result.
	harvest := func(db *core.DB) {
		for name, sum := range map[string]*uint64{
			"fault.injected": &res.Injected, "fault.retried": &res.Retried, "fault.gaveup": &res.GaveUp,
			"buffer.writebacks": &res.Writebacks, "buffer.images_logged": &res.ImagesLogged,
			"buffer.writeback_syncs": &res.WritebackSyncs,
		} {
			if v, ok := db.Telemetry().Value(name); ok {
				*sum += uint64(v)
			}
		}
	}

	// verifySchema settles the cycle's indeterminate schema change by what
	// the recovered database shows, then checks every table the model knows
	// about: present with exactly its rows and its index, or gone.
	verifySchema := func(db *core.DB, conn *core.Conn) error {
		if op := pending; op != nil {
			pending = nil
			tbl, exists := db.Table(op.table)
			switch {
			case op.kind == "create" && exists:
				side[op.table] = &sideTable{rows: map[int64]int64{}}
			case op.kind == "drop" && !exists:
				delete(side, op.table)
				dropped = append(dropped, op.table)
			case op.kind == "index" && exists && tbl.IndexByName(op.table+"_k") != nil:
				side[op.table].index, side[op.table].unique = op.table+"_k", op.unique
			}
		}
		for _, name := range dropped {
			if _, ok := db.Table(name); ok {
				return fmt.Errorf("dropped table %s is back", name[:9])
			}
		}
		for _, name := range sortedNames(side) {
			st := side[name]
			tbl, ok := db.Table(name)
			if !ok {
				return fmt.Errorf("acknowledged table %s lost", name[:9])
			}
			rows, err := conn.Query("SELECT k, v FROM " + name)
			if err != nil {
				return fmt.Errorf("table %s unreadable: %w", name[:9], err)
			}
			got := map[int64]int64{}
			for _, r := range rows.All() {
				got[r[0].I] = r[1].I
			}
			if st.maybe != nil && kvEqual(got, applyOps(st.rows, []kvOp{*st.maybe})) {
				st.rows = got
			}
			st.maybe = nil
			if !kvEqual(got, st.rows) {
				return fmt.Errorf("table %s holds %d rows, want %d", name[:9], len(got), len(st.rows))
			}
			switch ix := tbl.IndexByName(st.index); {
			case st.index == "" && len(tbl.Indexes) != 0:
				return fmt.Errorf("table %s has an index nobody created", name[:9])
			case st.index == "":
			case ix == nil:
				return fmt.Errorf("acknowledged index on %s lost", name[:9])
			case ix.Unique != st.unique || ix.Tree.Stats.Entries.Load() != int64(len(got)):
				return fmt.Errorf("index on %s: unique=%v with %d entries, want unique=%v with %d",
					name[:9], ix.Unique, ix.Tree.Stats.Entries.Load(), st.unique, len(got))
			}
		}
		if kv, _ := db.Table("kv"); statsAcked && len(model) > 0 && kv.Hists[0].Total() <= 0 {
			return fmt.Errorf("acknowledged CREATE STATISTICS kv left no histogram")
		}
		return nil
	}

	// verify reopens cleanly, replays the log (paranoid), and checks the
	// surviving contents against the model — with and without the cycle's
	// indeterminate transaction, if any.
	verify := func(cycle int, indet []kvOp) error {
		db, err := open(core.Options{ParanoidRecovery: true})
		if err != nil {
			return fmt.Errorf("cycle %d: clean recovery failed: %w", cycle, err)
		}
		conn, err := db.Connect()
		if err != nil {
			db.Close()
			return err
		}
		rows, err := conn.Query("SELECT k, v FROM kv")
		if err != nil {
			db.Close()
			return fmt.Errorf("cycle %d: post-recovery read failed: %w", cycle, err)
		}
		got := map[int64]int64{}
		for _, r := range rows.All() {
			got[r[0].I] = r[1].I
		}
		switch {
		case kvEqual(got, model):
			// Indeterminate commit (if any) did not survive: a loser.
		case indet != nil && kvEqual(got, applyOps(model, indet)):
			// Indeterminate commit proved durable: adopt it.
			model = applyOps(model, indet)
		default:
			db.Close()
			return fmt.Errorf("cycle %d: recovery invariant violation: %d rows recovered, want %d (indeterminate txn: %v)",
				cycle, len(got), len(model), indet != nil)
		}
		if err := verifySchema(db, conn); err != nil {
			db.Close()
			return fmt.Errorf("cycle %d: schema invariant violation: %w", cycle, err)
		}
		conn.Close()
		return db.Close()
	}

	for cycle := 0; cycle < cfg.Cycles; cycle++ {
		// Deterministic per-cycle fault schedule: low-probability transient
		// faults everywhere, plus one scheduled crash in most cycles.
		fcfg := faultinject.Config{
			Seed: master.Int63(),
			TransientProb: map[faultinject.Op]float64{
				faultinject.OpRead:     0.005,
				faultinject.OpWrite:    0.005,
				faultinject.OpWALFlush: 0.01,
			},
		}
		switch master.Intn(7) {
		case 0:
			fcfg.CrashOps = map[faultinject.Op]int{faultinject.OpWrite: 1 + master.Intn(30)}
		case 1:
			fcfg.CrashOps = map[faultinject.Op]int{faultinject.OpWALFlush: 1 + master.Intn(12)}
		case 2:
			fcfg.Crashpoints = map[string]int{"commit.before_flush": 1 + master.Intn(6)}
		case 3:
			fcfg.Crashpoints = map[string]int{"commit.after_flush": 1 + master.Intn(6)}
		case 4:
			fcfg.Crashpoints = map[string]int{"checkpoint.before_truncate": 1}
		case 5:
			// Crash between a committed schema change and its publishing
			// checkpoint: a segment build must recover readable from the
			// heap, a new table or index must be wholly absent.
			fcfg.Crashpoints = map[string]int{"ddl.before_checkpoint": 1}
		case 6:
			// No scheduled crash: a pure transient-retry cycle.
		}
		sched := faultinject.NewSchedule(fcfg)
		wl := rand.New(rand.NewSource(master.Int63()))

		db, err := open(core.Options{Injector: sched, ParanoidRecovery: true})
		var indet []kvOp
		if err != nil {
			// The schedule crashed (or starved) the open itself — usually a
			// crash during this open's recovery of the previous cycle.
			if sched.Crashed() {
				res.Crashes++
			}
		} else {
			conn, cerr := db.Connect()
			if cerr != nil {
				db.Crash()
				return res, cerr
			}
			// In some cycles a second connection opens a transaction, writes
			// a row nobody else touches, and stays open across the storage
			// flip and every checkpoint of the cycle: none of them may make
			// its row permanent or discard the log records that undo it. It
			// never commits, so the model never learns of the row.
			var holder *core.Conn
			if wl.Float64() < 0.4 {
				if c3, err := db.Connect(); err == nil {
					if _, err = c3.Exec("BEGIN"); err == nil {
						_, err = c3.Exec("INSERT INTO kv VALUES (?, ?)", val.NewInt(nextKey), val.NewInt(-1))
						nextKey++
					}
					if err == nil {
						holder = c3
					} else {
						c3.Close()
					}
				}
			}
			// schemaChange runs one seeded schema change. An acknowledged one
			// updates the model; a failed one is the cycle's indeterminate
			// schema change, and no further one is issued this cycle.
			schemaChange := func() {
				if pending != nil {
					return
				}
				names := sortedNames(side)
				var name string
				if len(names) > 0 {
					name = names[wl.Intn(len(names))]
				}
				var op schemaOp
				var sql string
				switch r := wl.Float64(); {
				case len(names) < 2 || (r < 0.35 && len(names) < 6):
					op = schemaOp{kind: "create", table: sideName(nextSide)}
					nextSide++
					sql = fmt.Sprintf("CREATE TABLE %s (k INT, v INT)", op.table)
				case r < 0.6 && side[name].index == "":
					op = schemaOp{kind: "index", table: name, unique: wl.Intn(2) == 0}
					sql = fmt.Sprintf("CREATE INDEX %s_k ON %s (k)", name, name)
					if op.unique {
						sql = fmt.Sprintf("CREATE UNIQUE INDEX %s_k ON %s (k)", name, name)
					}
				case r < 0.85:
					op = schemaOp{kind: "drop", table: name}
					sql = "DROP TABLE " + name
				default:
					op = schemaOp{kind: "stats"}
					sql = "CREATE STATISTICS kv"
				}
				if _, err := conn.Exec(sql); err != nil {
					if op.kind != "stats" {
						pending = &op
						res.SchemaIndet++
					}
					return
				}
				res.SchemaChanges++
				switch op.kind {
				case "create":
					st := &sideTable{rows: map[int64]int64{}}
					side[op.table] = st
					row := kvOp{kind: 'i', k: int64(nextSide), v: wl.Int63n(1_000_000)}
					if _, err := conn.Exec("INSERT INTO "+op.table+" VALUES (?, ?)", val.NewInt(row.k), val.NewInt(row.v)); err != nil {
						st.maybe = &row
					} else {
						st.rows[row.k] = row.v
					}
				case "index":
					side[name].index, side[name].unique = name+"_k", op.unique
				case "drop":
					delete(side, name)
					dropped = append(dropped, name)
				case "stats":
					statsAcked = true
				}
			}
			// Flip the storage format in some cycles: segment builds (and
			// the ddl.before_checkpoint crashpoint), scans through sealed
			// segments, and invalidation-by-DML all join the torture mix.
			// The flip changes no logical contents, so the model is
			// untouched; an error here is either a scheduled crash
			// (handled when BEGIN fails below) or a transient fault worth
			// ignoring — the heap stays authoritative either way.
			switch p := wl.Float64(); {
			case p < 0.35:
				_, _ = conn.Exec("ALTER TABLE kv STORE COLUMNAR")
			case p < 0.45:
				_, _ = conn.Exec("ALTER TABLE kv STORE ROW")
			}
			// In half the cycles, pin an MVCC snapshot before the writes
			// start. Every write then grows version chains the snapshot
			// keeps alive, the pinned view is re-verified after each commit
			// (repeatable read under churn), and when the cycle crashes the
			// snapshot is still open — so recovery runs with version chains
			// live, proving the WAL before-images (not the in-memory
			// chains) are what durability rests on. Reads that fail under
			// an injected fault are ignored; a *successful* read that shows
			// the wrong rows is an isolation violation.
			var snapConn *core.Conn
			var pinned map[int64]int64
			if wl.Float64() < 0.5 {
				if c2, err := db.Connect(); err == nil {
					if _, err := c2.Exec("BEGIN READ ONLY"); err == nil {
						snapConn = c2
						pinned = applyOps(model, nil)
					} else {
						c2.Close()
					}
				}
			}
			checkSnapshot := func() error {
				if snapConn == nil {
					return nil
				}
				rows, err := snapConn.Query("SELECT k, v FROM kv")
				if err != nil {
					return nil // transient fault or crash mid-read: no verdict
				}
				got := map[int64]int64{}
				for _, r := range rows.All() {
					got[r[0].I] = r[1].I
				}
				if !kvEqual(got, pinned) {
					return fmt.Errorf("cycle %d: snapshot drifted: %d rows visible, pinned %d",
						cycle, len(got), len(pinned))
				}
				res.SnapshotChecks++
				return nil
			}
			if err := checkSnapshot(); err != nil {
				db.Crash()
				return res, err
			}
		workload:
			for t := 0; t < cfg.OpsPerCycle; t++ {
				if wl.Float64() < 0.12 {
					schemaChange()
				}
				if _, err := conn.Exec("BEGIN"); err != nil {
					break
				}
				work := applyOps(model, nil) // copy of committed state
				var ops []kvOp
				failed := false
				nops := 1 + wl.Intn(3)
				for j := 0; j < nops; j++ {
					keys := kvKeys(work)
					var op kvOp
					r := wl.Float64()
					switch {
					case len(keys) == 0 || r < 0.5:
						op = kvOp{kind: 'i', k: nextKey, v: wl.Int63n(1_000_000)}
						nextKey++ // burn the key even if the txn dies
					case r < 0.8:
						op = kvOp{kind: 'u', k: keys[wl.Intn(len(keys))], v: wl.Int63n(1_000_000)}
					default:
						op = kvOp{kind: 'd', k: keys[wl.Intn(len(keys))]}
					}
					var err error
					switch op.kind {
					case 'i':
						_, err = conn.Exec("INSERT INTO kv VALUES (?, ?)", val.NewInt(op.k), val.NewInt(op.v))
					case 'u':
						_, err = conn.Exec("UPDATE kv SET v = ? WHERE k = ?", val.NewInt(op.v), val.NewInt(op.k))
					case 'd':
						_, err = conn.Exec("DELETE FROM kv WHERE k = ?", val.NewInt(op.k))
					}
					if err != nil {
						_, _ = conn.Exec("ROLLBACK")
						res.Rollbacks++
						failed = true
						break
					}
					work = applyOps(work, []kvOp{op})
					ops = append(ops, op)
				}
				if failed {
					if sched.Crashed() {
						break workload
					}
					continue
				}
				if _, err := conn.Exec("COMMIT"); err != nil {
					// Commit fate unknown: the commit record may or may not
					// have become durable before the crash.
					indet = ops
					res.Indeterminate++
					break workload
				}
				res.Commits++
				model = work
				if err := checkSnapshot(); err != nil {
					db.Crash()
					return res, err
				}
			}
			harvest(db)
			if snapConn != nil && !sched.Crashed() {
				// Clean cycle: release the snapshot so Close can drain.
				// Crashed cycles skip this on purpose — the snapshot (and
				// the version chains it pins) stays live through db.Crash().
				_, _ = snapConn.Exec("COMMIT")
				snapConn.Close()
			}
			if holder != nil && !sched.Crashed() {
				holder.Close() // rolls its transaction back
			}
			if sched.Crashed() {
				res.Crashes++
				db.Crash()
			} else if err := db.Close(); err != nil {
				// A close-time crash (e.g. checkpoint.before_truncate).
				if sched.Crashed() {
					res.Crashes++
				}
				db.Crash()
			}
		}

		// Crash again during the recovery itself, then recover cleanly:
		// recovery must be restartable from any point. Every Nth crashed
		// cycle crashes once the log tail is replayed; the others crash after
		// the first compensation of a transaction left without a commit
		// record, when one has more than one change to roll back. (That
		// schedule draws no seed from master, so the rest of the run sees
		// the same sequence either way.)
		if sched.Crashed() {
			point, seed := "recovery.undo", cfg.Seed+int64(cycle)
			if cycle%cfg.RecoveryCrashEvery == 0 {
				point, seed = "recovery.after_redo", master.Int63()
			}
			rs := faultinject.NewSchedule(faultinject.Config{Seed: seed, Crashpoints: map[string]int{point: 1}})
			rdb, rerr := open(core.Options{Injector: rs, ParanoidRecovery: true})
			switch {
			case rerr == nil:
				// No such recovery work, so the crashpoint never fired.
				harvest(rdb)
				rdb.Close()
			case point == "recovery.undo":
				res.UndoCrashes++
			default:
				res.RecoveryCrashes++
			}
		}

		if err := verify(cycle, indet); err != nil {
			return res, err
		}
		res.Cycles++
	}
	return res, nil
}

// E19CrashRecovery: crash-recovery torture under deterministic fault
// injection. The paper's zero-administration claim (§1) rests on the
// engine surviving exactly this: power loss and flaky I/O with no DBA to
// repair anything afterwards.
func E19CrashRecovery() (*Report, error) {
	dir, err := os.MkdirTemp("", "anywheredb-e19-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	res, err := CrashTorture(CrashTortureConfig{
		Cycles:             60,
		Seed:               19,
		Dir:                dir,
		OpsPerCycle:        8,
		RecoveryCrashEvery: 5,
	})
	if err != nil {
		return nil, err
	}

	table := fmt.Sprintf(
		"cycles                 %6d\n"+
			"crashes                %6d\n"+
			"recovery crashes       %6d\n"+
			"recovery undo crashes  %6d\n"+
			"commits acknowledged   %6d\n"+
			"rollbacks              %6d\n"+
			"indeterminate commits  %6d\n"+
			"snapshot checks        %6d\n"+
			"schema changes acked   %6d\n"+
			"indeterminate schema   %6d\n"+
			"faults injected        %6d\n"+
			"transient retries      %6d\n"+
			"retries exhausted      %6d\n"+
			"invariant violations        0",
		res.Cycles, res.Crashes, res.RecoveryCrashes, res.UndoCrashes, res.Commits,
		res.Rollbacks, res.Indeterminate, res.SnapshotChecks,
		res.SchemaChanges, res.SchemaIndet,
		res.Injected, res.Retried, res.GaveUp)

	return &Report{
		ID:    "E19",
		Title: "Crash-recovery torture under deterministic fault injection",
		Table: table,
		Metrics: map[string]float64{
			"cycles":           float64(res.Cycles),
			"crashes":          float64(res.Crashes),
			"recovery_crashes": float64(res.RecoveryCrashes),
			"undo_crashes":     float64(res.UndoCrashes),
			"commits":          float64(res.Commits),
			"snapshot_checks":  float64(res.SnapshotChecks),
			"schema_changes":   float64(res.SchemaChanges),
			"schema_indet":     float64(res.SchemaIndet),
			"indeterminate":    float64(res.Indeterminate),
			"fault_injected":   float64(res.Injected),
			"fault_retried":    float64(res.Retried),
			"fault_gaveup":     float64(res.GaveUp),
		},
	}, nil
}
