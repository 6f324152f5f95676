package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"anywheredb/internal/buffer"
	"anywheredb/internal/telemetry"
	"anywheredb/internal/val"
)

// publishedNames is every name a freshly opened database answers
// PROPERTY() to: the registered metrics, each histogram's statistics by
// suffix, and one contention gauge per buffer-pool shard (the %02d entry).
// Names are what applications, the bench driver and the experiments read,
// so a rename or a lost registration fails here.
var publishedNames = []string{
	"buffer.borrows", "buffer.contention", "buffer.evictions", "buffer.hits",
	"buffer.images_logged", "buffer.lookaside_hits", "buffer.misses",
	"buffer.pinned_frames", "buffer.pool_pages", "buffer.shard%02d.contention",
	"buffer.shards", "buffer.steals", "buffer.writeback_syncs",
	"buffer.writebacks", "cachegov.applied_bytes", "cachegov.grows",
	"cachegov.ideal_bytes", "cachegov.polls", "cachegov.resizes",
	"cachegov.shrinks", "cachegov.target_bytes", "colseg.decode_rows",
	"colseg.invalidations", "colseg.reorg_promotions", "colseg.segments",
	"colseg.segments_skipped", "core.degraded", "core.stmt_cache.bytes",
	"core.stmt_cache.entries", "core.stmt_cache.evictions", "exec.batches",
	"exec.rows_returned", "exec.statement_us", "exec.statement_us.count",
	"exec.statement_us.mean", "exec.statement_us.p50", "exec.statement_us.p95",
	"exec.statement_us.p99", "exec.statement_us.sum", "exec.statements",
	"fault.gaveup", "fault.injected", "fault.retried", "flightrec.digests",
	"flightrec.ring_size", "flightrec.spans", "lock.acquires", "lock.deadlocks",
	"lock.releases", "lock.row_waits", "lock.waits", "lock.wakeups",
	"mem.active_tasks", "mem.denials", "mem.grants", "mem.leaked_pages",
	"mem.peak_pages", "mem.peak_pages.count", "mem.peak_pages.mean",
	"mem.peak_pages.p50", "mem.peak_pages.p95", "mem.peak_pages.p99",
	"mem.peak_pages.sum", "mem.release_requests", "mem.tasks",
	"opt.enumerations", "opt.plancache.hits", "opt.plancache.invalidations",
	"opt.plancache.misses", "opt.plancache.retained", "opt.plancache.trainings",
	"opt.plancache.verifications", "opt.pruned", "opt.quota_exhausted",
	"opt.visits", "sqlparse.parses", "txn.oldest_snapshot",
	"txn.snapshot_reads", "txn.snapshots_active", "txn.version_bytes",
	"txn.version_entries", "txn.versions_reclaimed", "waits.buffer.read.count",
	"waits.buffer.read.us", "waits.buffer.read.us.count",
	"waits.buffer.read.us.mean", "waits.buffer.read.us.p50",
	"waits.buffer.read.us.p95", "waits.buffer.read.us.p99",
	"waits.buffer.read.us.sum", "waits.lock.acquire.count",
	"waits.lock.acquire.us", "waits.lock.acquire.us.count",
	"waits.lock.acquire.us.mean", "waits.lock.acquire.us.p50",
	"waits.lock.acquire.us.p95", "waits.lock.acquire.us.p99",
	"waits.lock.acquire.us.sum", "waits.net.send.count", "waits.net.send.us",
	"waits.net.send.us.count", "waits.net.send.us.mean",
	"waits.net.send.us.p50", "waits.net.send.us.p95", "waits.net.send.us.p99",
	"waits.net.send.us.sum", "waits.net.ship.count", "waits.net.ship.us",
	"waits.net.ship.us.count", "waits.net.ship.us.mean",
	"waits.net.ship.us.p50", "waits.net.ship.us.p95", "waits.net.ship.us.p99",
	"waits.net.ship.us.sum", "waits.txn.snapshot.count",
	"waits.txn.snapshot.us", "waits.txn.snapshot.us.count",
	"waits.txn.snapshot.us.mean", "waits.txn.snapshot.us.p50",
	"waits.txn.snapshot.us.p95", "waits.txn.snapshot.us.p99",
	"waits.txn.snapshot.us.sum", "waits.wal.flush.count", "waits.wal.flush.us",
	"waits.wal.flush.us.count", "waits.wal.flush.us.mean",
	"waits.wal.flush.us.p50", "waits.wal.flush.us.p95",
	"waits.wal.flush.us.p99", "waits.wal.flush.us.sum", "wal.bytes_appended",
	"wal.checkpoints", "wal.commits_per_flush", "wal.commits_per_flush.count",
	"wal.commits_per_flush.mean", "wal.commits_per_flush.p50",
	"wal.commits_per_flush.p95", "wal.commits_per_flush.p99",
	"wal.commits_per_flush.sum", "wal.flush_waiters", "wal.flushes",
	"wal.group_commits", "wal.records", "wal.truncates",
}

// histSuffixes are the statistics a histogram answers to by name suffix.
var histSuffixes = []string{"count", "mean", "p50", "p95", "p99", "sum"}

// TestPublishedNamesDoNotMove: after Open, the registry's names, with each
// histogram's suffixes, are exactly publishedNames, and every one resolves.
func TestPublishedNamesDoNotMove(t *testing.T) {
	db := openDB(t, Options{})
	reg := db.Telemetry()
	var got []string
	for _, s := range reg.Snapshot() {
		got = append(got, s.Name)
		if s.Kind == telemetry.KindHistogram {
			for _, suf := range histSuffixes {
				got = append(got, s.Name+"."+suf)
			}
		}
	}
	shards := len(db.pool.Stats().ShardContention)
	if shards == 0 {
		t.Fatal("the pool reports no shards")
	}
	var want []string
	for _, name := range publishedNames {
		if !strings.Contains(name, "%") {
			want = append(want, name)
			continue
		}
		for i := range shards {
			want = append(want, fmt.Sprintf(name, i))
		}
	}
	slices.Sort(got)
	slices.Sort(want)
	for _, name := range want {
		if _, ok := slices.BinarySearch(got, name); !ok {
			t.Errorf("%s is no longer published", name)
		}
		if _, ok := reg.Value(name); !ok {
			t.Errorf("PROPERTY(%q) does not resolve", name)
		}
	}
	for _, name := range got {
		if _, ok := slices.BinarySearch(want, name); !ok {
			t.Errorf("%s is published but not on publishedNames", name)
		}
	}
}

// TestTelemetryMatchesStats is the property: after any random workload of
// inserts, scans, updates, pool resizes and checkpoints, the registry's
// buffer gauges equal what the pool's Stats reports — the registry reads
// the pool's own counters, never a second copy that could drift.
func TestTelemetryMatchesStats(t *testing.T) {
	prop := func(seed int64, ops []uint8) bool {
		db := openDB(t, Options{PoolMinPages: 8, PoolInitPages: 16, PoolMaxPages: 32})
		c := conn(t, db)
		mustExec(t, c, "CREATE TABLE t (id INT, s VARCHAR)")
		rng := rand.New(rand.NewSource(seed))
		pad := strings.Repeat("x", 500)
		rows := 0
		insert := func(n int) {
			for range n {
				mustExec(t, c, "INSERT INTO t VALUES (?, ?)", val.NewInt(int64(rows)), val.NewStr(pad))
				rows++
			}
		}
		insert(400) // twice the largest pool
		for _, op := range ops {
			switch op % 5 {
			case 0: // rows to new pages (write-backs, images)
				insert(16)
			case 1: // a scan (hits, misses, evictions)
				mustQuery(t, c, "SELECT COUNT(*) FROM t")
			case 2:
				mustExec(t, c, "UPDATE t SET s = ? WHERE id < ?", val.NewStr(pad[:rng.Intn(len(pad))]), val.NewInt(int64(rng.Intn(rows))))
			case 3: // resize within bounds (steals)
				db.pool.Resize(8 + rng.Intn(25))
			case 4:
				if err := db.Checkpoint(); err != nil {
					t.Fatal(err)
				}
			}
		}
		st, reg := db.pool.Stats(), db.Telemetry()
		v := func(name string) uint64 {
			n, ok := reg.Value(name)
			if !ok {
				t.Fatalf("%s is not published", name)
			}
			return uint64(n)
		}
		got := buffer.Stats{
			Hits:           v("buffer.hits"),
			Misses:         v("buffer.misses"),
			Evictions:      v("buffer.evictions"),
			LookasideHits:  v("buffer.lookaside_hits"),
			Writebacks:     v("buffer.writebacks"),
			Steals:         v("buffer.steals"),
			Contention:     v("buffer.contention"),
			ImagesLogged:   v("buffer.images_logged"),
			WritebackSyncs: v("buffer.writeback_syncs"),
			Borrows:        v("buffer.borrows"),
		}
		for i := range v("buffer.shards") {
			got.ShardContention = append(got.ShardContention, v(fmt.Sprintf("buffer.shard%02d.contention", i)))
		}
		if !reflect.DeepEqual(got, st) {
			t.Logf("registry %+v\npool     %+v", got, st)
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
