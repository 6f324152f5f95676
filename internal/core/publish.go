package core

import (
	"fmt"
	"sync/atomic"

	"anywheredb/internal/buffer"
	"anywheredb/internal/cachegov"
	"anywheredb/internal/lock"
	"anywheredb/internal/mem"
	"anywheredb/internal/telemetry"
	"anywheredb/internal/wal"
)

// PublishKernels names in reg the counters the kernels below core keep as
// plain values, each the name PROPERTY() and sys.properties answer to: the
// registry reads the kernels' own values and keeps no copy. A nil kernel
// publishes nothing.
func PublishKernels(reg *telemetry.Registry, p *buffer.Pool, l *wal.Log, m *lock.Manager, g *mem.Governor, cg *cachegov.Governor) {
	u := func(a *atomic.Uint64) func() int64 { return func() int64 { return int64(a.Load()) } }
	if p != nil {
		reg.GaugeFunc("buffer.hits", func() int64 { return int64(p.Stats().Hits) })
		reg.GaugeFunc("buffer.misses", func() int64 { return int64(p.Stats().Misses) })
		reg.GaugeFunc("buffer.evictions", func() int64 { return int64(p.Stats().Evictions) })
		reg.GaugeFunc("buffer.lookaside_hits", func() int64 { return int64(p.Stats().LookasideHits) })
		reg.GaugeFunc("buffer.writebacks", func() int64 { return int64(p.Stats().Writebacks) })
		reg.GaugeFunc("buffer.images_logged", func() int64 { return int64(p.Stats().ImagesLogged) })
		reg.GaugeFunc("buffer.writeback_syncs", func() int64 { return int64(p.Stats().WritebackSyncs) })
		reg.GaugeFunc("buffer.steals", func() int64 { return int64(p.Stats().Steals) })
		reg.GaugeFunc("buffer.contention", func() int64 { return int64(p.Stats().Contention) })
		reg.GaugeFunc("buffer.borrows", func() int64 { return int64(p.Stats().Borrows) })
		reg.GaugeFunc("buffer.pool_pages", func() int64 { return int64(p.SizePages()) })
		reg.GaugeFunc("buffer.pinned_frames", func() int64 { return int64(p.PinnedCount()) })
		shards := len(p.Stats().ShardContention)
		reg.GaugeFunc("buffer.shards", func() int64 { return int64(shards) })
		for i := range shards {
			reg.GaugeFunc(fmt.Sprintf("buffer.shard%02d.contention", i), func() int64 { return int64(p.Stats().ShardContention[i]) })
		}
	}
	if l != nil {
		reg.GaugeFunc("wal.records", u(&l.Records))
		reg.GaugeFunc("wal.checkpoints", u(&l.Checkpoints))
		reg.GaugeFunc("wal.flushes", u(&l.Flushes))
		reg.GaugeFunc("wal.truncates", u(&l.Truncates))
		reg.GaugeFunc("wal.bytes_appended", u(&l.Bytes))
		reg.GaugeFunc("wal.group_commits", u(&l.GroupCommits))
		reg.GaugeFunc("wal.flush_waiters", u(&l.FlushWaiters))
		reg.RegisterHistogram("wal.commits_per_flush", &l.CommitsPerFlush)
	}
	if m != nil {
		reg.GaugeFunc("lock.acquires", u(&m.Acquires))
		reg.GaugeFunc("lock.row_waits", u(&m.RowWaits))
		reg.GaugeFunc("lock.waits", u(&m.Waits))
		reg.GaugeFunc("lock.wakeups", u(&m.Wakeups))
		reg.GaugeFunc("lock.deadlocks", u(&m.Deadlocks))
		reg.GaugeFunc("lock.releases", u(&m.Releases))
	}
	if g != nil {
		reg.GaugeFunc("mem.tasks", u(&g.Tasks))
		reg.GaugeFunc("mem.grants", u(&g.Grants))
		reg.GaugeFunc("mem.denials", u(&g.Denials))
		reg.GaugeFunc("mem.release_requests", u(&g.ReleaseRequests))
		reg.GaugeFunc("mem.active_tasks", func() int64 { return int64(g.ActiveRequests()) })
		reg.GaugeFunc("mem.leaked_pages", u(&g.Leaked))
		reg.RegisterHistogram("mem.peak_pages", &g.PeakPages)
	}
	if cg != nil {
		reg.GaugeFunc("cachegov.polls", u(&cg.Polls))
		reg.GaugeFunc("cachegov.resizes", u(&cg.Resizes))
		reg.GaugeFunc("cachegov.grows", u(&cg.Grows))
		reg.GaugeFunc("cachegov.shrinks", u(&cg.Shrinks))
		reg.GaugeFunc("cachegov.ideal_bytes", cg.IdealBytes.Load)
		reg.GaugeFunc("cachegov.target_bytes", cg.TargetBytes.Load)
		reg.GaugeFunc("cachegov.applied_bytes", cg.AppliedBytes.Load)
	}
}
