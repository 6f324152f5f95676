package buffer

import (
	"fmt"
	"sync"
	"testing"

	"anywheredb/internal/page"
	"anywheredb/internal/store"
)

// poolBench builds a pool with the given shard count, creates npages pages,
// and warms them so the hit-heavy variant runs entirely on the latch path.
func poolBench(b *testing.B, shards, frames, npages int) (*Pool, []store.PageID) {
	b.Helper()
	p, _ := testPoolShards(b, frames, frames, frames, shards)
	ids := make([]store.PageID, npages)
	for i := range ids {
		f, err := p.NewPage(store.MainFile, page.TypeTable)
		if err != nil {
			b.Fatal(err)
		}
		ids[i] = f.ID
		p.Unpin(f, true)
	}
	for _, id := range ids {
		f, err := p.Get(id)
		if err != nil {
			b.Fatal(err)
		}
		p.Unpin(f, false)
	}
	return p, ids
}

// BenchmarkPoolGetParallel measures Get/Unpin throughput on the sharded pool
// (16 shards, fixed for cross-host comparability) against the single-shard
// configuration that matches the pre-striping global-mutex pool, at fixed
// goroutine counts. RunParallel cannot pin a goroutine count, so workers are
// hand-rolled; ns/op is per Get/Unpin cycle. hit: working set resident;
// miss: frames ≪ pages, so most Gets evict and read through the store.
func BenchmarkPoolGetParallel(b *testing.B) {
	workloads := []struct {
		name           string
		frames, npages int
	}{
		{"hit", 512, 256},
		{"miss", 64, 1024},
	}
	for _, wl := range workloads {
		for _, sh := range []struct {
			name   string
			shards int
		}{{"sharded16", 16}, {"single", 1}} {
			for _, g := range []int{1, 4, 16} {
				b.Run(fmt.Sprintf("%s/%s/g=%d", wl.name, sh.name, g), func(b *testing.B) {
					p, ids := poolBench(b, sh.shards, wl.frames, wl.npages)
					per := b.N/g + 1
					b.ResetTimer()
					var wg sync.WaitGroup
					for w := 0; w < g; w++ {
						wg.Add(1)
						go func(w int) {
							defer wg.Done()
							i := w * 7919
							for n := 0; n < per; n++ {
								f, err := p.Get(ids[i%len(ids)])
								if err != nil {
									b.Error(err)
									return
								}
								p.Unpin(f, false)
								i++
							}
						}(w)
					}
					wg.Wait()
				})
			}
		}
	}
}
