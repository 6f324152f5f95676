package buffer

import (
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"anywheredb/internal/faultinject"
	"anywheredb/internal/page"
	"anywheredb/internal/store"
	"anywheredb/internal/wal"
)

// fakeLog is an ImageLog that remembers what it holds — page images, and
// the one-byte changes pages were stamped with — so a test can rebuild a
// page the way recovery would. Its LSNs count records and never go back;
// its flushes fail at a seeded rate, and truncate discards what is durable
// and keeps the rest at their LSNs, as wal.Log.Truncate does.
type fakeLog struct {
	epochMu sync.RWMutex

	mu               sync.Mutex
	rng              *rand.Rand
	failRate         float64
	start, end, tail wal.LSN
	recs             []fakeRec // the log's contents, in LSN order
	flushCalls       int
}

// fakeRec is an image of page id, or a change that set its byte off to val.
type fakeRec struct {
	id    store.PageID
	lsn   wal.LSN
	image string
	off   int
	val   byte
}

func (l *fakeLog) LogImage(id store.PageID, data []byte) wal.LSN {
	return l.add(fakeRec{id: id, image: string(data)})
}

// change logs a one-byte change to page id; the caller stamps the page.
func (l *fakeLog) change(id store.PageID, off int, val byte) wal.LSN {
	return l.add(fakeRec{id: id, off: off, val: val})
}

func (l *fakeLog) add(r fakeRec) wal.LSN {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.end++
	r.lsn = l.end
	l.recs = append(l.recs, r)
	return l.end
}

func (l *fakeLog) Bounds() (start, durable wal.LSN) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.start, l.tail
}

func (l *fakeLog) FlushTo(wal.LSN) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.flushCalls++
	if l.rng.Float64() < l.failRate {
		return faultinject.Transient(errors.New("fake log: flush refused"))
	}
	l.tail = l.end // a group flush lands everything appended
	return nil
}

func (l *fakeLog) HoldEpoch()    { l.epochMu.RLock() }
func (l *fakeLog) ReleaseEpoch() { l.epochMu.RUnlock() }

// truncate is a checkpoint's truncation: what is durable goes, the rest
// stays at its LSNs.
func (l *fakeLog) truncate() {
	l.epochMu.Lock()
	defer l.epochMu.Unlock()
	l.mu.Lock()
	defer l.mu.Unlock()
	var kept []fakeRec
	for _, r := range l.recs {
		if r.lsn > l.tail {
			kept = append(kept, r)
		}
	}
	l.recs, l.start = kept, l.tail
}

// replay rebuilds page id as recovery would from what the log durably
// holds: the newest image, then every change newer than the LSN stamped in
// the page. ok is false when there is no image to start from.
func (l *fakeLog) replay(id store.PageID) (p page.Buf, ok bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	live := func(r fakeRec) bool { return r.id == id && r.lsn <= l.tail }
	for _, r := range l.recs {
		if live(r) && r.image != "" {
			p = page.Buf(r.image)
		}
	}
	if p == nil {
		return nil, false
	}
	p = append(page.Buf(nil), p...)
	for _, r := range l.recs {
		if live(r) && r.image == "" && r.lsn > p.LSN() {
			p[r.off] = r.val
			p.SetLSN(r.lsn)
		}
	}
	return p, true
}

// ruleChecker is the store's injector: at every page write it checks that
// recovery could rebuild the bytes written from the log, and it refuses
// some writes transiently.
type ruleChecker struct {
	log        *fakeLog
	mu         sync.Mutex
	rng        *rand.Rand
	quiet      atomic.Bool // refuse nothing
	violations atomic.Int64
	writes     atomic.Int64
	first      atomic.Pointer[string]
}

func (c *ruleChecker) Fault(op faultinject.Op, arg uint64, data []byte) ([]byte, error) {
	if op != faultinject.OpWrite {
		return nil, nil
	}
	id := store.PageID(arg)
	if id.File() != store.TempFile {
		c.writes.Add(1)
		if got, ok := c.log.replay(id); !ok || string(got) != string(data) {
			c.violations.Add(1)
			msg := fmt.Sprintf("page %v written with bytes recovery could not rebuild from the log (image found: %v)", id, ok)
			c.first.CompareAndSwap(nil, &msg)
		}
	}
	c.mu.Lock()
	refuse := c.rng.Intn(50) == 0
	c.mu.Unlock()
	if refuse && !c.quiet.Load() {
		return nil, faultinject.Transient(errors.New("write refused"))
	}
	return nil, nil
}

func (c *ruleChecker) Crashpoint(string) error { return nil }

// TestWriteBackRuleProperty runs random schedules of Get / modify / Unpin /
// FlushAll / FlushPage / Resize / Discard / truncate from several
// goroutines against a small two-shard pool whose log refuses some flushes
// and whose store refuses some writes. Half the pages are like heap pages:
// most of their changes are logged and stamped, some (a compensation's)
// are not, and they are never discarded. The others are like index pages:
// unstamped, and sometimes discarded. At every store write it checks that
// recovery could rebuild exactly the bytes written: from a durable image
// the log still holds, plus the durable stamped changes newer than its page
// LSN. At quiescence the pool's structure is intact, and once the faults
// stop a FlushAll leaves every resident page on disk as cached.
func TestWriteBackRuleProperty(t *testing.T) {
	var writes, images int64
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		log := &fakeLog{rng: rand.New(rand.NewSource(rng.Int63()))}
		chk := &ruleChecker{log: log, rng: rand.New(rand.NewSource(rng.Int63()))}
		chk.quiet.Store(true)
		st, err := store.Open(store.Options{Injector: chk})
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		p := newWithShards(st, 4, 8, 16, 2)
		p.SetImageLog(log)
		var ids []store.PageID
		for i := 0; i < 28; i++ {
			file := store.MainFile
			if i%7 == 0 {
				file = store.TempFile
			}
			f, err := p.NewPage(file, page.TypeTable)
			if err != nil {
				t.Fatal(err)
			}
			ids = append(ids, f.ID)
			p.Unpin(f, true)
		}
		log.failRate = 0.2
		chk.quiet.Store(false)

		heapLike := func(id store.PageID) bool { return id.Index()%2 == 0 }
		var wg sync.WaitGroup
		for w := 0; w < 3; w++ {
			wrng := rand.New(rand.NewSource(rng.Int63()))
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 300; i++ {
					id := ids[wrng.Intn(len(ids))]
					switch r := wrng.Intn(100); {
					case r < 2:
						_ = p.FlushAll()
					case r < 5:
						_ = p.FlushPage(id)
					case r < 7:
						p.Resize(4 + wrng.Intn(13))
					case r < 9:
						if !heapLike(id) {
							p.Discard(id)
						}
					case r < 11:
						log.truncate()
					default:
						f, err := p.Get(id)
						if err != nil {
							continue
						}
						dirty := wrng.Intn(2) == 0
						if dirty {
							off, val := page.HeaderSize+wrng.Intn(64), byte(wrng.Intn(256))
							f.Lock()
							f.Data[off] = val
							if heapLike(id) && wrng.Intn(8) != 0 {
								f.Stamp(log.change(id, off, val))
							}
							f.Unlock()
						}
						p.Unpin(f, dirty)
					}
				}
			}()
		}
		wg.Wait()
		checkInvariants(t, p)

		log.mu.Lock()
		log.failRate = 0
		log.mu.Unlock()
		chk.quiet.Store(true)
		if err := p.FlushAll(); err != nil {
			t.Logf("seed %d: FlushAll after the faults stopped: %v", seed, err)
			return false
		}
		for _, id := range ids {
			s := p.shardOf(id)
			s.rlock()
			f, ok := s.table[id]
			s.mu.RUnlock()
			if !ok {
				continue
			}
			disk := make(page.Buf, page.Size)
			if err := st.Read(id, disk); err != nil {
				t.Fatal(err)
			}
			if f.dirty.Load() || string(disk) != string(f.Data) {
				t.Logf("seed %d: page %v differs from its cached bytes after FlushAll", seed, id)
				return false
			}
		}
		if n := chk.violations.Load(); n > 0 {
			t.Logf("seed %d: %d of %d writes broke the rule; first: %s", seed, n, chk.writes.Load(), *chk.first.Load())
			return false
		}
		writes += chk.writes.Load()
		for _, s := range p.shards {
			images += int64(s.images.Load())
		}
		return chk.writes.Load() > 0
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
	// Writes outnumbering images is the stamped path: a page whose changes
	// since its image were all logged is written without a new one.
	t.Logf("%d page writes, %d images", writes, images)
	if images >= writes {
		t.Errorf("%d images for %d page writes: no write went out on an earlier image", images, writes)
	}
}

// TestTruncateCannotStrandAWriteBack: the clock's victim carries a durable
// image, the sweep has checked it, and a checkpoint's truncate races the
// write that follows — which tears, as the machine loses power. The
// truncate waits for the write and then meets the crash, so recovery still
// finds the image of exactly the bytes the torn write was putting down.
// (When the truncate could run between the check and the write, it threw
// the image away and the tear was unrepairable.)
func TestTruncateCannotStrandAWriteBack(t *testing.T) {
	dir := t.TempDir()
	inj := &tearOnce{}
	st, err := store.Open(store.Options{Dir: dir, Injector: inj})
	if err != nil {
		t.Fatal(err)
	}
	log, err := wal.Open(filepath.Join(dir, "test.log"))
	if err != nil {
		t.Fatal(err)
	}
	log.SetInjector(inj, faultinject.RetryPolicy{}, nil)
	p := newWithShards(st, 1, 1, 1, 1)
	p.SetImageLog(log)

	f, err := p.NewPage(store.MainFile, page.TypeTable)
	if err != nil {
		t.Fatal(err)
	}
	victim := f.ID
	f.Lock()
	f.Data.Insert([]byte("committed before the last checkpoint"))
	f.Unlock()
	p.Unpin(f, true)
	if err := p.FlushAll(); err != nil { // the last checkpoint: page on disk, log empty
		t.Fatal(err)
	}
	if err := log.Truncate(); err != nil {
		t.Fatal(err)
	}

	f, _ = p.Get(victim)
	f.Lock()
	f.Data.Insert([]byte("changed since"))
	f.Unlock()
	want := string(f.Data)
	p.Unpin(f, true)

	// The truncate starts when the write is about to land, and gets 100 ms.
	truncated := make(chan error, 1)
	inj.onWrite = func() {
		go func() { truncated <- log.Truncate() }()
		select {
		case err := <-truncated:
			truncated <- err
		case <-time.After(100 * time.Millisecond):
		}
	}
	if _, err := p.NewPage(store.MainFile, page.TypeTable); !errors.Is(err, faultinject.ErrCrashed) {
		t.Fatalf("eviction of the victim: %v, want the crash", err)
	}
	if err := <-truncated; !errors.Is(err, faultinject.ErrCrashed) {
		t.Fatalf("the racing truncate returned %v: it ran between the check and the write", err)
	}
	_ = log.CloseNoFlush()
	_ = st.CloseNoSync()

	log2, err := wal.Open(filepath.Join(dir, "test.log"))
	if err != nil {
		t.Fatal(err)
	}
	defer log2.Close()
	plan, err := log2.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	if im := plan.Images[victim]; im == nil || string(im.After) != want {
		t.Fatal("the torn page's image is gone from the log: the tear is unrepairable")
	}
}

// tearOnce tears the first main-file page write it sees after onWrite is
// set (calling onWrite first), then acts as a crashed machine.
type tearOnce struct {
	onWrite func()
	crashed atomic.Bool
}

func (c *tearOnce) Fault(op faultinject.Op, arg uint64, data []byte) ([]byte, error) {
	if c.crashed.Load() {
		return nil, faultinject.Crashed(errors.New("after the crash"))
	}
	if op == faultinject.OpWrite && c.onWrite != nil && store.PageID(arg).File() == store.MainFile {
		c.onWrite()
		c.crashed.Store(true)
		return append([]byte(nil), data[:len(data)/3]...), faultinject.Crashed(errors.New("torn write"))
	}
	return nil, nil
}

func (c *tearOnce) Crashpoint(string) error {
	if c.crashed.Load() {
		return faultinject.Crashed(errors.New("after the crash"))
	}
	return nil
}
