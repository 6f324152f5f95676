package cachegov

import (
	"math"
	"testing"

	"anywheredb/internal/vclock"
)

// sim wires a governor to a fake machine for unit tests. The pool resizes
// exactly as asked (within its own bounds), the working set equals the pool
// plus a fixed overhead, and misses are scripted.
type sim struct {
	clk      *vclock.Clock
	pool     int64
	overhead int64
	ram      int64
	external int64
	dbSize   int64
	heap     int64
	misses   uint64
}

func (s *sim) inputs() Inputs {
	return Inputs{
		// Under memory pressure the OS trims the process working set, so it
		// is clamped to RAM minus other applications' memory.
		WorkingSet: func() int64 {
			ws := s.pool + s.overhead
			if lim := s.ram - s.external; ws > lim {
				ws = lim
			}
			if ws < 0 {
				ws = 0
			}
			return ws
		},
		FreeMemory: func() int64 {
			free := s.ram - s.pool - s.overhead - s.external
			if free < 0 {
				free = 0
			}
			return free
		},
		DBSize:    func() int64 { return s.dbSize },
		HeapBytes: func() int64 { return s.heap },
		PoolBytes: func() int64 { return s.pool },
		Misses:    func() uint64 { return s.misses },
		Resize: func(target int64) int64 {
			s.pool = target
			return s.pool
		},
	}
}

func newSim() *sim {
	return &sim{
		clk:      vclock.New(),
		pool:     32 << 20,
		overhead: 8 << 20,
		ram:      512 << 20,
		dbSize:   1 << 30, // big DB: soft bound not binding
		heap:     0,
	}
}

func TestGrowTowardFreeMemory(t *testing.T) {
	s := newSim()
	g := New(Config{Clock: s.clk, MaxBytes: 1 << 30}, s.inputs())
	s.misses = 10 // activity since last poll
	d := g.Poll()
	// ideal = ws + free - reserve = (40M) + (472M) - 5M = 507M;
	// damped = 0.9*507M + 0.1*32M.
	wantIdeal := int64(40<<20) + int64(472<<20) - DefaultReserve
	if d.Ideal != wantIdeal {
		t.Fatalf("ideal = %d, want %d", d.Ideal, wantIdeal)
	}
	wantTarget := int64(0.9*float64(wantIdeal) + 0.1*float64(32<<20))
	if d.Target != wantTarget {
		t.Fatalf("target = %d, want %d", d.Target, wantTarget)
	}
	if !d.Changed || s.pool != wantTarget {
		t.Fatalf("pool = %d, want %d", s.pool, wantTarget)
	}
}

func TestNoMissGrowthGate(t *testing.T) {
	s := newSim()
	g := New(Config{Clock: s.clk, MaxBytes: 1 << 30}, s.inputs())
	// No misses since construction: growth suppressed.
	before := s.pool
	d := g.Poll()
	if d.Changed || s.pool != before {
		t.Fatalf("pool grew to %d despite zero misses", s.pool)
	}
	if d.Reason != "no-miss growth gate" {
		t.Fatalf("reason = %q", d.Reason)
	}
}

func TestShrinkAlwaysAllowed(t *testing.T) {
	s := newSim()
	s.pool = 400 << 20
	g := New(Config{Clock: s.clk, MaxBytes: 1 << 30}, s.inputs())
	// Another app takes most of RAM; no DB activity (zero misses), but
	// shrinking must still happen.
	s.external = 300 << 20
	d := g.Poll()
	if !d.Changed || s.pool >= 400<<20 {
		t.Fatalf("pool = %d, should have shrunk", s.pool)
	}
	if d.Reason != "shrink" {
		t.Fatalf("reason = %q", d.Reason)
	}
}

func TestDeadband(t *testing.T) {
	s := newSim()
	g := New(Config{Clock: s.clk, MaxBytes: 1 << 30}, s.inputs())
	// Damping converges geometrically (gap ×0.1 per poll); once inside the
	// 64 KB deadband the pool must stop moving.
	settled := false
	for i := 0; i < 12; i++ {
		s.misses++
		d := g.Poll()
		if d.Reason == "deadband" {
			settled = true
		} else if settled {
			t.Fatalf("poll %d: pool moved again (%q) after settling", i, d.Reason)
		}
	}
	if !settled {
		t.Fatal("controller never settled into the deadband")
	}
}

func TestSoftBoundSmallDatabase(t *testing.T) {
	s := newSim()
	s.dbSize = 8 << 20 // tiny DB
	s.heap = 2 << 20
	g := New(Config{Clock: s.clk, MaxBytes: 1 << 30}, s.inputs())
	s.misses = 5
	d := g.Poll()
	// Eq. 1: target pool never exceeds dbSize + heap.
	if d.Target > 10<<20 {
		t.Fatalf("target %d exceeds soft bound %d", d.Target, 10<<20)
	}
	// A growing temp file unconstrains the bound.
	s.dbSize = 200 << 20
	s.misses += 5
	d = g.Poll()
	if d.Target <= 10<<20 {
		t.Fatalf("target %d should exceed the old soft bound after temp growth", d.Target)
	}
}

func TestHardBoundsRespected(t *testing.T) {
	s := newSim()
	g := New(Config{Clock: s.clk, MinBytes: 16 << 20, MaxBytes: 64 << 20}, s.inputs())
	s.misses = 1
	d := g.Poll()
	if d.Target > 64<<20 {
		t.Fatalf("target %d above hard max", d.Target)
	}
	// Force extreme pressure; target clamps at min.
	s.external = s.ram
	s.misses++
	d = g.Poll()
	if d.Target < 16<<20 {
		t.Fatalf("target %d below hard min", d.Target)
	}
}

func TestDampingReducesOscillation(t *testing.T) {
	// Square-wave external load; compare pool variance with and without
	// damping (E7 ablation).
	run := func(noDamp bool) float64 {
		s := newSim()
		g := New(Config{Clock: s.clk, MaxBytes: 1 << 30, NoDamping: noDamp}, s.inputs())
		var sizes []float64
		for i := 0; i < 40; i++ {
			if i%2 == 0 {
				s.external = 300 << 20
			} else {
				s.external = 0
			}
			s.misses += 10
			g.Poll()
			sizes = append(sizes, float64(s.pool))
		}
		// Mean absolute step-to-step change.
		var sum float64
		for i := 1; i < len(sizes); i++ {
			sum += math.Abs(sizes[i] - sizes[i-1])
		}
		return sum / float64(len(sizes)-1)
	}
	damped, undamped := run(false), run(true)
	if damped >= undamped {
		t.Fatalf("damping should reduce oscillation: damped=%g undamped=%g", damped, undamped)
	}
}

func TestCEModeGrowsOnlyWithFreeMemory(t *testing.T) {
	s := newSim()
	s.ram = 64 << 20
	s.pool = 16 << 20
	s.overhead = 2 << 20
	g := New(Config{Clock: s.clk, MaxBytes: 48 << 20, CEMode: true}, s.inputs())

	// Free = 64-16-2 = 46M; ideal = cur + free - reserve = 16+46-5 = 57M → max 48M.
	s.misses = 3
	d := g.Poll()
	if !d.Changed || s.pool <= 16<<20 {
		t.Fatalf("CE pool should grow when free memory is plentiful; pool=%d", s.pool)
	}

	// Another application allocates heavily: pool must shrink even though
	// CE cannot report a working set.
	s.external = 40 << 20
	d = g.Poll()
	if s.pool >= d.WorkingSet {
		// WorkingSet field in CE mode = previous pool; pool must fall.
		t.Fatalf("CE pool should shrink under external pressure; pool=%d", s.pool)
	}
}

func TestSamplingPeriodSchedule(t *testing.T) {
	s := newSim()
	g := New(Config{Clock: s.clk, MaxBytes: 1 << 30}, s.inputs())
	if g.Interval() != DefaultFastInterval {
		t.Fatalf("startup interval %d, want fast %d", g.Interval(), DefaultFastInterval)
	}
	s.clk.Advance(10 * vclock.Minute)
	if g.Interval() != DefaultPollInterval {
		t.Fatalf("steady-state interval %d, want %d", g.Interval(), DefaultPollInterval)
	}
	g.NoteDBGrowth()
	if g.Interval() != DefaultFastInterval {
		t.Fatal("DB growth should restore fast sampling")
	}
}
