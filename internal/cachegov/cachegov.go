// Package cachegov implements the dynamic buffer-pool-size feedback
// controller of §2 (Figure 1).
//
// Rather than tuning buffer pool memory in isolation, the controller tunes
// the pool to fit overall system requirements: every polling period it
// reads the OS working-set size and the amount of free physical memory,
// computes a target of "working set plus unused memory minus a 5 MB
// reserve", constrains it by the fixed lower/upper bounds and the soft
// bound min(database size + main heap size, upper bound) (Eq. 1), refuses
// to grow when there were no buffer misses since the last poll, always
// allows shrinking, and damps the change as 0.9·ideal + 0.1·current
// (Eq. 2). Changes smaller than 64 KB are suppressed. The nominal sampling
// period is one minute, dropping to 20 seconds at startup and when the
// database grows significantly. On Windows CE the working set is not
// reported, so a modified law uses the current pool size as the reference
// input (CE mode).
//
// The governor does not schedule itself: each Poll applies the law once,
// and Interval reports when the next poll is due. The experiments, the
// examples and the tests drive Poll; nothing in a running engine polls it
// yet.
package cachegov

import (
	"sync"
	"sync/atomic"

	"anywheredb/internal/vclock"
)

// Defaults for the control law.
const (
	DefaultReserve      = 5 << 20 // 5 MB kept for the OS
	DefaultDeadband     = 64 << 10
	DefaultDamping      = 0.9
	DefaultPollInterval = vclock.Minute
	DefaultFastInterval = 20 * vclock.Second
	// fastPeriod is how long fast sampling persists after startup or a
	// significant database growth event.
	fastPeriod = 5 * vclock.Minute
)

// Inputs supplies the controller's reference inputs and its actuator.
type Inputs struct {
	// WorkingSet reports the database process's working set in bytes.
	// Ignored in CE mode (the CE resource manager cannot report it).
	WorkingSet func() int64
	// FreeMemory reports unused physical memory in bytes.
	FreeMemory func() int64
	// DBSize reports database size in bytes, including temporary files
	// (larger temporary files automatically unconstrain the soft bound).
	DBSize func() int64
	// HeapBytes reports the server's main heap size in bytes.
	HeapBytes func() int64
	// PoolBytes reports the buffer pool's current size in bytes.
	PoolBytes func() int64
	// Misses reports the cumulative buffer-miss counter.
	Misses func() uint64
	// Resize asks the pool to become target bytes; it returns the achieved
	// size in bytes (the pool rounds to whole frames and clamps to its own
	// hard bounds).
	Resize func(target int64) int64
}

// Config tunes the controller.
type Config struct {
	Clock        *vclock.Clock
	MinBytes     int64 // fixed lower bound (default 1 MB)
	MaxBytes     int64 // fixed upper bound (hard limit)
	Reserve      int64
	Deadband     int64
	Damping      float64 // weight of the new ideal size in Eq. 2
	PollInterval vclock.Micros
	FastInterval vclock.Micros
	CEMode       bool
	// NoDamping disables Eq. 2 (for the E7 ablation).
	NoDamping bool
}

func (c *Config) fill() {
	if c.MinBytes <= 0 {
		c.MinBytes = 1 << 20
	}
	if c.MaxBytes <= 0 {
		c.MaxBytes = 1 << 30
	}
	if c.Reserve == 0 {
		c.Reserve = DefaultReserve
	}
	if c.Deadband == 0 {
		c.Deadband = DefaultDeadband
	}
	if c.Damping == 0 {
		c.Damping = DefaultDamping
	}
	if c.PollInterval == 0 {
		c.PollInterval = DefaultPollInterval
	}
	if c.FastInterval == 0 {
		c.FastInterval = DefaultFastInterval
	}
}

// Decision records one control step, for the Figure 1 experiment traces.
type Decision struct {
	At         vclock.Micros
	WorkingSet int64
	Free       int64
	Ideal      int64 // raw target before damping
	Target     int64 // damped, bounded target
	Applied    int64 // pool size after the resize
	MissDelta  uint64
	Changed    bool
	Reason     string
}

// Governor is the feedback controller. Poll performs one control step.
type Governor struct {
	cfg Config
	in  Inputs

	mu         sync.Mutex
	lastMisses uint64
	fastUntil  vclock.Micros

	Counters
}

// Counters is what a controller counts and the targets of its most recent
// step, for its owner to publish.
type Counters struct {
	Polls        atomic.Uint64 // control steps taken
	Resizes      atomic.Uint64 // steps that changed the pool size
	Grows        atomic.Uint64
	Shrinks      atomic.Uint64
	IdealBytes   atomic.Int64 // raw target before damping, last poll
	TargetBytes  atomic.Int64 // damped, bounded target, last poll
	AppliedBytes atomic.Int64 // achieved pool bytes, last poll
}

// New builds a governor; sampling starts in the fast (20 s) regime, as at
// server startup.
func New(cfg Config, in Inputs) *Governor {
	cfg.fill()
	g := &Governor{cfg: cfg, in: in}
	g.fastUntil = cfg.Clock.Now() + fastPeriod
	if in.Misses != nil {
		g.lastMisses = in.Misses()
	}
	return g
}

// NoteDBGrowth switches to the fast sampling period, as when the database
// grows significantly.
func (g *Governor) NoteDBGrowth() {
	g.mu.Lock()
	g.fastUntil = g.cfg.Clock.Now() + fastPeriod
	g.mu.Unlock()
}

// Interval reports the sampling period currently in effect. It is not
// affected by memory-usage fluctuations elsewhere in the system.
func (g *Governor) Interval() vclock.Micros {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.cfg.Clock.Now() < g.fastUntil {
		return g.cfg.FastInterval
	}
	return g.cfg.PollInterval
}

// Poll performs one control step and returns the decision taken.
func (g *Governor) Poll() Decision {
	g.mu.Lock()
	defer g.mu.Unlock()

	cur := g.in.PoolBytes()
	free := g.in.FreeMemory()
	var ws int64
	d := Decision{At: g.cfg.Clock.Now(), Free: free}

	if g.cfg.CEMode {
		// CE variant: the current pool size is the reference input. The
		// pool grows only when free memory increases beyond the reserve and
		// shrinks when other applications squeeze free memory below it.
		ws = cur
	} else {
		ws = g.in.WorkingSet()
	}
	d.WorkingSet = ws

	ideal := ws + free - g.cfg.Reserve
	d.Ideal = ideal

	// Soft upper bound (Eq. 1): min(db size + main heap size, upper bound).
	softMax := g.in.DBSize() + g.in.HeapBytes()
	if softMax > g.cfg.MaxBytes {
		softMax = g.cfg.MaxBytes
	}
	if ideal > softMax {
		ideal = softMax
	}
	if ideal < g.cfg.MinBytes {
		ideal = g.cfg.MinBytes
	}

	// Damping (Eq. 2), then re-clamp so the final target also honours the
	// bounds of Eq. 1.
	target := ideal
	if !g.cfg.NoDamping {
		target = int64(g.cfg.Damping*float64(ideal) + (1-g.cfg.Damping)*float64(cur))
	}
	if target > softMax {
		target = softMax
	}
	if target < g.cfg.MinBytes {
		target = g.cfg.MinBytes
	}
	d.Target = target

	// Deadband: changes under 64 KB are suppressed.
	diff := target - cur
	if diff < 0 {
		diff = -diff
	}
	if diff < g.cfg.Deadband {
		d.Applied = cur
		d.Reason = "deadband"
		g.noteMisses()
		g.publish(d)
		return d
	}

	// Growth gate: no buffer misses since the last poll means the server is
	// idle or fully resident; do not grow. Shrinking is always allowed.
	missDelta := g.noteMisses()
	d.MissDelta = missDelta
	if target > cur && missDelta == 0 {
		d.Applied = cur
		d.Reason = "no-miss growth gate"
		g.publish(d)
		return d
	}

	applied := g.in.Resize(target)
	d.Applied = applied
	d.Changed = applied != cur
	if target > cur {
		d.Reason = "grow"
		g.Grows.Add(1)
	} else {
		d.Reason = "shrink"
		g.Shrinks.Add(1)
	}
	g.publish(d)
	return d
}

// publish mirrors a decision into the controller's Counters.
func (g *Governor) publish(d Decision) {
	g.Polls.Add(1)
	if d.Changed {
		g.Resizes.Add(1)
	}
	g.IdealBytes.Store(d.Ideal)
	g.TargetBytes.Store(d.Target)
	g.AppliedBytes.Store(d.Applied)
}

func (g *Governor) noteMisses() uint64 {
	if g.in.Misses == nil {
		return 1 // treat as active
	}
	m := g.in.Misses()
	delta := m - g.lastMisses
	g.lastMisses = m
	return delta
}
