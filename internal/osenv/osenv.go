// Package osenv simulates the operating-system memory environment the
// cache-sizing governor observes: total physical memory, the database
// process's working set, and the memory consumed by other applications.
//
// The paper's controller (§2) polls two OS counters — the process working
// set and the amount of free physical memory. An embedded database must
// co-exist with other software whose memory usage varies from moment to
// moment; this package scripts that variation deterministically on the
// virtual clock.
package osenv

import (
	"sort"
	"sync"

	"anywheredb/internal/vclock"
)

// Machine is a simulated computer. It is safe for concurrent use.
type Machine struct {
	clk      *vclock.Clock
	totalRAM int64

	mu       sync.Mutex
	external map[string]int64 // other applications' resident memory
	dbExtra  int64            // DB process memory besides the buffer pool
	poolFn   func() int64     // current buffer pool bytes
	trace    []TraceStep
	traceIdx int
}

// TraceStep scripts the external memory load at a virtual instant: at At,
// the named application's resident size becomes Bytes.
type TraceStep struct {
	At    vclock.Micros
	App   string
	Bytes int64
}

// New returns a machine with the given RAM. poolBytes reports the database
// buffer pool's current size; it may be nil until SetPoolFunc is called.
func New(clk *vclock.Clock, totalRAM int64, poolBytes func() int64) *Machine {
	return &Machine{
		clk:      clk,
		totalRAM: totalRAM,
		external: make(map[string]int64),
		poolFn:   poolBytes,
	}
}

// SetPoolFunc installs the callback reporting the buffer pool's size.
func (m *Machine) SetPoolFunc(f func() int64) {
	m.mu.Lock()
	m.poolFn = f
	m.mu.Unlock()
}

// SetDBExtra sets the database process's non-pool memory (code, stacks,
// fixed structures).
func (m *Machine) SetDBExtra(b int64) {
	m.mu.Lock()
	m.dbExtra = b
	m.mu.Unlock()
}

// SetExternal sets another application's resident memory.
func (m *Machine) SetExternal(app string, bytes int64) {
	m.mu.Lock()
	if bytes <= 0 {
		delete(m.external, app)
	} else {
		m.external[app] = bytes
	}
	m.mu.Unlock()
}

// LoadTrace installs a scripted external-load trace; steps are applied by
// Tick as virtual time passes. Steps are sorted by time.
func (m *Machine) LoadTrace(steps []TraceStep) {
	m.mu.Lock()
	m.trace = append([]TraceStep(nil), steps...)
	sort.SliceStable(m.trace, func(i, j int) bool { return m.trace[i].At < m.trace[j].At })
	m.traceIdx = 0
	m.mu.Unlock()
}

// Tick applies every trace step due at or before the current virtual time.
func (m *Machine) Tick() {
	now := m.clk.Now()
	m.mu.Lock()
	for m.traceIdx < len(m.trace) && m.trace[m.traceIdx].At <= now {
		s := m.trace[m.traceIdx]
		if s.Bytes <= 0 {
			delete(m.external, s.App)
		} else {
			m.external[s.App] = s.Bytes
		}
		m.traceIdx++
	}
	m.mu.Unlock()
}

func (m *Machine) poolBytes() int64 {
	if m.poolFn == nil {
		return 0
	}
	return m.poolFn()
}

// WorkingSet reports the database process's working set: its buffer pool
// plus its other resident memory. Under memory pressure the OS trims
// working sets, so the result is clamped to physical RAM minus the memory
// held by other applications.
func (m *Machine) WorkingSet() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	ws := m.poolBytes() + m.dbExtra
	lim := m.totalRAM
	for _, b := range m.external {
		lim -= b
	}
	if ws > lim {
		ws = lim
	}
	if ws < 0 {
		ws = 0
	}
	return ws
}

// FreeMemory reports unused physical memory: RAM minus every process's
// resident memory, floored at zero (the OS would be paging).
func (m *Machine) FreeMemory() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	used := m.poolBytes() + m.dbExtra
	for _, b := range m.external {
		used += b
	}
	free := m.totalRAM - used
	if free < 0 {
		free = 0
	}
	return free
}

// ExternalBytes reports the total memory held by other applications.
func (m *Machine) ExternalBytes() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	var n int64
	for _, b := range m.external {
		n += b
	}
	return n
}
