package osenv

import (
	"testing"

	"anywheredb/internal/vclock"
)

func TestWorkingSetAndFree(t *testing.T) {
	clk := vclock.New()
	pool := int64(100 << 20)
	m := New(clk, 512<<20, func() int64 { return pool })
	m.SetDBExtra(10 << 20)

	if ws := m.WorkingSet(); ws != 110<<20 {
		t.Fatalf("working set %d, want %d", ws, 110<<20)
	}
	if free := m.FreeMemory(); free != 402<<20 {
		t.Fatalf("free %d, want %d", free, 402<<20)
	}

	m.SetExternal("browser", 300<<20)
	if free := m.FreeMemory(); free != 102<<20 {
		t.Fatalf("free with browser %d, want %d", free, 102<<20)
	}
	if got := m.ExternalBytes(); got != 300<<20 {
		t.Fatalf("external %d", got)
	}

	m.SetExternal("browser", 0) // releases
	if free := m.FreeMemory(); free != 402<<20 {
		t.Fatalf("free after release %d", free)
	}
}

func TestFreeFloorsAtZero(t *testing.T) {
	clk := vclock.New()
	m := New(clk, 64<<20, func() int64 { return 32 << 20 })
	m.SetExternal("hog", 100<<20)
	if free := m.FreeMemory(); free != 0 {
		t.Fatalf("free %d, want 0 under overcommit", free)
	}
}

func TestWorkingSetClampedToRAM(t *testing.T) {
	clk := vclock.New()
	m := New(clk, 64<<20, func() int64 { return 100 << 20 })
	if ws := m.WorkingSet(); ws != 64<<20 {
		t.Fatalf("working set %d should clamp to RAM", ws)
	}
}

func TestTraceAppliesOnTick(t *testing.T) {
	clk := vclock.New()
	m := New(clk, 256<<20, func() int64 { return 0 })
	m.LoadTrace([]TraceStep{
		{At: 100, App: "app", Bytes: 50 << 20},
		{At: 200, App: "app", Bytes: 150 << 20},
		{At: 300, App: "app", Bytes: 0},
	})

	m.Tick()
	if m.ExternalBytes() != 0 {
		t.Fatal("trace applied early")
	}
	clk.Advance(100)
	m.Tick()
	if m.ExternalBytes() != 50<<20 {
		t.Fatalf("at t=100: %d", m.ExternalBytes())
	}
	clk.Advance(100)
	m.Tick()
	if m.ExternalBytes() != 150<<20 {
		t.Fatalf("at t=200: %d", m.ExternalBytes())
	}
	clk.Advance(100)
	m.Tick()
	if m.ExternalBytes() != 0 {
		t.Fatalf("at t=300: %d", m.ExternalBytes())
	}
}

func TestTraceUnsortedInput(t *testing.T) {
	clk := vclock.New()
	m := New(clk, 256<<20, func() int64 { return 0 })
	m.LoadTrace([]TraceStep{
		{At: 200, App: "b", Bytes: 2},
		{At: 100, App: "a", Bytes: 1},
	})
	clk.Advance(150)
	m.Tick()
	if m.ExternalBytes() != 1 {
		t.Fatalf("unsorted trace mis-applied: %d", m.ExternalBytes())
	}
}

func TestSetPoolFuncLate(t *testing.T) {
	clk := vclock.New()
	m := New(clk, 256<<20, nil)
	if m.WorkingSet() != 0 {
		t.Fatal("nil pool func should read as 0")
	}
	m.SetPoolFunc(func() int64 { return 10 << 20 })
	if m.WorkingSet() != 10<<20 {
		t.Fatal("SetPoolFunc not effective")
	}
	if m.totalRAM != 256<<20 {
		t.Fatal("TotalRAM")
	}
}
