package workload

import (
	"math/rand"
	"testing"

	"anywheredb/internal/buffer"
	"anywheredb/internal/store"
	"anywheredb/internal/table"
	"anywheredb/internal/val"
)

func TestGeneratorsDeterministic(t *testing.T) {
	mk := func() []val.Value {
		st, _ := store.Open(store.Options{})
		defer st.Close()
		pool := buffer.New(st, 4, 256, 256)
		tbl, err := table.Create(pool, st, store.MainFile, 1, "t", []table.Column{
			{Name: "a", Kind: val.KInt},
			{Name: "b", Kind: val.KInt},
			{Name: "c", Kind: val.KStr},
			{Name: "d", Kind: val.KDouble},
		})
		if err != nil {
			t.Fatal(err)
		}
		specs := []ColSpec{
			{Name: "a", Kind: val.KInt, Gen: IntSeq()},
			{Name: "b", Kind: val.KInt, Gen: IntUniform(100)},
			{Name: "c", Kind: val.KStr, Gen: StrChoice("x", "y", "z")},
			{Name: "d", Kind: val.KDouble, Gen: func(rng *rand.Rand, _ int) val.Value {
				return val.NewDouble(rng.Float64() * 10)
			}},
		}
		if err := Fill(tbl, specs, 200, 42); err != nil {
			t.Fatal(err)
		}
		var out []val.Value
		tbl.Scan(func(_ table.RID, row []val.Value) (bool, error) {
			out = append(out, row...)
			return true, nil
		})
		return out
	}
	a, b := mk(), mk()
	if len(a) != len(b) || len(a) != 800 {
		t.Fatalf("lengths %d %d", len(a), len(b))
	}
	for i := range a {
		if val.Compare(a[i], b[i]) != 0 {
			t.Fatalf("nondeterministic at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestIntGenerators(t *testing.T) {
	seq := IntSeq()
	if seq(nil, 5).I != 5 || seq(nil, 0).I != 0 {
		t.Fatal("IntSeq")
	}
}

func TestPressureTrace(t *testing.T) {
	steps := PressureTrace("app", 100, 400, 1000, 2)
	if len(steps) != 8 {
		t.Fatalf("steps %d", len(steps))
	}
	if steps[1].Bytes != 1000 || steps[1].At != 200 {
		t.Fatalf("peak step %+v", steps[1])
	}
	if steps[3].Bytes != 0 {
		t.Fatal("release step")
	}
	// Second cycle offset by the period.
	if steps[4].At != 500 {
		t.Fatalf("cycle 2 start %d", steps[4].At)
	}
}
