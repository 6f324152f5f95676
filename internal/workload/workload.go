// Package workload generates the synthetic data and workloads used by the
// experiments: uniform column distributions, star and chain join
// schemas, OLTP statement mixes, and memory-pressure traces. Everything is
// seeded and deterministic.
package workload

import (
	"math/rand"

	"anywheredb/internal/osenv"
	"anywheredb/internal/table"
	"anywheredb/internal/val"
	"anywheredb/internal/vclock"
)

// Rows produces n rows for the given column specs.
type ColSpec struct {
	Name string
	Kind val.Kind
	// Gen produces the i-th value.
	Gen func(rng *rand.Rand, i int) val.Value
}

// IntSeq yields sequential integers (a key column).
func IntSeq() func(*rand.Rand, int) val.Value {
	return func(_ *rand.Rand, i int) val.Value { return val.NewInt(int64(i)) }
}

// IntUniform yields uniform integers over [0, domain).
func IntUniform(domain int64) func(*rand.Rand, int) val.Value {
	return func(rng *rand.Rand, _ int) val.Value { return val.NewInt(rng.Int63n(domain)) }
}

// StrChoice picks uniformly from fixed strings.
func StrChoice(choices ...string) func(*rand.Rand, int) val.Value {
	return func(rng *rand.Rand, _ int) val.Value {
		return val.NewStr(choices[rng.Intn(len(choices))])
	}
}

// Fill populates a table with n generated rows.
func Fill(tbl *table.Table, specs []ColSpec, n int, seed int64) error {
	rng := rand.New(rand.NewSource(seed))
	row := make([]val.Value, len(specs))
	for i := 0; i < n; i++ {
		for c, spec := range specs {
			row[c] = spec.Gen(rng, i)
		}
		if _, err := tbl.Insert(nil, row); err != nil {
			return err
		}
	}
	return nil
}

// PressureTrace builds a memory-pressure script for the E1/E16 cache
// governor experiments: a competing application that ramps up, holds, and
// releases, repeated with the given period.
func PressureTrace(app string, start, period vclock.Micros, peak int64, cycles int) []osenv.TraceStep {
	var steps []osenv.TraceStep
	at := start
	for c := 0; c < cycles; c++ {
		steps = append(steps,
			osenv.TraceStep{At: at, App: app, Bytes: peak / 2},
			osenv.TraceStep{At: at + period/4, App: app, Bytes: peak},
			osenv.TraceStep{At: at + period/2, App: app, Bytes: peak / 4},
			osenv.TraceStep{At: at + 3*period/4, App: app, Bytes: 0},
		)
		at += period
	}
	return steps
}
