package exec

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"anywheredb/internal/val"
)

// refValue is the value a generator byte stands for: NULL, a small INT, the
// DOUBLE equal to such an INT (1 vs 1.0: one group, one DISTINCT value), a
// DOUBLE between them, or a STR. Sums of these are exact in any order, so a
// result does not depend on where the fallback split a group.
func refValue(b byte) val.Value {
	n := int64(b >> 3)
	switch b % 5 {
	case 1:
		return val.NewInt(n)
	case 2:
		return val.NewDouble(float64(n))
	case 3:
		return val.NewDouble(float64(n) + 0.25)
	case 4:
		return val.NewStr(fmt.Sprintf("s%d", n))
	}
	return val.Null
}

// refGroupBy is what GROUP BY keys computes aggs to, written from SQL's
// semantics rather than from HashGroupBy's state: a group per key under
// NULL = NULL and 1 = 1.0, in first-seen order; the non-NULL argument values
// of each aggregate (the first of each equal set for DISTINCT), folded at
// the end.
func refGroupBy(in []Row, keys []int, aggs []AggSpec) []Row {
	type group struct {
		key  Row
		rows int64
		args [][]val.Value
		seen []map[string]bool
	}
	byKey := map[string]*group{}
	var order []*group
	for _, r := range in {
		key := make(Row, len(keys))
		for i, k := range keys {
			key[i] = r[k]
		}
		enc := string(val.EncodeKey(key))
		g := byKey[enc]
		if g == nil {
			g = &group{key: key, args: make([][]val.Value, len(aggs)), seen: make([]map[string]bool, len(aggs))}
			byKey[enc] = g
			order = append(order, g)
		}
		g.rows++
		for a, spec := range aggs {
			if spec.Arg == nil {
				continue
			}
			v := r[spec.Arg.(Col).Idx]
			if v.IsNull() {
				continue
			}
			if spec.Distinct {
				if g.seen[a] == nil {
					g.seen[a] = map[string]bool{}
				}
				enc := string(val.EncodeKey([]val.Value{v}))
				if g.seen[a][enc] {
					continue
				}
				g.seen[a][enc] = true
			}
			g.args[a] = append(g.args[a], v)
		}
	}
	if len(keys) == 0 && len(order) == 0 {
		order = append(order, &group{args: make([][]val.Value, len(aggs))})
	}
	var out []Row
	for _, g := range order {
		row := append(Row(nil), g.key...)
		for a, spec := range aggs {
			vs := g.args[a]
			var res val.Value
			switch spec.Fn {
			case AggCountStar:
				res = val.NewInt(g.rows)
			case AggCount:
				res = val.NewInt(int64(len(vs)))
			case AggSum, AggAvg:
				if len(vs) == 0 {
					break
				}
				var sumI int64
				var sumF float64
				ints := true
				for _, v := range vs {
					ints = ints && v.Kind == val.KInt
					sumI += v.I
					sumF += v.AsFloat()
				}
				switch {
				case spec.Fn == AggAvg:
					res = val.NewDouble(sumF / float64(len(vs)))
				case ints:
					res = val.NewInt(sumI)
				default:
					res = val.NewDouble(sumF)
				}
			case AggMin, AggMax:
				for i, v := range vs {
					c := val.Compare(v, res)
					if i == 0 || (spec.Fn == AggMin && c < 0) || (spec.Fn == AggMax && c > 0) {
						res = v
					}
				}
			}
			row = append(row, res)
		}
		out = append(out, row)
	}
	return out
}

// checkGroupBy runs HashGroupBy over in and compares it with refGroupBy:
// the same rows, in first-seen order unless the fallback engaged (its
// groups come back in key order). Where the fallback merged a group's
// partial states, a MIN or MAX among equal values of different kinds (1 and
// 1.0) may be either, so those compare as values.
func checkGroupBy(t testing.TB, ctx *Ctx, in []Row, keys []int, aggs []AggSpec) *HashGroupBy {
	t.Helper()
	g := &HashGroupBy{Input: rowsOp(in...), Aggs: aggs}
	for _, k := range keys {
		g.Keys = append(g.Keys, Col{Idx: k})
	}
	got := drain(t, ctx, g)
	want := refGroupBy(in, keys, aggs)
	if len(got) != len(want) {
		t.Fatalf("%d groups, want %d", len(got), len(want))
	}
	keyOf := func(r Row) string { return string(val.EncodeKey(r[:len(keys)])) }
	if g.FellBack() {
		for _, rows := range [][]Row{got, want} {
			slices.SortFunc(rows, func(a, b Row) int { return strings.Compare(keyOf(a), keyOf(b)) })
		}
	}
	for i := range got {
		if keyOf(got[i]) != keyOf(want[i]) {
			t.Fatalf("group %d has key %v, want %v", i, got[i][:len(keys)], want[i][:len(keys)])
		}
		for a, spec := range aggs {
			x, y := got[i][len(keys)+a], want[i][len(keys)+a]
			same := x.Kind == y.Kind && val.Compare(x, y) == 0
			if g.FellBack() && (spec.Fn == AggMin || spec.Fn == AggMax) {
				same = string(val.EncodeKey([]val.Value{x})) == string(val.EncodeKey([]val.Value{y}))
			}
			if !same {
				t.Fatalf("group %v aggregate %d (fn %d distinct %v): %v (%v), want %v (%v)",
					got[i][:len(keys)], a, spec.Fn, spec.Distinct, x, x.Kind, y, y.Kind)
			}
		}
	}
	return g
}

// allAggs is every aggregate over column arg, DISTINCT or not.
func allAggs(arg int, distinct bool) []AggSpec {
	aggs := []AggSpec{{Fn: AggCountStar}}
	for _, fn := range []AggFn{AggCount, AggSum, AggMin, AggMax, AggAvg} {
		aggs = append(aggs, AggSpec{Fn: fn, Arg: Col{Idx: arg}, Distinct: distinct})
	}
	return aggs
}

// TestGroupByAgainstReference: seeded rows with INT, DOUBLE, STR and NULL
// keys (1 and 1.0 among them) grouped on one to three keys, every aggregate
// with and without DISTINCT, at batch sizes 1, 7 and adaptive, agree with
// refGroupBy — both with memory to spare and under a governor squeeze that
// forces the low-memory fallback in the middle of the input (which a
// DISTINCT aggregate refuses, so those keep every group in memory).
func TestGroupByAgainstReference(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	const n = 2000
	in := make([]Row, n)
	for i := range in {
		in[i] = Row{refValue(byte(rng.Intn(256))), refValue(byte(rng.Intn(256))), refValue(byte(rng.Intn(256))), refValue(byte(rng.Intn(256)))}
	}
	for _, keys := range [][]int{{0}, {0, 1}, {0, 1, 2}} {
		for _, distinct := range []bool{false, true} {
			aggs := append(allAggs(3, distinct), AggSpec{Fn: AggMax, Arg: Col{Idx: 0}})
			for _, squeeze := range []bool{false, true} {
				for _, size := range []int{1, 7, 0} {
					t.Run(fmt.Sprintf("keys=%d/distinct=%v/squeeze=%v/batch=%d", len(keys), distinct, squeeze, size), func(t *testing.T) {
						ctx, _ := testCtx(t, 256)
						ctx.ForceBatchSize = size
						if !squeeze {
							g := checkGroupBy(t, ctx, in, keys, aggs)
							if g.FellBack() {
								t.Fatal("fell back with no governor")
							}
							return
						}
						task := governed(t, ctx, 1)
						g := checkGroupBy(t, ctx, in, keys, aggs)
						settled(t, ctx, task)
						if g.FellBack() == distinct {
							t.Fatalf("fell back %v with DISTINCT %v", g.FellBack(), distinct)
						}
					})
				}
			}
		}
	}
}

// TestGlobalGroupByAgainstReference: with no keys, one group — also over
// no rows at all, where every aggregate is its identity.
func TestGlobalGroupByAgainstReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	in := make([]Row, 500)
	for i := range in {
		in[i] = Row{refValue(byte(rng.Intn(256)))}
	}
	for _, rows := range [][]Row{in, nil} {
		for _, distinct := range []bool{false, true} {
			ctx, _ := testCtx(t, 64)
			checkGroupBy(t, ctx, rows, nil, allAggs(0, distinct))
		}
	}
}

// FuzzGroupBy: rows the fuzzer chooses, two bytes a row (key, argument),
// grouped by HashGroupBy agree with refGroupBy; the first byte picks the
// batch size and whether a governor squeeze forces the fallback.
func FuzzGroupBy(f *testing.F) {
	f.Add([]byte{0x00, 1, 9, 2, 9, 1, 17, 0, 0, 4, 4})
	f.Add([]byte{0x83, 1, 1, 2, 2, 3, 3, 4, 4, 0, 0, 11, 12, 13, 14})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 || len(data) > 4001 {
			return
		}
		ctx, _ := testCtx(t, 256)
		ctx.ForceBatchSize = []int{0, 1, 7}[int(data[0]&3)%3]
		if data[0]&0x80 != 0 {
			task := governed(t, ctx, 1)
			defer settled(t, ctx, task)
		}
		var in []Row
		for rest := data[1:]; len(rest) >= 2; rest = rest[2:] {
			in = append(in, Row{refValue(rest[0]), refValue(rest[1])})
		}
		checkGroupBy(t, ctx, in, []int{0}, allAggs(1, data[0]&0x40 != 0))
	})
}

// TestChainIndexSharedHash: entries that share a hash are one chain, walked
// newest first, and HashGroupBy tells groups on one chain apart by key.
func TestChainIndexSharedHash(t *testing.T) {
	var c chainIndex
	for i := 0; i < 5; i++ {
		c.add(42)
	}
	c.add(7)
	var chain []int32
	for i := c.first(42); i >= 0; i = c.next[i] {
		chain = append(chain, i)
	}
	if !slices.Equal(chain, []int32{4, 3, 2, 1, 0}) {
		t.Fatalf("chain of 42: %v", chain)
	}
	if c.first(7) != 5 || c.next[5] != -1 || c.first(99) != -1 {
		t.Fatalf("first(7) %d, next %d, first(99) %d", c.first(7), c.next[5], c.first(99))
	}
	c.reset()
	if c.first(42) != -1 || len(c.next) != 0 {
		t.Fatal("reset kept entries")
	}

	// Twenty keys, every one under hash 0: each is found as its own group,
	// across the growths from 8 to 16 to 32.
	g := &HashGroupBy{Keys: []Expr{Col{Idx: 0}}, key: make(Row, 1)}
	keyOf := func(i int) val.Value {
		if i%2 == 0 {
			return val.NewInt(int64(i))
		}
		return val.NewStr(fmt.Sprint(i))
	}
	for i := 0; i < 20; i++ {
		g.key[0] = keyOf(i)
		if got := g.find(0); got != -1 {
			t.Fatalf("key %v found as group %d before it was born", g.key[0], got)
		}
		if got := g.birth(0); got != i {
			t.Fatalf("key %v born as group %d", g.key[0], got)
		}
	}
	for i := 0; i < 20; i++ {
		g.key[0] = keyOf(i)
		if got := g.find(0); got != i {
			t.Fatalf("key %v found as group %d, want %d", g.key[0], got, i)
		}
	}
	if g.nGroups != 20 || g.capacity != 32 {
		t.Fatalf("%d groups in a table of %d", g.nGroups, g.capacity)
	}
}

// TestHashDistinctAgainstReference: duplicates spread across input batches,
// NULL rows and 1 vs 1.0 come out once each, in first-seen order, at batch
// sizes 1, 7 and adaptive.
func TestHashDistinctAgainstReference(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	in := make([]Row, 3000)
	for i := range in {
		in[i] = Row{refValue(byte(rng.Intn(256))), refValue(byte(rng.Intn(40)))}
	}
	var want []string
	seen := map[string]bool{}
	for _, r := range in {
		if k := string(val.EncodeKey(r)); !seen[k] {
			seen[k] = true
			want = append(want, k)
		}
	}
	for _, size := range []int{1, 7, 0} {
		ctx, _ := testCtx(t, 64)
		ctx.ForceBatchSize = size
		got := drain(t, ctx, &HashDistinct{Input: rowsOp(in...)})
		if len(got) != len(want) {
			t.Fatalf("batch %d: %d rows, want %d", size, len(got), len(want))
		}
		for i, r := range got {
			if string(val.EncodeKey(r)) != want[i] {
				t.Fatalf("batch %d: row %d is %v", size, i, r)
			}
		}
	}
}

// TestGroupByAllocationCeiling: BenchmarkExecBatch's agg pipeline — 1 000
// groups over 100 000 rows, COUNT(*) — allocates columns that double from 8
// groups and one slab per output batch, not objects per group. It measured
// 69 objects per execution (6 054 with an object per group and per result
// row).
func TestGroupByAllocationCeiling(t *testing.T) {
	src := make([]Row, 100000)
	for i := range src {
		src[i] = Row{val.NewInt(int64(i)), val.NewInt(int64(i % 1000))}
	}
	ctx, _ := testCtx(t, 64)
	objects := testing.AllocsPerRun(5, func() {
		g := &HashGroupBy{Input: rowsOp(src...), Keys: []Expr{Col{Idx: 1}}, Aggs: []AggSpec{{Fn: AggCountStar}}}
		if err := g.Open(ctx); err != nil {
			t.Fatal(err)
		}
		var b Batch
		for rows := 0; ; rows += b.Len() {
			if err := g.NextBatch(ctx, &b); err != nil {
				t.Fatal(err)
			}
			if b.Len() == 0 {
				if rows != 1000 {
					t.Fatalf("%d groups", rows)
				}
				break
			}
		}
		if err := g.Close(ctx); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%.0f objects per execution", objects)
	if objects > 200 {
		t.Errorf("1 000 groups allocate %.0f objects per execution, want at most 200", objects)
	}
}
