package experiments

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strings"
	"time"

	"anywheredb/internal/exec"
	"anywheredb/internal/table"
	"anywheredb/internal/val"
	"anywheredb/internal/workload"
)

// E22: columnar batch-native storage segments with zone-map predicate
// skipping. A 10M-row fact table is scanned and filtered twice — once
// through the row heap, once through sealed column segments — and the
// speedup, the fraction of segments the zone maps skipped, and the
// bit-identity of every result (filters, a join, an aggregate, all with a
// non-empty delta tail) are reported.

const (
	e22Rows  = 10_000_000
	e22Delta = 20_000
)

// E22ColumnarScan runs the full-size experiment.
func E22ColumnarScan() (*Report, error) { return e22Run(e22Rows, e22Delta) }

// e22Run is the scalable core; tests drive it at a reduced size. The pool
// is sized so the fact table stays RAM-resident: the comparison measures
// decode/skip efficiency against an in-memory heap scan, not buffer-pool
// thrash (the segments live in RAM either way).
func e22Run(n, deltaN int) (*Report, error) {
	frames := n/24 + 4096 // ~96 rows per 4K heap page, plus headroom
	r, err := newRawRig(frames)
	if err != nil {
		return nil, err
	}
	defer r.close()

	specs := []workload.ColSpec{
		{Name: "id", Kind: val.KInt, Gen: workload.IntSeq()},
		{Name: "cat", Kind: val.KStr, Gen: workload.StrChoice("ask", "bid", "hold", "sweep")},
		{Name: "v", Kind: val.KInt, Gen: workload.IntUniform(1 << 20)},
	}
	tbl, err := r.table("fact", 1, n, specs, 22)
	if err != nil {
		return nil, err
	}

	// The acceptance criterion reads the skip count back from the executor's
	// tally, which the engine publishes as colseg.segments_skipped.
	ctx := *r.ctx
	ctx.Did = exec.Tally{}

	probe := val.NewInt(int64(n / 2))
	mkScan := func(columnar, zone bool) *exec.TableScan {
		s := &exec.TableScan{Table: tbl, ZoneCol: -1, NoColumnar: !columnar}
		if zone {
			s.ZoneCol, s.ZoneOp, s.ZoneConst = 0, "=", exec.Const{V: probe}
		}
		return s
	}
	withFilter := func(scan *exec.TableScan) exec.Operator {
		return &exec.Filter{Input: scan, Pred: exec.Cmp{Op: "=", L: exec.Col{Idx: 0}, R: exec.Const{V: probe}}}
	}
	measure := func(op exec.Operator) (time.Duration, int, error) {
		best := time.Duration(1 << 62)
		nrows := 0
		for i := 0; i < 3; i++ {
			start := time.Now()
			rows, err := exec.Drain(&ctx, op)
			if err != nil {
				return 0, 0, err
			}
			if d := time.Since(start); d < best {
				best = d
			}
			nrows = len(rows)
		}
		return best, nrows, nil
	}

	heapT, heapN, err := measure(withFilter(mkScan(false, false)))
	if err != nil {
		return nil, err
	}

	if _, err := tbl.BuildColumnar(nil, false); err != nil {
		return nil, err
	}
	// Grow a delta tail after the build: every later measurement and the
	// whole differential suite runs segments + tail merged.
	if err := workload.Fill(tbl, specs, deltaN, 1022); err != nil {
		return nil, err
	}

	// Columnar with the zone-map hint: the selective point predicate
	// should prune all but one segment.
	zoneScan := mkScan(true, true)
	colT, colN, err := measure(withFilter(zoneScan))
	if err != nil {
		return nil, err
	}
	segsTotal, segsSkipped, _ := zoneScan.SegmentStats()
	// Columnar without the hint: every segment decodes; the remaining
	// advantage is the batch decode loops alone.
	decodeT, _, err := measure(withFilter(mkScan(true, false)))
	if err != nil {
		return nil, err
	}

	diffOK, diffDetail, err := e22Differential(&ctx, tbl, n)
	if err != nil {
		return nil, err
	}

	skipped, decoded := ctx.Did.SegsSkipped, ctx.Did.DecodedRows
	skipFrac := 0.0
	if segsTotal > 0 {
		skipFrac = float64(segsSkipped) / float64(segsTotal)
	}

	var sb strings.Builder
	fmt.Fprintf(&sb, "rows=%d delta=%d segments=%d\n", n, deltaN, segsTotal)
	sb.WriteString("path               scan+filter  rows\n")
	fmt.Fprintf(&sb, "row heap           %9.1fms  %4d\n", ms(heapT), heapN)
	fmt.Fprintf(&sb, "columnar (zone)    %9.1fms  %4d\n", ms(colT), colN)
	fmt.Fprintf(&sb, "columnar (full)    %9.1fms  %4d\n", ms(decodeT), colN)
	fmt.Fprintf(&sb, "zone maps skipped %d/%d segments (%.1f%%); tally skipped=%d decode_rows=%d\n",
		segsSkipped, segsTotal, 100*skipFrac, skipped, decoded)
	fmt.Fprintf(&sb, "differential (filters, join, aggregate; delta tail live): %s\n", diffDetail)

	return &Report{
		ID:    "E22",
		Title: "Columnar segment scan with zone-map predicate skipping",
		Table: sb.String(),
		Metrics: map[string]float64{
			"speedup_zone":      float64(heapT) / float64(colT),
			"speedup_decode":    float64(heapT) / float64(decodeT),
			"skip_frac":         skipFrac,
			"segments":          float64(segsTotal),
			"telemetry_skipped": float64(skipped),
			"differential_ok":   b2f(diffOK),
			"heap_ms":           ms(heapT),
			"columnar_zone_ms":  ms(colT),
			"columnar_full_ms":  ms(decodeT),
		},
	}, nil
}

func ms(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }

// e22Differential proves bit-identity between the columnar and heap scan
// paths across filters (with zone hints active, so skipping itself is
// under test), a hash join, and a grouped aggregate. Filter and join
// output order is the heap chain order on both paths and is compared
// in-order; group-by output is canonicalized by sorting.
func e22Differential(ctx *exec.Ctx, tbl *table.Table, n int) (bool, string, error) {
	scan := func(heap bool, zoneOp string, zoneK val.Value) *exec.TableScan {
		s := &exec.TableScan{Table: tbl, ZoneCol: -1, NoColumnar: heap}
		if zoneOp != "" {
			s.ZoneCol, s.ZoneOp, s.ZoneConst = 0, zoneOp, exec.Const{V: zoneK}
		}
		return s
	}
	filt := func(heap bool, op string, k val.Value) exec.Operator {
		return &exec.Filter{Input: scan(heap, op, k),
			Pred: exec.Cmp{Op: op, L: exec.Col{Idx: 0}, R: exec.Const{V: k}}}
	}
	probe := val.NewInt(int64(n / 2))
	hi := val.NewInt(int64(n - n/64))
	lo := val.NewInt(int64(n / 128))
	cases := []struct {
		name   string
		build  func(heap bool) exec.Operator
		sorted bool
	}{
		{"filter_eq", func(h bool) exec.Operator { return filt(h, "=", probe) }, false},
		{"filter_ge", func(h bool) exec.Operator { return filt(h, ">=", hi) }, false},
		{"filter_lt", func(h bool) exec.Operator { return filt(h, "<", lo) }, false},
		{"filter_ne", func(h bool) exec.Operator { return filt(h, "<>", probe) }, false},
		{"join", func(h bool) exec.Operator {
			keys := make([]exec.Row, 512)
			for i := range keys {
				keys[i] = exec.Row{val.NewInt(int64(i * (n / 512)))}
			}
			return &exec.HashJoin{
				Left:     &exec.Materialized{RowsData: keys},
				Right:    scan(h, "", val.Null),
				LeftKeys: []exec.Expr{exec.Col{Idx: 0}}, RightKeys: []exec.Expr{exec.Col{Idx: 0}},
			}
		}, false},
		{"agg_group", func(h bool) exec.Operator {
			return &exec.HashGroupBy{
				Input: scan(h, "", val.Null),
				Keys:  []exec.Expr{exec.Col{Idx: 1}},
				Aggs: []exec.AggSpec{
					{Fn: exec.AggCountStar},
					{Fn: exec.AggSum, Arg: exec.Col{Idx: 2}},
				},
			}
		}, true},
	}
	var notes []string
	ok := true
	for _, tc := range cases {
		colRows, err := exec.Drain(ctx, tc.build(false))
		if err != nil {
			return false, "", err
		}
		colN, colH := rowsFingerprint(colRows, tc.sorted)
		heapRows, err := exec.Drain(ctx, tc.build(true))
		if err != nil {
			return false, "", err
		}
		heapN, heapH := rowsFingerprint(heapRows, tc.sorted)
		match := colN == heapN && colH == heapH
		if !match {
			ok = false
		}
		notes = append(notes, fmt.Sprintf("%s=%v(%d rows)", tc.name, match, colN))
	}
	return ok, strings.Join(notes, " "), nil
}

// rowsFingerprint reduces a result set to (count, content hash) using the
// engine's canonical row encoding, optionally order-insensitive.
func rowsFingerprint(rows []exec.Row, sorted bool) (int, uint64) {
	if sorted {
		enc := make([]string, len(rows))
		for i, r := range rows {
			enc[i] = string(val.EncodeRow(r))
		}
		sort.Strings(enc)
		h := fnv.New64a()
		for _, e := range enc {
			h.Write([]byte(e))
		}
		return len(rows), h.Sum64()
	}
	h := fnv.New64a()
	for _, r := range rows {
		h.Write(val.EncodeRow(r))
	}
	return len(rows), h.Sum64()
}
