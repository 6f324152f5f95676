package opt

import (
	"math"

	"anywheredb/internal/dtt"
	"anywheredb/internal/exec"
	"anywheredb/internal/page"
	"anywheredb/internal/table"
)

// Env supplies the optimizer's environment: the DTT model, buffer pool
// state, the memory governor's predicted soft limit, and knobs for the
// experiment ablations.
type Env struct {
	DTT      *dtt.Model
	PageSize int
	// PoolPages reports the current buffer pool size (pages); the
	// optimizer takes the server state into account when choosing plans.
	PoolPages func() int
	// SoftLimitPages is the memory governor's predicted soft limit for the
	// statement (Eq. 5), used to annotate memory-intensive operators.
	SoftLimitPages func() int
	// CPURowCostUS is the CPU proxy cost per row in virtual microseconds;
	// it must match exec.Ctx.CPURowCost for Eq. 3 concordance.
	CPURowCostUS float64
	// CPUBatchCostUS prices the per-batch dispatch overhead of the vectored
	// executor (one NextBatch interface call, one stat sample, one governor
	// re-read per batch). Amortized over BatchRows it is a fraction of a
	// percent of the per-row cost, but it keeps the proxy honest for plans
	// whose operators emit many near-empty batches.
	CPUBatchCostUS float64
	// BatchRows is the modeled rows-per-batch (the executor's default; the
	// true value adapts to the governor at run time).
	BatchRows float64

	// Quota is the optimizer governor's initial visit quota (0 = default).
	// The paper permits applications to set it per statement.
	Quota int
	// DisableGovernor removes the quota (E8 ablation).
	DisableGovernor bool
	// DisablePruning turns off branch-and-bound pruning (E8 ablation).
	DisablePruning bool
	// NoRedistribution disables the ≥20%-improvement quota redistribution
	// (E8 ablation).
	NoRedistribution bool

	// Property resolves PROPERTY('name') calls against the engine's
	// telemetry registry. nil disables the builtin (standalone opt tests).
	Property func(name string) (int64, bool)
}

// NewEnv returns e with its defaults filled in: an Env to be shared between
// concurrent builds, which then only read it.
func NewEnv(e Env) *Env {
	e.fill()
	return &e
}

func (e *Env) fill() {
	if e.PageSize == 0 {
		e.PageSize = page.Size
	}
	if e.CPURowCostUS == 0 {
		e.CPURowCostUS = 1
	}
	if e.CPUBatchCostUS == 0 {
		e.CPUBatchCostUS = 4
	}
	if e.BatchRows == 0 {
		e.BatchRows = exec.DefaultBatchSize
	}
	if e.Quota == 0 {
		e.Quota = 4000
	}
	if e.PoolPages == nil {
		e.PoolPages = func() int { return 256 }
	}
	if e.SoftLimitPages == nil {
		e.SoftLimitPages = func() int { return 64 }
	}
}

// DefaultQuota is exported for tests and ablations.
const DefaultQuota = 4000

// cpuCost prices processing rows through one operator level under the
// batch protocol: a per-row term plus the amortized per-batch overhead.
func (e *Env) cpuCost(rows float64) float64 {
	if rows <= 0 {
		return 0
	}
	return rows*e.CPURowCostUS + math.Ceil(rows/e.BatchRows)*e.CPUBatchCostUS
}

// residentBoost implements the paper's optimistic intermediate-result
// metric: assume half the buffer pool is available for each quantifier, so
// an inner table re-scanned in a loop is effectively resident up to that
// allowance. "Clearly this is nonsense with any join degree greater than
// 1... the point is to prune grossly inefficient strategies quickly."
func (e *Env) residentBoost(actualResident float64, tablePages float64) float64 {
	half := float64(e.PoolPages()) / 2
	opt := math.Min(1, half/math.Max(tablePages, 1))
	return math.Max(actualResident, opt)
}

// colSegRowCostFactor is the per-row CPU of the columnar batch decode
// loops relative to the heap scan's per-row slot walk + varint decode.
const colSegRowCostFactor = 0.25

// colScanCost prices a scan over a table's columnar segments. The segment
// snapshot is memory-resident once attached, so the heap's page-I/O term
// vanishes; bulk decode costs a fraction of the heap per-row CPU; and zone
// maps let the scan skip whole segments whose [min,max] excludes the
// predicate, modeled by scaling decoded rows by the local selectivity
// (floored at one segment: a matching value always decodes its segment).
// The delta tail is unaccounted — it is small by construction (the
// reorganizer rebuilds when it grows) and shrinking its cost to zero never
// flips a plan choice the wrong way.
func (e *Env) colScanCost(t *table.Table, sel float64) float64 {
	rows := float64(t.RowCount())
	segs := math.Max(float64(t.SegmentCount()), 1)
	frac := math.Min(math.Max(sel, 1/segs), 1)
	return e.cpuCost(rows*frac) * colSegRowCostFactor
}

// seqScanCost is the I/O+CPU cost of one full sequential scan. Tables with
// a columnar snapshot are priced as segment scans (no predicate context
// here, so no zone skipping is assumed).
func (e *Env) seqScanCost(t *table.Table, repeated bool) float64 {
	if t.SegmentCount() > 0 {
		return e.colScanCost(t, 1)
	}
	pages := float64(t.PageCount())
	res := t.ResidentFraction()
	if repeated {
		res = e.residentBoost(res, pages)
	}
	io := pages * (1 - res) * e.DTT.Cost(dtt.Read, e.PageSize, 1)
	cpu := e.cpuCost(float64(t.RowCount()))
	return io + cpu
}

// indexProbeCost is the cost of one index probe returning matchRows rows.
func (e *Env) indexProbeCost(t *table.Table, ix *table.Index, matchRows float64) float64 {
	tablePages := math.Max(float64(t.PageCount()), 1)
	leafPages := math.Max(float64(ix.Tree.Stats.LeafPages.Load()), 1)
	height := math.Max(float64(ix.Tree.Stats.Height.Load()), 1)
	res := e.residentBoost(t.ResidentFraction(), tablePages)

	// Descend the tree: random reads within the index's band.
	descend := height * e.DTT.Cost(dtt.Read, e.PageSize, int64(leafPages)) * 0.5
	// Fetch matching rows: clustering determines how many distinct table
	// pages are touched; unclustered fetches are random within the table.
	clustering := ix.Tree.Stats.Clustering()
	pagesTouched := matchRows*(1-clustering) + math.Min(matchRows, matchRows/16+1)*clustering
	fetch := pagesTouched * (1 - res) * e.DTT.Cost(dtt.Read, e.PageSize, int64(tablePages))
	cpu := height*e.CPURowCostUS + e.cpuCost(matchRows)
	return descend + fetch + cpu
}

// spillPenalty estimates extra I/O when a hash operation overflows the
// memory governor's predicted soft limit: the overflow fraction is written
// to and re-read from the temporary file.
func (e *Env) spillPenalty(buildRows, bytesPerRow float64) float64 {
	soft := float64(e.SoftLimitPages())
	buildPages := buildRows * bytesPerRow / float64(e.PageSize)
	if buildPages <= soft {
		return 0
	}
	overflow := buildPages - soft
	return overflow * (e.DTT.Cost(dtt.Write, e.PageSize, 64) + e.DTT.Cost(dtt.Read, e.PageSize, 64))
}

// Method enumerates join methods.
type Method uint8

const (
	MethodScan Method = iota // first quantifier: access only
	MethodHash
	MethodINL
	MethodNLJ
)

func (m Method) String() string {
	switch m {
	case MethodScan:
		return "scan"
	case MethodHash:
		return "hash"
	case MethodINL:
		return "inl"
	case MethodNLJ:
		return "nlj"
	}
	return "?"
}

// Step is one placed quantifier in a left-deep strategy: the (quantifier,
// index, join method) 3-tuple of §4.1.
type Step struct {
	Quant  int
	Method Method
	Index  *table.Index // access or probe index; nil = sequential
}

// stepCost prices placing quantifier qi by the given method after an
// intermediate result of leftCard rows; returns (cost, resulting
// cardinality).
func (e *Env) stepCost(q *Query, placed map[int]bool, leftCard float64, st Step) (float64, float64) {
	qt := q.Quants[st.Quant]
	localCard := q.LocalCardinality(st.Quant)
	if st.Method == MethodScan {
		// First quantifier.
		if qt.Table == nil {
			return e.cpuCost(float64(len(qt.Rows))), math.Max(localCard, 1)
		}
		if st.Index != nil {
			return e.indexProbeCost(qt.Table, st.Index, localCard), math.Max(localCard, 1)
		}
		if qt.Table.SegmentCount() > 0 {
			// Zone-map skipping: the local predicate's selectivity is
			// the expected fraction of segments that survive pruning.
			sel := 1.0
			if rc := float64(qt.Table.RowCount()); rc > 0 {
				sel = localCard / rc
			}
			return e.colScanCost(qt.Table, sel), math.Max(localCard, 1)
		}
		return e.seqScanCost(qt.Table, false), math.Max(localCard, 1)
	}

	joinSel := q.JoinSelectivityBetween(placed, st.Quant)
	outCard := math.Max(leftCard*localCard*joinSel, 1)
	switch st.Method {
	case MethodHash:
		// Build on the accumulated side, probe with the new quantifier.
		build := e.cpuCost(leftCard) + e.spillPenalty(leftCard, 64)
		var probe float64
		if qt.Table != nil {
			probe = e.seqScanCost(qt.Table, false)
		} else {
			probe = e.cpuCost(float64(len(qt.Rows)))
		}
		return build + probe + e.cpuCost(outCard), outCard
	case MethodINL:
		if qt.Table == nil || st.Index == nil {
			return math.Inf(1), outCard
		}
		matchPerProbe := math.Max(outCard/math.Max(leftCard, 1), 1.0/16)
		return leftCard * e.indexProbeCost(qt.Table, st.Index, matchPerProbe), outCard
	case MethodNLJ:
		var inner float64
		if qt.Table != nil {
			inner = e.seqScanCost(qt.Table, true)
		} else {
			inner = e.cpuCost(float64(len(qt.Rows)))
		}
		// Inner is materialized once; per-outer-row pass is CPU.
		return inner + e.cpuCost(leftCard*localCard), outCard
	}
	return math.Inf(1), outCard
}
