// Package profile implements the Application Profiling toolset of §5 over
// the trace the flight recorder's digest table already keeps (every call
// counted per fingerprint, the first statement of each kept as a sample):
// a database of commonly seen design flaws (client-side joins), and an
// Index Consultant that evaluates virtual (hypothetical) indexes the
// optimizer would like to have. The paper
// captures the trace into a database; here INSERT INTO ... SELECT ... FROM
// sys.statements does that. An engine whose flight recorder is turned off
// (FlightRecorder().SetEnabled(false)) keeps no trace, so there is nothing
// to profile: IndexConsultant fails with ErrNoTrace.
package profile

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"anywheredb/internal/core"
	"anywheredb/internal/exec"
	"anywheredb/internal/flightrec"
	"anywheredb/internal/opt"
	"anywheredb/internal/sqlparse"
	"anywheredb/internal/store"
	"anywheredb/internal/val"
)

// Finding is one detected design flaw or recommendation.
type Finding struct {
	Kind      string // "client-side-join", "locks", "memory", ...
	Detail    string
	Statement string // sqlparse.Fingerprint of the statement, when applicable
	Count     int
}

// ClientSideJoinThreshold is how many identical statements (modulo
// constants) flag a client-side join.
const ClientSideJoinThreshold = 10

// Analyze scans a workload's digests (flightrec.DigestTable.Snapshot) for
// commonly seen design flaws (§5): client-side joins (a SELECT fingerprint
// called many times, the statements differing only by constants).
func Analyze(digests []flightrec.DigestStat) []Finding {
	var out []Finding

	// Client-side joins, most calls first.
	for i := range digests {
		d := &digests[i]
		if d.Calls < ClientSideJoinThreshold || !strings.HasPrefix(d.Fingerprint, "SELECT") {
			continue
		}
		out = append(out, Finding{
			Kind: "client-side-join",
			Detail: fmt.Sprintf("%d statements identical up to a constant; the loop in the "+
				"application would be more efficiently carried out as a single statement (e.g. a join or IN list)", d.Calls),
			Statement: d.Fingerprint,
			Count:     int(d.Calls),
		})
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Count > out[j].Count })
	return out
}

// Recommendation is one Index Consultant proposal.
type Recommendation struct {
	Table       string
	Columns     []string
	CostBefore  float64
	CostAfter   float64
	BenefitFrac float64 // (before-after)/before
}

// MinBenefit is the cost-improvement fraction a virtual index must achieve
// to be recommended.
const MinBenefit = 0.2

// ErrNoTrace is IndexConsultant's answer for a database whose flight
// recorder is off: its digest table records no workload to consult on.
var ErrNoTrace = errors.New("profile: the flight recorder is disabled, so there is no workload trace")

// IndexConsultant evaluates virtual indexes for a workload's SELECT
// digests (flightrec.DigestTable.Snapshot). Each digest's sample is costed
// once and weighted by the digest's call count. It gathers the index
// specifications the optimizer would like to have — columns carrying
// equality predicates or equijoins without a supporting index —
// materializes each as a virtual index in the temporary file, re-optimizes
// the workload, and recommends the ones whose estimated cost improvement
// exceeds MinBenefit (§5). With the flight recorder off it fails with
// ErrNoTrace.
func IndexConsultant(db *core.DB, digests []flightrec.DigestStat) ([]Recommendation, error) {
	if !db.FlightRecorder().Enabled() {
		return nil, ErrNoTrace
	}
	env := &opt.Env{DTT: db.DTTModel(), PoolPages: db.Pool().SizePages}

	// Parse each SELECT sample once. The overflow bucket has no sample.
	var stmts []stmt
	for i := range digests {
		d := &digests[i]
		if d.Fingerprint == flightrec.OverflowFingerprint {
			continue
		}
		parsed, err := sqlparse.Parse(d.SampleSQL)
		if err != nil {
			continue
		}
		if sel, ok := parsed.(*sqlparse.Select); ok {
			stmts = append(stmts, stmt{sel, d.SampleParams, float64(d.Calls)})
		}
	}
	if len(stmts) == 0 {
		return nil, nil
	}

	ctx := &exec.Ctx{Pool: db.Pool(), St: db.Store(), Clk: db.Clock()}
	cost := func() float64 {
		var total float64
		for _, s := range stmts {
			benv := &opt.BuildEnv{Env: env, Res: db, Ctx: ctx, Params: s.params}
			plan, err := opt.Build(s.sel, benv)
			if err != nil {
				continue // statements that no longer bind are skipped
			}
			total += plan.Cost * s.calls
		}
		return total
	}

	before := cost()

	// Candidate specifications: generalized at first (a set of columns),
	// tightened to a physical column order when materialized.
	specs := gatherSpecs(db, stmts)
	var recs []Recommendation
	virtualID := uint64(1 << 40)
	for _, spec := range specs {
		tbl, ok := db.Table(spec.table)
		if !ok {
			continue
		}
		virtualID++
		name := fmt.Sprintf("__virtual_%d", virtualID)
		if _, err := tbl.AddIndexIn(store.TempFile, virtualID, name, spec.cols, false); err != nil {
			continue
		}
		// A statement compiled by the application meanwhile may choose the
		// virtual index: no plan from before or during its life is served.
		db.SchemaChanged()
		after := cost()
		tbl.RemoveIndex(name)
		db.SchemaChanged()
		if before > 0 && (before-after)/before >= MinBenefit {
			var colNames []string
			for _, c := range spec.cols {
				colNames = append(colNames, tbl.Columns[c].Name)
			}
			recs = append(recs, Recommendation{
				Table:       spec.table,
				Columns:     colNames,
				CostBefore:  before,
				CostAfter:   after,
				BenefitFrac: (before - after) / before,
			})
		}
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].BenefitFrac > recs[j].BenefitFrac })
	return recs, nil
}

// stmt is one digest's sample SELECT, with the parameters it ran with and
// the digest's call count.
type stmt struct {
	sel    *sqlparse.Select
	params []val.Value
	calls  float64
}

type indexSpec struct {
	table string
	cols  []int
}

// gatherSpecs walks each statement's bound predicate set collecting the
// virtual index specifications the optimizer would want.
func gatherSpecs(db *core.DB, stmts []stmt) []indexSpec {
	seen := map[string]bool{}
	var out []indexSpec
	for _, s := range stmts {
		q, err := opt.Bind(s.sel, db, nil, s.params)
		if err != nil {
			continue
		}
		for _, spec := range opt.DesiredIndexes(q) {
			key := fmt.Sprintf("%s:%v", spec.TableName, spec.Cols)
			if seen[key] {
				continue
			}
			seen[key] = true
			out = append(out, indexSpec{table: spec.TableName, cols: spec.Cols})
		}
	}
	return out
}
