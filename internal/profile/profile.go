// Package profile implements the Application Profiling toolset of §5: a
// statement tracer capturing all server activity, a database of commonly
// seen design flaws (client-side joins, suspicious option settings), and
// an Index Consultant that evaluates virtual (hypothetical) indexes the
// optimizer would like to have.
package profile

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"anywheredb/internal/core"
	"anywheredb/internal/exec"
	"anywheredb/internal/opt"
	"anywheredb/internal/sqlparse"
	"anywheredb/internal/store"
	"anywheredb/internal/val"
)

// Event is one traced statement.
type Event struct {
	SQL    string
	Params []val.Value
	Micros int64
	Rows   int64
}

// Tracer records statements; it implements core.StatementTracer. Traces
// can be analyzed in process or saved into any database's tables (the
// paper captures the trace over TCP into the same or a separate database;
// here the capture is in-process and SaveTo writes it into a table).
type Tracer struct {
	mu     sync.Mutex
	events []Event
}

// NewTracer returns an empty tracer.
func NewTracer() *Tracer { return &Tracer{} }

// TraceStatement implements core.StatementTracer.
func (t *Tracer) TraceStatement(sql string, params []val.Value, micros, rows int64) {
	t.mu.Lock()
	t.events = append(t.events, Event{
		SQL:    sql,
		Params: append([]val.Value(nil), params...),
		Micros: micros,
		Rows:   rows,
	})
	t.mu.Unlock()
}

// Events snapshots the captured trace.
func (t *Tracer) Events() []Event {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Event(nil), t.events...)
}

// Reset clears the trace.
func (t *Tracer) Reset() {
	t.mu.Lock()
	t.events = nil
	t.mu.Unlock()
}

// SaveTo writes the trace into a table of the given database connection,
// creating it if needed.
func (t *Tracer) SaveTo(conn *core.Conn, tableName string) error {
	if _, err := conn.Exec(fmt.Sprintf(
		"CREATE TABLE %s (sql_text VARCHAR(4000), micros BIGINT, row_count BIGINT)", tableName)); err != nil {
		if !strings.Contains(err.Error(), "already exists") {
			return err
		}
	}
	for _, e := range t.Events() {
		if _, err := conn.Exec(
			fmt.Sprintf("INSERT INTO %s VALUES (?, ?, ?)", tableName),
			val.NewStr(e.SQL), val.NewInt(e.Micros), val.NewInt(e.Rows)); err != nil {
			return err
		}
	}
	return nil
}

// Finding is one detected design flaw or recommendation.
type Finding struct {
	Kind      string // "client-side-join", "option", ...
	Detail    string
	Statement string // sqlparse.Fingerprint of the statement, when applicable
	Count     int
}

// ClientSideJoinThreshold is how many identical statements (modulo one
// constant) flag a client-side join.
const ClientSideJoinThreshold = 10

// Analyze scans a trace for commonly seen design flaws (§5): client-side
// joins (many identical statements differing only by a constant) and
// suspicious database options.
func Analyze(events []Event, options map[string]string) []Finding {
	var out []Finding

	// Client-side joins.
	groups := map[string]int{}
	for _, e := range events {
		up := strings.ToUpper(strings.TrimSpace(e.SQL))
		if !strings.HasPrefix(up, "SELECT") {
			continue
		}
		groups[sqlparse.Fingerprint(e.SQL)]++
	}
	type grp struct {
		norm string
		n    int
	}
	var sorted []grp
	for norm, n := range groups {
		if n >= ClientSideJoinThreshold {
			sorted = append(sorted, grp{norm, n})
		}
	}
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].n > sorted[j].n })
	for _, g := range sorted {
		out = append(out, Finding{
			Kind: "client-side-join",
			Detail: fmt.Sprintf("%d statements identical up to a constant; the loop in the "+
				"application would be more efficiently carried out as a single statement (e.g. a join or IN list)", g.n),
			Statement: g.norm,
			Count:     g.n,
		})
	}

	// Suspicious option settings.
	for name, v := range options {
		switch {
		case name == "blocking_timeout" && v == "0":
			out = append(out, Finding{Kind: "option",
				Detail: "blocking_timeout=0 makes lock waits fail immediately; most applications want a positive timeout"})
		case name == "auto_commit" && v == "off":
			out = append(out, Finding{Kind: "option",
				Detail: "auto_commit=off with no explicit transactions leaves locks held indefinitely"})
		case name == "query_plan_cache" && v == "off":
			out = append(out, Finding{Kind: "option",
				Detail: "query_plan_cache=off forces re-optimization of procedure statements on every call"})
		}
	}
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

// IndexConsultant evaluates virtual indexes for a captured SELECT
// workload. It gathers the index specifications the optimizer would like
// to have — columns carrying equality predicates or equijoins without a
// supporting index — materializes each as a virtual index in the
// temporary file, re-optimizes the workload, and recommends the ones whose
// estimated cost improvement exceeds MinBenefit (§5).
func IndexConsultant(db *core.DB, events []Event, env *opt.Env) ([]Recommendation, error) {
	if env == nil {
		env = &opt.Env{DTT: db.DTTModel(), PoolPages: db.Pool().SizePages}
	}

	// Parse the SELECT statements once.
	var stmts []stmt
	for _, e := range events {
		parsed, err := sqlparse.Parse(e.SQL)
		if err != nil {
			continue
		}
		if sel, ok := parsed.(*sqlparse.Select); ok {
			stmts = append(stmts, stmt{sel, e.Params})
		}
	}
	if len(stmts) == 0 {
		return nil, nil
	}

	conn, err := db.Connect()
	if err != nil {
		return nil, err
	}
	defer conn.Close()

	ctx := &exec.Ctx{Pool: db.Pool(), St: db.Store(), Clk: db.Clock()}
	cost := func() (float64, error) {
		var total float64
		for _, s := range stmts {
			benv := &opt.BuildEnv{Env: env, Res: db, Ctx: ctx, Params: s.params}
			plan, err := opt.Build(s.sel, benv)
			if err != nil {
				continue // statements that no longer bind are skipped
			}
			total += plan.Cost
		}
		return total, nil
	}

	before, err := cost()
	if err != nil {
		return nil, err
	}

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
		after, err := cost()
		tbl.RemoveIndex(name)
		db.SchemaChanged()
		if err != nil {
			continue
		}
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

// stmt is one traced SELECT with the parameters it ran with.
type stmt struct {
	sel    *sqlparse.Select
	params []val.Value
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
