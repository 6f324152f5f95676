package opt

import (
	"errors"
	"fmt"
	"slices"

	"anywheredb/internal/sqlparse"
	"anywheredb/internal/val"
)

// Template is a compiled statement — §4.1's cached access plan: everything
// of a build that no parameter value enters. Compile binds the statement's
// blocks, picks their join orders (enumeration, or the heuristic bypass for
// single-table DML) and compiles every value-free expression once;
// Instantiate allocates one execution's operator tree, through the same
// matcher and compiler functions, and the parameter vector every part of it
// that a value enters reads: an index-probe key, a zone-map constant, a
// predicate's constants, a feedback observer's literal. Nothing of the tree
// is derived from a value — but in a volatile build, which ran part of the
// statement and is never cached — so the plan serves later executions too,
// once Rebind has copied their values in. A Template and everything reachable
// from it is immutable once Compile returns, so any number of executions
// instantiate one concurrently.
type Template struct {
	// Version is the schema version the statement was bound under
	// (BuildEnv.SchemaVersion): its table and index pointers are that
	// schema's, so it must not be served under another.
	Version uint64

	stmt  sqlparse.Statement
	block blockTemplate
	// schemaFree: the statement binds no schema object (INSERT ... VALUES),
	// so the template is current under every version.
	schemaFree bool
	// bypass: nothing was costed (§4.1's heuristic bypass), so there is
	// nothing to train and nothing a re-optimization could find changed.
	bypass bool
	// volatile: the build executed part of the statement or bound a snapshot
	// of rows; the template answers that one execution only.
	volatile bool
}

// Current reports whether the template may be served under schema version v.
func (t *Template) Current(v uint64) bool { return t.schemaFree || t.Version == v }

// Retainable reports whether the template answers more than the execution
// that compiled it.
func (t *Template) Retainable() bool { return !t.volatile }

// Bypass reports whether the statement took the heuristic bypass.
func (t *Template) Bypass() bool { return t.bypass }

// sameOrder reports whether two compiles of one statement chose the same
// plan skeleton: the same (quantifier, method, index) steps, block by block.
func (t *Template) sameOrder(u *Template) bool {
	a, b := &t.block, &u.block
	for a != nil && b != nil {
		if len(a.order) != len(b.order) {
			return false
		}
		for i, st := range a.order {
			if st != b.order[i] {
				return false
			}
		}
		a, b = a.next, b.next
	}
	return a == nil && b == nil
}

// Compile compiles a SELECT, an INSERT ... VALUES, an UPDATE or a DELETE
// under benv's parameter values and returns the template with the plan of
// the execution that compiled it: a compile is a template's first
// instantiation.
func Compile(stmt sqlparse.Statement, benv *BuildEnv) (*Template, *Plan, error) {
	return compile(stmt, benv, nil)
}

func compile(stmt sqlparse.Statement, benv *BuildEnv, forced []Step) (*Template, *Plan, error) {
	benv.Env.fill()
	t := &Template{Version: benv.SchemaVersion, stmt: stmt}
	switch stmt.(type) {
	case *sqlparse.Insert:
		t.schemaFree, t.bypass = true, true
	case *sqlparse.Update, *sqlparse.Delete:
		t.bypass = true
	}
	bd := &build{BuildEnv: benv, vec: slices.Clone(benv.Params), rec: true, forced: forced}
	plan, err := t.build(bd)
	t.volatile = bd.volatile
	return t, plan, err
}

// Instantiate builds one execution's plan from the template under benv's
// parameter values. ok is false when the template cannot serve them — a NULL
// or a value of another kind where the estimates behind its order saw a
// number — and the caller compiles instead: a plan is what a compile would
// have built, never a wrong one.
func (t *Template) Instantiate(benv *BuildEnv) (plan *Plan, ok bool, err error) {
	benv.Env.fill()
	plan, err = t.build(&build{BuildEnv: benv, vec: slices.Clone(benv.Params)})
	if errors.Is(err, errUnserved) {
		return nil, false, nil
	}
	return plan, err == nil, err
}

func (t *Template) build(bd *build) (plan *Plan, err error) {
	switch s := t.stmt.(type) {
	case *sqlparse.Select:
		plan, err = bd.buildSelect(s, &t.block)
	case *sqlparse.Insert:
		if s.Query != nil {
			return nil, fmt.Errorf("opt: %T is not a statement with a plan", t.stmt)
		}
		plan, err = bd.buildValues(s.Rows, &t.block)
	case *sqlparse.Update:
		plan, err = bd.buildModify(s.Table, s.Where, s.Set, &t.block)
	case *sqlparse.Delete:
		plan, err = bd.buildModify(s.Table, s.Where, nil, &t.block)
	default:
		return nil, fmt.Errorf("opt: %T is not a statement with a plan", t.stmt)
	}
	if plan != nil {
		plan.params = bd.vec
	}
	return plan, err
}

// Rebind makes p, a plan instantiated from t and not running, the plan of
// an execution with parameter values params, by copying them into its
// vector. It reports false, and leaves p as it was, where Instantiate would
// not serve the values — a value of another kind than the template was
// compiled for — or p has another number of parameters.
func (t *Template) Rebind(p *Plan, params []val.Value) bool {
	if len(params) != len(p.params) {
		return false
	}
	for bt := &t.block; bt != nil; bt = bt.next {
		if !bt.serves(params) {
			return false
		}
	}
	copy(p.params, params)
	// Estimates are derived from the values: afresh, if anybody asks.
	p.est, p.estimated = p.est[:0], false
	for _, b := range p.blocks {
		b.query.cardCache = nil
	}
	return true
}

// serves reports whether the block's order and access paths serve
// parameter values of params' kinds (planParams).
func (bt *blockTemplate) serves(params []val.Value) bool {
	for _, pk := range bt.planParams {
		if pk.idx < len(params) && params[pk.idx].Kind != pk.kind {
			return false
		}
	}
	return true
}

// Build compiles stmt for one execution and returns its plan.
func Build(stmt sqlparse.Statement, benv *BuildEnv) (*Plan, error) {
	_, plan, err := Compile(stmt, benv)
	return plan, err
}

// BuildWithOrder builds a SELECT whose first block is joined in the given
// order instead of the enumerator's (the Eq. 3 rank-preservation experiment
// measures forced plans).
func BuildWithOrder(sel *sqlparse.Select, benv *BuildEnv, order []Step) (*Plan, error) {
	_, plan, err := compile(sel, benv, order)
	return plan, err
}
