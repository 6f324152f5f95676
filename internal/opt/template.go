package opt

import (
	"errors"
	"fmt"

	"anywheredb/internal/sqlparse"
)

// Template is a compiled statement — §4.1's cached access plan: everything
// of a build that no parameter value enters. Compile binds the statement's
// blocks, picks their join orders (enumeration, or the heuristic bypass for
// single-table DML) and compiles every value-free expression once;
// Instantiate allocates one execution's operator tree and derives, through
// the same matcher and compiler functions, the few things a value decides:
// an index-probe key, a zone-map constant, a residual predicate's constants,
// a feedback observer's estimate. A Template and everything reachable from
// it is immutable once Compile returns, so any number of executions
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
	bd := &build{BuildEnv: benv, rec: true, forced: forced}
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
	plan, err = t.build(&build{BuildEnv: benv})
	if errors.Is(err, errUnserved) {
		return nil, false, nil
	}
	return plan, err == nil, err
}

func (t *Template) build(bd *build) (*Plan, error) {
	switch s := t.stmt.(type) {
	case *sqlparse.Select:
		return bd.buildSelect(s, &t.block)
	case *sqlparse.Insert:
		if s.Query != nil {
			break
		}
		return bd.buildValues(s.Rows, &t.block)
	case *sqlparse.Update:
		return bd.buildModify(s.Table, s.Where, s.Set, &t.block)
	case *sqlparse.Delete:
		return bd.buildModify(s.Table, s.Where, nil, &t.block)
	}
	return nil, fmt.Errorf("opt: %T is not a statement with a plan", t.stmt)
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
