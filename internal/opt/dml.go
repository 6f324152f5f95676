package opt

import (
	"fmt"

	"anywheredb/internal/exec"
	"anywheredb/internal/sqlparse"
	"anywheredb/internal/table"
	"anywheredb/internal/val"
)

// DML is a compiled single-table INSERT ... VALUES, UPDATE or DELETE.
type DML struct {
	// Table is the target of an UPDATE or DELETE.
	Table *table.Table
	// Plan is the tree the statement drains. UPDATE/DELETE: a WithRIDs
	// scan of Table under a Filter of the whole WHERE clause, producing
	// the target rows' heap addresses. INSERT: the VALUES rows.
	Plan *Plan
	// Match is the WHERE clause as the re-check UpdateChecked and
	// DeleteChecked run under the row lock (nil without WHERE).
	Match func(row []val.Value) (bool, error)

	setCols  []int
	setExprs []exec.Expr
}

// NewRow applies UPDATE's SET clauses to old, every expression reading the
// old image.
func (d *DML) NewRow(old []val.Value) ([]val.Value, error) {
	row := append([]val.Value(nil), old...)
	for i, e := range d.setExprs {
		v, err := e.Eval(old)
		if err != nil {
			return nil, err
		}
		row[d.setCols[i]] = v
	}
	return row, nil
}

// BuildDML compiles simple DML through the heuristic bypass of §4.1: the
// statement is bound and its expressions compiled like any query block's,
// but no join enumeration or costing runs. The access path is the first
// WHERE conjunct `col = constant-or-parameter` whose column leads an
// index, else a heap scan.
func BuildDML(stmt sqlparse.Statement, benv *BuildEnv) (*DML, error) {
	benv.Env.fill()
	switch s := stmt.(type) {
	case *sqlparse.Insert:
		return buildValues(s.Rows, benv)
	case *sqlparse.Update:
		return buildModify(s.Table, s.Where, s.Set, benv)
	case *sqlparse.Delete:
		return buildModify(s.Table, s.Where, nil, benv)
	}
	return nil, fmt.Errorf("opt: %T is not a DML statement", stmt)
}

func buildValues(values [][]sqlparse.Expr, benv *BuildEnv) (*DML, error) {
	b := &blockBuilder{benv: benv}
	rows := make([][]exec.Expr, len(values))
	for i, exprs := range values {
		rows[i] = make([]exec.Expr, len(exprs))
		for k, e := range exprs {
			ce, err := b.compileScalar(e, nil)
			if err != nil {
				return nil, fmt.Errorf("opt: INSERT values must be constants: %w", err)
			}
			rows[i][k] = ce
		}
	}
	return &DML{Plan: &Plan{Root: &exec.Values{Rows: rows}}}, nil
}

func buildModify(name string, where sqlparse.Expr, set []sqlparse.SetClause, benv *BuildEnv) (*DML, error) {
	// The target binds as the block `FROM name WHERE where`: one quantifier,
	// so there is nothing to enumerate, but the shared expression compiler,
	// access-path matcher and histogram estimate all apply.
	from := &sqlparse.Select{From: &sqlparse.BaseTable{Name: name}, Where: where}
	q, err := Bind(from, benv.Res, nil, benv.Params)
	if err != nil {
		return nil, err
	}
	tbl := q.Quants[0].Table
	if tbl == nil {
		return nil, fmt.Errorf("opt: table %q not found", name)
	}
	b := &blockBuilder{benv: benv, q: q}
	offsets := map[int]int{0: 0}
	d := &DML{Table: tbl}

	for _, sc := range set {
		ci := tbl.ColumnIndex(sc.Col)
		if ci < 0 {
			return nil, fmt.Errorf("opt: column %q not found", sc.Col)
		}
		e, err := b.compileScalar(sc.Expr, offsets)
		if err != nil {
			return nil, err
		}
		d.setCols = append(d.setCols, ci)
		d.setExprs = append(d.setExprs, e)
	}

	var root exec.Operator
	rows := float64(tbl.RowCount())
	if ix, lit, cj := q.equalityProbe(0); ix != nil {
		key := val.EncodeKey([]val.Value{lit})
		root = &exec.IndexScan{Table: tbl, Index: ix, Lo: key, Hi: key, HiInc: true, WithRIDs: true}
		rows = q.probeRows(0, cj)
	} else {
		root = &exec.TableScan{Table: tbl, NoColumnar: true, WithRIDs: true}
	}
	d.Plan = &Plan{EstRows: map[exec.Operator]float64{root: rows}}
	if where != nil {
		// The Filter keeps the probe's own conjunct: it and the re-check
		// are one compiled predicate.
		pred, err := b.compilePred(where, offsets)
		if err != nil {
			return nil, err
		}
		d.Match = func(row []val.Value) (bool, error) {
			v, err := pred.Test(row)
			return v == exec.True, err
		}
		root = &exec.Filter{Input: root, Pred: pred}
	}
	d.Plan.Root = root
	return d, nil
}
