package opt

import (
	"fmt"

	"anywheredb/internal/exec"
	"anywheredb/internal/sqlparse"
	"anywheredb/internal/table"
	"anywheredb/internal/val"
)

// Modify is what an UPDATE or DELETE does with the candidates its plan's
// tree finds. The tree has one of two shapes. An index probe by a WHERE
// conjunct yields RIDs only (IndexScan.RIDsOnly): it reads no row, and the
// claim's first read is the only read and Match the only check. Otherwise
// a WithRIDs scan of Table under a Filter of the whole WHERE clause reads
// each row and yields the RIDs of those that pass; the claim reads each
// again and Match checks it again. Either way the claim's first read is the
// one that decides: a row absent there or failing Match is no target and
// is not waited for (see table.UpdateChecked).
type Modify struct {
	// Table is the target.
	Table *table.Table
	// Match is the WHERE clause as UpdateChecked and DeleteChecked run it
	// on each row they claim (nil without WHERE).
	Match func(row []val.Value) (bool, error)

	setCols  []int
	setExprs []exec.Expr
}

// NewRow applies UPDATE's SET clauses to old, every expression reading the
// old image, and builds the new row in dst[:0], which must not share memory
// with old: a caller may pass the row it keeps from one target to the next.
func (m *Modify) NewRow(dst, old []val.Value) ([]val.Value, error) {
	row := append(dst[:0], old...)
	for i, e := range m.setExprs {
		v, err := e.Eval(old)
		if err != nil {
			return nil, err
		}
		row[m.setCols[i]] = v
	}
	return row, nil
}

// buildValues builds INSERT's VALUES rows. It reads no schema object (the
// caller maps the values onto the table's columns), so its template serves
// under any schema version.
func (bd *build) buildValues(values [][]sqlparse.Expr, bt *blockTemplate) (*Plan, error) {
	b := &blockBuilder{bd: bd, t: bt}
	rows := make([][]exec.Expr, len(values))
	for i, exprs := range values {
		rows[i] = make([]exec.Expr, len(exprs))
		for k, e := range exprs {
			ce, err := b.scalar(e, noRow)
			if err != nil {
				return nil, fmt.Errorf("opt: INSERT values must be constants: %w", err)
			}
			rows[i][k] = ce
		}
	}
	return &Plan{Root: &exec.Values{Rows: rows}}, nil
}

// buildModify builds simple DML through the heuristic bypass of §4.1: the
// target binds as the block `FROM name WHERE where` — one quantifier, so
// there is nothing to enumerate, but the shared expression compiler,
// access-path matcher and histogram estimate all apply. The access path is
// the first WHERE conjunct `col = constant-or-parameter` whose column leads
// an index, else a heap scan.
func (bd *build) buildModify(name string, where sqlparse.Expr, set []sqlparse.SetClause, bt *blockTemplate) (*Plan, error) {
	b := &blockBuilder{bd: bd, t: bt, plan: &Plan{}}
	var from *sqlparse.Select
	if bd.rec {
		from = &sqlparse.Select{From: &sqlparse.BaseTable{Name: name}, Where: where}
	}
	err := b.bindOrder(from, nil, func() ([]Step, error) {
		ix, _ := b.q.equalityProbe(0)
		return []Step{{Quant: 0, Method: MethodScan, Index: ix}}, nil
	})
	if err != nil {
		return nil, err
	}
	q := b.q
	tbl := q.Quants[0].Table
	if tbl == nil {
		return nil, fmt.Errorf("opt: table %q not found", name)
	}
	b.place(0)
	m := &Modify{Table: tbl}

	if bd.rec {
		for _, sc := range set {
			ci := tbl.ColumnIndex(sc.Col)
			if ci < 0 {
				return nil, fmt.Errorf("opt: column %q not found", sc.Col)
			}
			bt.setCols = append(bt.setCols, ci)
		}
	}
	m.setCols = bt.setCols
	if len(set) > 0 {
		m.setExprs = make([]exec.Expr, len(set))
	}
	for i, sc := range set {
		if m.setExprs[i], err = b.scalar(sc.Expr, b.row()); err != nil {
			return nil, err
		}
	}

	var pred exec.Pred
	if where != nil {
		if pred, err = b.pred(where, b.row()); err != nil {
			return nil, err
		}
		m.Match = func(row []val.Value) (bool, error) {
			v, err := pred.Test(row)
			return v == exec.True, err
		}
	}
	var root exec.Operator
	if ix, cj := q.equalityProbe(0); ix != nil && ix == bt.order[0].Index {
		// Match keeps the probe's own conjunct: it is the probe's key
		// check as well as the WHERE's.
		if root, err = b.probeOp(0, ix, cj, true); err != nil {
			return nil, err
		}
	} else {
		root = &exec.TableScan{Table: tbl, NoColumnar: true, WithRIDs: true}
		b.site(estSite{op: root, kind: estScan, qi: 0})
		if pred != nil {
			root = &exec.Filter{Input: root, Pred: pred}
		}
	}
	b.plan.Root, b.plan.Modify = root, m
	return b.plan, nil
}
