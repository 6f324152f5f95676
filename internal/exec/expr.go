// Package exec implements the query execution engine: Volcano-style
// operators over value rows, with the adaptive behaviours of §4.3/§4.4 —
// memory-governed hash operations with largest-partition eviction, a
// post-build switch from hash join to index nested loops, low-memory
// fallbacks, and intra-query parallelism with first-come-first-served load
// balancing.
package exec

import (
	"fmt"
	"math"

	"anywheredb/internal/val"
)

// Row is one tuple flowing between operators.
type Row = []val.Value

// Expr is a compiled scalar expression, bound to row ordinals.
type Expr interface {
	Eval(row Row) (val.Value, error)
}

// Const is a literal.
type Const struct{ V val.Value }

func (c Const) Eval(Row) (val.Value, error) { return c.V, nil }

// Param reads one slot of the parameter vector its plan owns: a plan run
// again with other values reads them without being rebuilt.
type Param struct{ V *val.Value }

func (p Param) Eval(Row) (val.Value, error) { return *p.V, nil }

// Col reads the row ordinal Idx.
type Col struct{ Idx int }

func (c Col) Eval(r Row) (val.Value, error) {
	if c.Idx < 0 || c.Idx >= len(r) {
		return val.Null, fmt.Errorf("exec: column ordinal %d out of range %d", c.Idx, len(r))
	}
	return r[c.Idx], nil
}

// Arith is +, -, *, /, %.
type Arith struct {
	Op   byte // '+', '-', '*', '/', '%'
	L, R Expr
}

func (a Arith) Eval(r Row) (val.Value, error) {
	l, err := a.L.Eval(r)
	if err != nil {
		return val.Null, err
	}
	rv, err := a.R.Eval(r)
	if err != nil {
		return val.Null, err
	}
	if l.IsNull() || rv.IsNull() {
		return val.Null, nil
	}
	// Integer arithmetic stays integral except division by non-divisor.
	if l.Kind == val.KInt && rv.Kind == val.KInt {
		x, y := l.I, rv.I
		switch a.Op {
		case '+':
			return val.NewInt(x + y), nil
		case '-':
			return val.NewInt(x - y), nil
		case '*':
			return val.NewInt(x * y), nil
		case '/':
			if y == 0 {
				return val.Null, fmt.Errorf("exec: division by zero")
			}
			if x%y == 0 {
				return val.NewInt(x / y), nil
			}
			return val.NewDouble(float64(x) / float64(y)), nil
		case '%':
			if y == 0 {
				return val.Null, fmt.Errorf("exec: division by zero")
			}
			return val.NewInt(x % y), nil
		}
	}
	x, y := l.AsFloat(), rv.AsFloat()
	switch a.Op {
	case '+':
		return val.NewDouble(x + y), nil
	case '-':
		return val.NewDouble(x - y), nil
	case '*':
		return val.NewDouble(x * y), nil
	case '/':
		if y == 0 {
			return val.Null, fmt.Errorf("exec: division by zero")
		}
		return val.NewDouble(x / y), nil
	case '%':
		if y == 0 {
			return val.Null, fmt.Errorf("exec: division by zero")
		}
		return val.NewDouble(float64(int64(x) % int64(y))), nil
	}
	return val.Null, fmt.Errorf("exec: bad arithmetic op %q", a.Op)
}

// Neg is unary minus.
type Neg struct{ E Expr }

func (n Neg) Eval(r Row) (val.Value, error) {
	v, err := n.E.Eval(r)
	if err != nil || v.IsNull() {
		return val.Null, err
	}
	if v.Kind == val.KInt {
		return val.NewInt(-v.I), nil
	}
	return val.NewDouble(-v.AsFloat()), nil
}

// Abs is ABS(e).
type Abs struct{ E Expr }

func (a Abs) Eval(r Row) (val.Value, error) {
	v, err := a.E.Eval(r)
	if err != nil || v.IsNull() {
		return val.Null, err
	}
	if v.Kind == val.KInt {
		if v.I < 0 {
			return val.NewInt(-v.I), nil
		}
		return v, nil
	}
	return val.NewDouble(math.Abs(v.AsFloat())), nil
}

// Bool3 is SQL three-valued logic: False, True, or Unknown.
type Bool3 int8

const (
	False   Bool3 = 0
	True    Bool3 = 1
	Unknown Bool3 = 2
)

// Pred is a compiled predicate.
type Pred interface {
	Test(row Row) (Bool3, error)
}

// Cmp compares two expressions with a relational operator.
type Cmp struct {
	Op   string // = <> < <= > >=
	L, R Expr
}

func (c Cmp) Test(r Row) (Bool3, error) {
	l, err := c.L.Eval(r)
	if err != nil {
		return Unknown, err
	}
	rv, err := c.R.Eval(r)
	if err != nil {
		return Unknown, err
	}
	if l.IsNull() || rv.IsNull() {
		return Unknown, nil
	}
	n := val.Compare(l, rv)
	var b bool
	switch c.Op {
	case "=":
		b = n == 0
	case "<>":
		b = n != 0
	case "<":
		b = n < 0
	case "<=":
		b = n <= 0
	case ">":
		b = n > 0
	case ">=":
		b = n >= 0
	default:
		return Unknown, fmt.Errorf("exec: bad comparison %q", c.Op)
	}
	if b {
		return True, nil
	}
	return False, nil
}

// And short-circuits per 3VL.
type And struct{ L, R Pred }

func (a And) Test(r Row) (Bool3, error) {
	l, err := a.L.Test(r)
	if err != nil {
		return Unknown, err
	}
	if l == False {
		return False, nil
	}
	rv, err := a.R.Test(r)
	if err != nil {
		return Unknown, err
	}
	if rv == False {
		return False, nil
	}
	if l == True && rv == True {
		return True, nil
	}
	return Unknown, nil
}

// Or short-circuits per 3VL.
type Or struct{ L, R Pred }

func (o Or) Test(r Row) (Bool3, error) {
	l, err := o.L.Test(r)
	if err != nil {
		return Unknown, err
	}
	if l == True {
		return True, nil
	}
	rv, err := o.R.Test(r)
	if err != nil {
		return Unknown, err
	}
	if rv == True {
		return True, nil
	}
	if l == False && rv == False {
		return False, nil
	}
	return Unknown, nil
}

// Not inverts per 3VL.
type Not struct{ P Pred }

func (n Not) Test(r Row) (Bool3, error) {
	v, err := n.P.Test(r)
	if err != nil || v == Unknown {
		return Unknown, err
	}
	if v == True {
		return False, nil
	}
	return True, nil
}

// IsNullPred is expr IS [NOT] NULL (never Unknown).
type IsNullPred struct {
	E   Expr
	Neg bool
}

func (p IsNullPred) Test(r Row) (Bool3, error) {
	v, err := p.E.Eval(r)
	if err != nil {
		return Unknown, err
	}
	if v.IsNull() != p.Neg {
		return True, nil
	}
	return False, nil
}

// BetweenPred is expr [NOT] BETWEEN lo AND hi.
type BetweenPred struct {
	E, Lo, Hi Expr
	Neg       bool
}

func (p BetweenPred) Test(r Row) (Bool3, error) {
	inner := And{Cmp{Op: ">=", L: p.E, R: p.Lo}, Cmp{Op: "<=", L: p.E, R: p.Hi}}
	v, err := inner.Test(r)
	if err != nil || v == Unknown {
		return Unknown, err
	}
	if p.Neg {
		if v == True {
			return False, nil
		}
		return True, nil
	}
	return v, nil
}

// LikePred is expr [NOT] LIKE pattern.
type LikePred struct {
	E, Pattern Expr
	Neg        bool
}

func (p LikePred) Test(r Row) (Bool3, error) {
	v, err := p.E.Eval(r)
	if err != nil {
		return Unknown, err
	}
	pat, err := p.Pattern.Eval(r)
	if err != nil {
		return Unknown, err
	}
	if v.IsNull() || pat.IsNull() {
		return Unknown, nil
	}
	m := val.LikeMatch(v.String(), pat.String())
	if m != p.Neg {
		return True, nil
	}
	return False, nil
}

// InListPred is expr [NOT] IN (v1, ...).
type InListPred struct {
	E    Expr
	List []Expr
	Neg  bool
}

func (p InListPred) Test(r Row) (Bool3, error) {
	v, err := p.E.Eval(r)
	if err != nil {
		return Unknown, err
	}
	if v.IsNull() {
		return Unknown, nil
	}
	sawNull := false
	for _, le := range p.List {
		lv, err := le.Eval(r)
		if err != nil {
			return Unknown, err
		}
		if lv.IsNull() {
			sawNull = true
			continue
		}
		if val.Compare(v, lv) == 0 {
			if p.Neg {
				return False, nil
			}
			return True, nil
		}
	}
	if sawNull {
		return Unknown, nil
	}
	if p.Neg {
		return True, nil
	}
	return False, nil
}

// PredExpr adapts a predicate to an Expr (for SELECT of boolean results).
type PredExpr struct{ P Pred }

func (p PredExpr) Eval(r Row) (val.Value, error) {
	v, err := p.P.Test(r)
	if err != nil || v == Unknown {
		return val.Null, err
	}
	return val.NewInt(int64(v)), nil
}
