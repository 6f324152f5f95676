// Package sqlparse provides the SQL lexer, parser, and AST for the engine's
// SQL dialect: DDL (CREATE TABLE / INDEX / STATISTICS, DROP, CALIBRATE
// DATABASE, LOAD TABLE), DML (INSERT / UPDATE / DELETE), and queries with
// joins (including LEFT OUTER), grouping, aggregation, ordering, DISTINCT,
// subqueries (EXISTS / IN), UNION [ALL], and recursive common table
// expressions.
package sqlparse

import "anywheredb/internal/val"

// Statement is any parsed SQL statement.
type Statement interface{ stmtNode() }

// Expr is any scalar or boolean expression.
type Expr interface{ exprNode() }

// FromItem is a table reference tree in a FROM clause.
type FromItem interface{ fromNode() }

// --- Statements ----------------------------------------------------------

// ColDef defines a column in CREATE TABLE.
type ColDef struct {
	Name string
	Kind val.Kind
}

// CreateTable is CREATE TABLE name (col type, ...).
type CreateTable struct {
	Name string
	Cols []ColDef
}

// CreateIndex is CREATE [UNIQUE] INDEX name ON table (cols...).
type CreateIndex struct {
	Name   string
	Table  string
	Cols   []string
	Unique bool
}

// CreateStatistics is CREATE STATISTICS table [(cols...)].
type CreateStatistics struct {
	Table string
	Cols  []string
}

// Calibrate is CALIBRATE DATABASE.
type Calibrate struct{}

// DropTable is DROP TABLE name.
type DropTable struct{ Name string }

// DropIndex is DROP INDEX name ON table.
type DropIndex struct{ Name, Table string }

// Insert is INSERT INTO t [(cols)] VALUES (...), (...) | SELECT ...
type Insert struct {
	Table string
	Cols  []string
	Rows  [][]Expr
	Query *Select
}

// SetClause is one col = expr assignment.
type SetClause struct {
	Col  string
	Expr Expr
}

// Update is UPDATE t SET ... [WHERE ...].
type Update struct {
	Table string
	Set   []SetClause
	Where Expr
	// Subquery reports that SET or WHERE contains a subquery, which reads
	// like a query while the statement's own targets do not.
	Subquery bool
}

// Delete is DELETE FROM t [WHERE ...].
type Delete struct {
	Table string
	Where Expr
	// Subquery reports that WHERE contains a subquery (see Update).
	Subquery bool
}

// Begin, Commit, Rollback control transactions. BEGIN READ ONLY starts a
// snapshot transaction: repeatable reads, no locks, writes rejected.
type Begin struct {
	ReadOnly bool
}
type Commit struct{}
type Rollback struct{}

// Explain is EXPLAIN [ANALYZE] <statement>: print the statement's plan
// tree with estimated rows/cost, and — with ANALYZE — execute it and print
// the per-operator actuals alongside.
type Explain struct {
	Analyze bool
	Stmt    Statement
	// Text is the source text of Stmt: what the bare statement would have
	// been submitted as, so EXPLAIN can find that statement's object — and
	// with it its cached plan — in the statement table.
	Text string
}

// Writes reports whether running stmt can change the database: DML, DDL,
// bulk load, calibration — and EXPLAIN ANALYZE of any of them, since
// ANALYZE runs its statement. (BEGIN is neither; callers that refuse
// transactions decide that themselves.)
func Writes(stmt Statement) bool {
	switch s := stmt.(type) {
	case *Insert, *Update, *Delete, *CreateTable, *CreateIndex, *DropTable, *DropIndex,
		*LoadTable, *AlterTableStore, *Calibrate:
		return true
	case *Explain:
		return s.Analyze && Writes(s.Stmt)
	}
	return false
}

// WalkExpr visits e and — where visit returns true — its operands, depth
// first. It stays within one query block: the operand of an IN (SELECT ...)
// is visited, the subquery itself, like that of an EXISTS, is not entered.
func WalkExpr(e Expr, visit func(Expr) bool) {
	if e == nil || !visit(e) {
		return
	}
	switch x := e.(type) {
	case *BinOp:
		WalkExpr(x.L, visit)
		WalkExpr(x.R, visit)
	case *UnOp:
		WalkExpr(x.E, visit)
	case *IsNull:
		WalkExpr(x.E, visit)
	case *Between:
		WalkExpr(x.E, visit)
		WalkExpr(x.Lo, visit)
		WalkExpr(x.Hi, visit)
	case *Like:
		WalkExpr(x.E, visit)
		WalkExpr(x.Pattern, visit)
	case *InList:
		WalkExpr(x.E, visit)
		for _, v := range x.List {
			WalkExpr(v, visit)
		}
	case *InSelect:
		WalkExpr(x.E, visit)
	case *FuncCall:
		for _, a := range x.Args {
			WalkExpr(a, visit)
		}
	}
}

// SelectItem is one projection: an expression with an optional alias, or *.
type SelectItem struct {
	Expr  Expr
	Alias string
	Star  bool
}

// OrderItem is one ORDER BY key.
type OrderItem struct {
	Expr Expr
	Desc bool
}

// CTE is one WITH [RECURSIVE] name (cols) AS (select) clause.
type CTE struct {
	Name      string
	Cols      []string
	Query     *Select
	Recursive bool
}

// Select is a query block, possibly with UNION [ALL] continuations and
// WITH clauses.
type Select struct {
	With     []CTE
	Distinct bool
	Items    []SelectItem
	From     FromItem // nil for SELECT without FROM
	Where    Expr
	GroupBy  []Expr
	Having   Expr
	OrderBy  []OrderItem
	Limit    int64 // -1 = none
	Union    *Select
	UnionAll bool
	// InstanceState, on a SELECT statement's outermost block: the statement
	// reads state of the instance running it, not of the database — a sys.*
	// table or a PROPERTY() call, anywhere in its blocks, CTEs and
	// subqueries — so a read replica would answer with its own values.
	InstanceState bool
}

func (*CreateTable) stmtNode()      {}
func (*CreateIndex) stmtNode()      {}
func (*CreateStatistics) stmtNode() {}
func (*Calibrate) stmtNode()        {}
func (*DropTable) stmtNode()        {}
func (*DropIndex) stmtNode()        {}
func (*Insert) stmtNode()           {}
func (*Update) stmtNode()           {}
func (*Delete) stmtNode()           {}
func (*Begin) stmtNode()            {}
func (*Commit) stmtNode()           {}
func (*Rollback) stmtNode()         {}
func (*Select) stmtNode()           {}
func (*Explain) stmtNode()          {}

// --- From items ----------------------------------------------------------

// BaseTable is a named table (or CTE) reference.
type BaseTable struct {
	Name  string
	Alias string
}

// JoinKind distinguishes join types.
type JoinKind int

const (
	InnerJoin JoinKind = iota
	LeftOuterJoin
)

// Join combines two from-items.
type Join struct {
	Kind  JoinKind
	Left  FromItem
	Right FromItem
	On    Expr // nil for comma joins (predicates live in WHERE)
}

func (*BaseTable) fromNode() {}
func (*Join) fromNode()      {}

// --- Expressions ---------------------------------------------------------

// ColRef references table.column (Table may be empty).
type ColRef struct {
	Table string
	Col   string
}

// Lit is a literal value.
type Lit struct{ Val val.Value }

// Param is a positional ? placeholder (1-based).
type Param struct{ Idx int }

// BinOp is a binary operation: comparison, logical, or arithmetic.
type BinOp struct {
	Op   string // = <> < <= > >= AND OR + - * / %
	L, R Expr
}

// UnOp is NOT or unary minus.
type UnOp struct {
	Op string // NOT -
	E  Expr
}

// IsNull is expr IS [NOT] NULL.
type IsNull struct {
	E   Expr
	Neg bool
}

// Between is expr [NOT] BETWEEN lo AND hi.
type Between struct {
	E, Lo, Hi Expr
	Neg       bool
}

// Like is expr [NOT] LIKE pattern.
type Like struct {
	E       Expr
	Pattern Expr
	Neg     bool
}

// InList is expr [NOT] IN (v1, v2, ...).
type InList struct {
	E    Expr
	List []Expr
	Neg  bool
}

// InSelect is expr [NOT] IN (SELECT ...).
type InSelect struct {
	E   Expr
	Sub *Select
	Neg bool
}

// Exists is [NOT] EXISTS (SELECT ...).
type Exists struct {
	Sub *Select
	Neg bool
}

// FuncCall is an aggregate or scalar function call.
type FuncCall struct {
	Name     string // upper-cased
	Args     []Expr
	Star     bool // COUNT(*)
	Distinct bool // COUNT(DISTINCT x)
}

func (*ColRef) exprNode()   {}
func (*Lit) exprNode()      {}
func (*Param) exprNode()    {}
func (*BinOp) exprNode()    {}
func (*UnOp) exprNode()     {}
func (*IsNull) exprNode()   {}
func (*Between) exprNode()  {}
func (*Like) exprNode()     {}
func (*InList) exprNode()   {}
func (*InSelect) exprNode() {}
func (*Exists) exprNode()   {}
func (*FuncCall) exprNode() {}
