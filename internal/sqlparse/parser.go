package sqlparse

import (
	"fmt"
	"strconv"
	"strings"

	"anywheredb/internal/val"
)

// LoadTable is LOAD TABLE name FROM 'path' [STORE COLUMNAR] (CSV, §3.2
// builds statistics during the load; the optional suffix seals the loaded
// rows into column segments immediately).
type LoadTable struct {
	Table         string
	Path          string
	StoreColumnar bool
}

func (*LoadTable) stmtNode() {}

// AlterTableStore is ALTER TABLE name STORE COLUMNAR|ROW: switch the
// table's scan layout between heap-only and heap+column-segments.
type AlterTableStore struct {
	Table    string
	Columnar bool
}

func (*AlterTableStore) stmtNode() {}

// Parse parses one SQL statement.
func Parse(src string) (Statement, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	return parseTokens(toks, src, 0)
}

// parseTokens parses one statement from its tokens. nUser is the number of
// `?` tokens among them: a lifted literal's slot is numbered after those.
func parseTokens(toks []token, src string, nUser int) (Statement, error) {
	p := &parser{toks: toks, src: src, nUser: nUser}
	stmt, err := p.parseStatement()
	if err != nil {
		return nil, err
	}
	p.accept(tokOp, ";")
	if !p.at(tokEOF, "") {
		return nil, p.errf("unexpected %q after statement", p.cur().text)
	}
	if sel, ok := stmt.(*Select); ok {
		sel.InstanceState = p.instanceState
	}
	// Every lifted literal must have become a slot. One that was consumed as
	// syntax instead would shift the numbering of the rest; the reader then
	// falls back to the verbatim text, as for any error.
	for _, t := range toks {
		if t.lifted {
			p.lifted--
		}
	}
	if p.lifted != 0 {
		return nil, p.errf("a lifted literal was read as syntax")
	}
	return stmt, nil
}

type parser struct {
	toks []token
	pos  int
	src  string
	// params counts ? placeholders seen, lifted the lifted literals; nUser
	// is the total of the former, known from the lexer pass.
	params, lifted, nUser int
	// subqueries counts IN (SELECT ...) and EXISTS (...) predicates seen.
	subqueries int
	// instanceState: a sys.* table or PROPERTY() call seen (Select.InstanceState).
	instanceState bool
}

func (p *parser) cur() token  { return p.toks[p.pos] }
func (p *parser) next() token { t := p.toks[p.pos]; p.pos++; return t }

func (p *parser) at(kind tokKind, text string) bool {
	t := p.cur()
	return t.kind == kind && (text == "" || t.text == text)
}

func (p *parser) accept(kind tokKind, text string) bool {
	if p.at(kind, text) {
		p.pos++
		return true
	}
	return false
}

func (p *parser) expect(kind tokKind, text string) (token, error) {
	if p.at(kind, text) {
		return p.next(), nil
	}
	return token{}, p.errf("expected %q, found %q", text, p.cur().text)
}

func (p *parser) errf(format string, args ...any) error {
	return fmt.Errorf("sql: %s (at offset %d)", fmt.Sprintf(format, args...), p.cur().pos)
}

func (p *parser) ident() (string, error) {
	t := p.cur()
	if t.kind == tokIdent {
		p.pos++
		return t.text, nil
	}
	return "", p.errf("expected identifier, found %q", t.text)
}

func (p *parser) parseStatement() (Statement, error) {
	switch {
	case p.accept(tokKeyword, "EXPLAIN"):
		analyze := p.accept(tokKeyword, "ANALYZE")
		text := p.src[p.cur().pos:]
		inner, err := p.parseStatement()
		if err != nil {
			return nil, err
		}
		if _, nested := inner.(*Explain); nested {
			return nil, p.errf("EXPLAIN cannot be nested")
		}
		return &Explain{Analyze: analyze, Stmt: inner, Text: text}, nil
	case p.at(tokKeyword, "SELECT"), p.at(tokKeyword, "WITH"):
		return p.parseSelect()
	case p.accept(tokKeyword, "CREATE"):
		return p.parseCreate()
	case p.accept(tokKeyword, "DROP"):
		index := p.accept(tokKeyword, "INDEX")
		if !index {
			if _, err := p.expect(tokKeyword, "TABLE"); err != nil {
				return nil, err
			}
		}
		name, err := p.ident()
		if err != nil {
			return nil, err
		}
		if !index {
			return &DropTable{Name: name}, nil
		}
		if _, err := p.expect(tokKeyword, "ON"); err != nil {
			return nil, err
		}
		tbl, err := p.ident()
		if err != nil {
			return nil, err
		}
		return &DropIndex{Name: name, Table: tbl}, nil
	case p.accept(tokKeyword, "INSERT"):
		return p.parseInsert()
	case p.accept(tokKeyword, "UPDATE"):
		return p.parseUpdate()
	case p.accept(tokKeyword, "DELETE"):
		return p.parseDelete()
	case p.accept(tokKeyword, "BEGIN"):
		if p.accept(tokKeyword, "READ") {
			if _, err := p.expect(tokKeyword, "ONLY"); err != nil {
				return nil, err
			}
			return &Begin{ReadOnly: true}, nil
		}
		return &Begin{}, nil
	case p.accept(tokKeyword, "COMMIT"):
		return &Commit{}, nil
	case p.accept(tokKeyword, "ROLLBACK"):
		return &Rollback{}, nil
	case p.accept(tokKeyword, "CALIBRATE"):
		if _, err := p.expect(tokKeyword, "DATABASE"); err != nil {
			return nil, err
		}
		return &Calibrate{}, nil
	case p.accept(tokKeyword, "LOAD"):
		if _, err := p.expect(tokKeyword, "TABLE"); err != nil {
			return nil, err
		}
		name, err := p.ident()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokKeyword, "FROM"); err != nil {
			return nil, err
		}
		if !p.at(tokString, "") {
			return nil, p.errf("expected file path string")
		}
		lt := &LoadTable{Table: name, Path: p.next().text}
		if p.accept(tokKeyword, "STORE") {
			if _, err := p.expect(tokKeyword, "COLUMNAR"); err != nil {
				return nil, err
			}
			lt.StoreColumnar = true
		}
		return lt, nil
	case p.accept(tokKeyword, "ALTER"):
		if _, err := p.expect(tokKeyword, "TABLE"); err != nil {
			return nil, err
		}
		name, err := p.ident()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokKeyword, "STORE"); err != nil {
			return nil, err
		}
		switch {
		case p.accept(tokKeyword, "COLUMNAR"):
			return &AlterTableStore{Table: name, Columnar: true}, nil
		case p.accept(tokKeyword, "ROW"):
			return &AlterTableStore{Table: name}, nil
		}
		return nil, p.errf("expected COLUMNAR or ROW")
	}
	return nil, p.errf("unexpected statement start %q", p.cur().text)
}

func (p *parser) parseCreate() (Statement, error) {
	unique := p.accept(tokKeyword, "UNIQUE")
	switch {
	case p.accept(tokKeyword, "TABLE"):
		if unique {
			return nil, p.errf("UNIQUE TABLE is not valid")
		}
		return p.parseCreateTable()
	case p.accept(tokKeyword, "INDEX"):
		return p.parseCreateIndex(unique)
	case p.accept(tokKeyword, "STATISTICS"):
		if unique {
			return nil, p.errf("UNIQUE STATISTICS is not valid")
		}
		tbl, err := p.ident()
		if err != nil {
			return nil, err
		}
		cs := &CreateStatistics{Table: tbl}
		if p.accept(tokOp, "(") {
			for {
				c, err := p.ident()
				if err != nil {
					return nil, err
				}
				cs.Cols = append(cs.Cols, c)
				if !p.accept(tokOp, ",") {
					break
				}
			}
			if _, err := p.expect(tokOp, ")"); err != nil {
				return nil, err
			}
		}
		return cs, nil
	}
	return nil, p.errf("expected TABLE, INDEX, or STATISTICS after CREATE")
}

func kindOfType(t string) (val.Kind, bool) {
	switch t {
	case "INT", "INTEGER", "BIGINT":
		return val.KInt, true
	case "DOUBLE", "REAL", "FLOAT":
		return val.KDouble, true
	case "VARCHAR", "CHAR", "TEXT", "STRING":
		return val.KStr, true
	}
	return 0, false
}

func (p *parser) parseCreateTable() (Statement, error) {
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokOp, "("); err != nil {
		return nil, err
	}
	ct := &CreateTable{Name: name}
	for {
		cname, err := p.ident()
		if err != nil {
			return nil, err
		}
		t := p.cur()
		if t.kind != tokKeyword {
			return nil, p.errf("expected column type, found %q", t.text)
		}
		kind, ok := kindOfType(t.text)
		if !ok {
			return nil, p.errf("unknown type %q", t.text)
		}
		p.pos++
		// Optional (n) length, ignored.
		if p.accept(tokOp, "(") {
			if !p.at(tokInt, "") {
				return nil, p.errf("expected length")
			}
			p.next()
			if _, err := p.expect(tokOp, ")"); err != nil {
				return nil, err
			}
		}
		ct.Cols = append(ct.Cols, ColDef{Name: cname, Kind: kind})
		if !p.accept(tokOp, ",") {
			break
		}
	}
	if _, err := p.expect(tokOp, ")"); err != nil {
		return nil, err
	}
	return ct, nil
}

func (p *parser) parseCreateIndex(unique bool) (Statement, error) {
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokKeyword, "ON"); err != nil {
		return nil, err
	}
	tbl, err := p.ident()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokOp, "("); err != nil {
		return nil, err
	}
	ci := &CreateIndex{Name: name, Table: tbl, Unique: unique}
	for {
		c, err := p.ident()
		if err != nil {
			return nil, err
		}
		ci.Cols = append(ci.Cols, c)
		if !p.accept(tokOp, ",") {
			break
		}
	}
	if _, err := p.expect(tokOp, ")"); err != nil {
		return nil, err
	}
	return ci, nil
}

func (p *parser) parseInsert() (Statement, error) {
	if _, err := p.expect(tokKeyword, "INTO"); err != nil {
		return nil, err
	}
	tbl, err := p.ident()
	if err != nil {
		return nil, err
	}
	ins := &Insert{Table: tbl}
	if p.accept(tokOp, "(") {
		for {
			c, err := p.ident()
			if err != nil {
				return nil, err
			}
			ins.Cols = append(ins.Cols, c)
			if !p.accept(tokOp, ",") {
				break
			}
		}
		if _, err := p.expect(tokOp, ")"); err != nil {
			return nil, err
		}
	}
	if p.accept(tokKeyword, "VALUES") {
		for {
			if _, err := p.expect(tokOp, "("); err != nil {
				return nil, err
			}
			var row []Expr
			for {
				e, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				row = append(row, e)
				if !p.accept(tokOp, ",") {
					break
				}
			}
			if _, err := p.expect(tokOp, ")"); err != nil {
				return nil, err
			}
			ins.Rows = append(ins.Rows, row)
			if !p.accept(tokOp, ",") {
				break
			}
		}
		return ins, nil
	}
	if p.at(tokKeyword, "SELECT") || p.at(tokKeyword, "WITH") {
		q, err := p.parseSelect()
		if err != nil {
			return nil, err
		}
		ins.Query = q
		return ins, nil
	}
	return nil, p.errf("expected VALUES or SELECT")
}

func (p *parser) parseUpdate() (Statement, error) {
	tbl, err := p.ident()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokKeyword, "SET"); err != nil {
		return nil, err
	}
	up := &Update{Table: tbl}
	for {
		col, err := p.ident()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokOp, "="); err != nil {
			return nil, err
		}
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		up.Set = append(up.Set, SetClause{Col: col, Expr: e})
		if !p.accept(tokOp, ",") {
			break
		}
	}
	if p.accept(tokKeyword, "WHERE") {
		w, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		up.Where = w
	}
	up.Subquery = p.subqueries > 0
	return up, nil
}

func (p *parser) parseDelete() (Statement, error) {
	if _, err := p.expect(tokKeyword, "FROM"); err != nil {
		return nil, err
	}
	tbl, err := p.ident()
	if err != nil {
		return nil, err
	}
	del := &Delete{Table: tbl}
	if p.accept(tokKeyword, "WHERE") {
		w, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		del.Where = w
	}
	del.Subquery = p.subqueries > 0
	return del, nil
}

// parseSelect parses WITH? SELECT ... UNION ... ORDER BY ... LIMIT.
func (p *parser) parseSelect() (*Select, error) {
	var ctes []CTE
	if p.accept(tokKeyword, "WITH") {
		recursive := p.accept(tokKeyword, "RECURSIVE")
		for {
			name, err := p.ident()
			if err != nil {
				return nil, err
			}
			cte := CTE{Name: name, Recursive: recursive}
			if p.accept(tokOp, "(") {
				for {
					c, err := p.ident()
					if err != nil {
						return nil, err
					}
					cte.Cols = append(cte.Cols, c)
					if !p.accept(tokOp, ",") {
						break
					}
				}
				if _, err := p.expect(tokOp, ")"); err != nil {
					return nil, err
				}
			}
			if _, err := p.expect(tokKeyword, "AS"); err != nil {
				return nil, err
			}
			if _, err := p.expect(tokOp, "("); err != nil {
				return nil, err
			}
			q, err := p.parseSelect()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(tokOp, ")"); err != nil {
				return nil, err
			}
			cte.Query = q
			ctes = append(ctes, cte)
			if !p.accept(tokOp, ",") {
				break
			}
		}
	}
	sel, err := p.parseSelectBody()
	if err != nil {
		return nil, err
	}
	sel.With = ctes

	// UNION [ALL] chains attach to the outermost select.
	cur := sel
	for p.accept(tokKeyword, "UNION") {
		all := p.accept(tokKeyword, "ALL")
		nxt, err := p.parseSelectBody()
		if err != nil {
			return nil, err
		}
		cur.Union = nxt
		cur.UnionAll = all
		cur = nxt
	}

	if p.accept(tokKeyword, "ORDER") {
		if _, err := p.expect(tokKeyword, "BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			item := OrderItem{Expr: e}
			if p.accept(tokKeyword, "DESC") {
				item.Desc = true
			} else {
				p.accept(tokKeyword, "ASC")
			}
			sel.OrderBy = append(sel.OrderBy, item)
			if !p.accept(tokOp, ",") {
				break
			}
		}
	}
	sel.Limit = -1
	if p.accept(tokKeyword, "LIMIT") {
		if !p.at(tokInt, "") {
			return nil, p.errf("expected LIMIT count")
		}
		n, _ := strconv.ParseInt(p.next().text, 10, 64)
		sel.Limit = n
	}
	return sel, nil
}

func (p *parser) parseSelectBody() (*Select, error) {
	if _, err := p.expect(tokKeyword, "SELECT"); err != nil {
		return nil, err
	}
	sel := &Select{Limit: -1}
	sel.Distinct = p.accept(tokKeyword, "DISTINCT")
	for {
		if p.accept(tokOp, "*") {
			sel.Items = append(sel.Items, SelectItem{Star: true})
		} else {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			item := SelectItem{Expr: e}
			if p.accept(tokKeyword, "AS") {
				a, err := p.ident()
				if err != nil {
					return nil, err
				}
				item.Alias = a
			} else if p.at(tokIdent, "") {
				item.Alias = p.next().text
			}
			sel.Items = append(sel.Items, item)
		}
		if !p.accept(tokOp, ",") {
			break
		}
	}
	if p.accept(tokKeyword, "FROM") {
		fi, err := p.parseFrom()
		if err != nil {
			return nil, err
		}
		sel.From = fi
	}
	if p.accept(tokKeyword, "WHERE") {
		w, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		sel.Where = w
	}
	if p.accept(tokKeyword, "GROUP") {
		if _, err := p.expect(tokKeyword, "BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			sel.GroupBy = append(sel.GroupBy, e)
			if !p.accept(tokOp, ",") {
				break
			}
		}
	}
	if p.accept(tokKeyword, "HAVING") {
		h, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		sel.Having = h
	}
	return sel, nil
}

func (p *parser) parseFrom() (FromItem, error) {
	left, err := p.parseTableRef()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.accept(tokOp, ","):
			right, err := p.parseTableRef()
			if err != nil {
				return nil, err
			}
			left = &Join{Kind: InnerJoin, Left: left, Right: right}
		case p.at(tokKeyword, "JOIN") || p.at(tokKeyword, "INNER") || p.at(tokKeyword, "LEFT"):
			kind := InnerJoin
			if p.accept(tokKeyword, "LEFT") {
				p.accept(tokKeyword, "OUTER")
				kind = LeftOuterJoin
			} else {
				p.accept(tokKeyword, "INNER")
			}
			if _, err := p.expect(tokKeyword, "JOIN"); err != nil {
				return nil, err
			}
			right, err := p.parseTableRef()
			if err != nil {
				return nil, err
			}
			var on Expr
			if p.accept(tokKeyword, "ON") {
				on, err = p.parseExpr()
				if err != nil {
					return nil, err
				}
			}
			left = &Join{Kind: kind, Left: left, Right: right, On: on}
		default:
			return left, nil
		}
	}
}

func (p *parser) parseTableRef() (FromItem, error) {
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	// Qualified names (sys.properties) keep the dot in the table name;
	// binding resolves them against virtual-table providers.
	if p.accept(tokOp, ".") {
		second, err := p.ident()
		if err != nil {
			return nil, err
		}
		p.instanceState = p.instanceState || strings.EqualFold(name, "sys")
		name = name + "." + second
	}
	bt := &BaseTable{Name: name}
	if p.accept(tokKeyword, "AS") {
		a, err := p.ident()
		if err != nil {
			return nil, err
		}
		bt.Alias = a
	} else if p.at(tokIdent, "") {
		bt.Alias = p.next().text
	}
	return bt, nil
}

// --- Expressions: precedence climbing ------------------------------------

func (p *parser) parseExpr() (Expr, error) { return p.parseOr() }

func (p *parser) parseOr() (Expr, error) {
	l, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.accept(tokKeyword, "OR") {
		r, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		l = &BinOp{Op: "OR", L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseAnd() (Expr, error) {
	l, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.accept(tokKeyword, "AND") {
		r, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		l = &BinOp{Op: "AND", L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseNot() (Expr, error) {
	if p.accept(tokKeyword, "NOT") {
		e, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return &UnOp{Op: "NOT", E: e}, nil
	}
	return p.parsePredicate()
}

// parsePredicate handles comparisons and the SQL predicates IS NULL,
// BETWEEN, LIKE, IN, EXISTS.
func (p *parser) parsePredicate() (Expr, error) {
	if p.at(tokKeyword, "EXISTS") {
		p.next()
		if _, err := p.expect(tokOp, "("); err != nil {
			return nil, err
		}
		sub, err := p.parseSelect()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokOp, ")"); err != nil {
			return nil, err
		}
		p.subqueries++
		return &Exists{Sub: sub}, nil
	}
	l, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	neg := false
	if p.at(tokKeyword, "NOT") {
		// lookahead for NOT BETWEEN / NOT LIKE / NOT IN
		save := p.pos
		p.next()
		if p.at(tokKeyword, "BETWEEN") || p.at(tokKeyword, "LIKE") || p.at(tokKeyword, "IN") {
			neg = true
		} else {
			p.pos = save
			return l, nil
		}
	}
	switch {
	case p.accept(tokKeyword, "IS"):
		n := p.accept(tokKeyword, "NOT")
		if _, err := p.expect(tokKeyword, "NULL"); err != nil {
			return nil, err
		}
		return &IsNull{E: l, Neg: n}, nil
	case p.accept(tokKeyword, "BETWEEN"):
		lo, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokKeyword, "AND"); err != nil {
			return nil, err
		}
		hi, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		return &Between{E: l, Lo: lo, Hi: hi, Neg: neg}, nil
	case p.accept(tokKeyword, "LIKE"):
		pat, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		return &Like{E: l, Pattern: pat, Neg: neg}, nil
	case p.accept(tokKeyword, "IN"):
		if _, err := p.expect(tokOp, "("); err != nil {
			return nil, err
		}
		if p.at(tokKeyword, "SELECT") || p.at(tokKeyword, "WITH") {
			sub, err := p.parseSelect()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(tokOp, ")"); err != nil {
				return nil, err
			}
			p.subqueries++
			return &InSelect{E: l, Sub: sub, Neg: neg}, nil
		}
		var list []Expr
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			list = append(list, e)
			if !p.accept(tokOp, ",") {
				break
			}
		}
		if _, err := p.expect(tokOp, ")"); err != nil {
			return nil, err
		}
		return &InList{E: l, List: list, Neg: neg}, nil
	}
	for _, op := range []string{"=", "<>", "<=", ">=", "<", ">"} {
		if p.accept(tokOp, op) {
			r, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			return &BinOp{Op: op, L: l, R: r}, nil
		}
	}
	return l, nil
}

func (p *parser) parseAdditive() (Expr, error) {
	l, err := p.parseMultiplicative()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.accept(tokOp, "+"):
			r, err := p.parseMultiplicative()
			if err != nil {
				return nil, err
			}
			l = &BinOp{Op: "+", L: l, R: r}
		case p.accept(tokOp, "-"):
			r, err := p.parseMultiplicative()
			if err != nil {
				return nil, err
			}
			l = &BinOp{Op: "-", L: l, R: r}
		default:
			return l, nil
		}
	}
}

func (p *parser) parseMultiplicative() (Expr, error) {
	l, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.accept(tokOp, "*"):
			r, err := p.parseUnary()
			if err != nil {
				return nil, err
			}
			l = &BinOp{Op: "*", L: l, R: r}
		case p.accept(tokOp, "/"):
			r, err := p.parseUnary()
			if err != nil {
				return nil, err
			}
			l = &BinOp{Op: "/", L: l, R: r}
		case p.accept(tokOp, "%"):
			r, err := p.parseUnary()
			if err != nil {
				return nil, err
			}
			l = &BinOp{Op: "%", L: l, R: r}
		default:
			return l, nil
		}
	}
}

func (p *parser) parseUnary() (Expr, error) {
	if p.accept(tokOp, "-") {
		e, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &UnOp{Op: "-", E: e}, nil
	}
	return p.parsePrimary()
}

func (p *parser) parsePrimary() (Expr, error) {
	t := p.cur()
	if t.lifted {
		p.next()
		p.lifted++
		return &Param{Idx: p.nUser + p.lifted}, nil
	}
	switch t.kind {
	case tokInt, tokFloat, tokString:
		p.next()
		v, ok := literalValue(t)
		switch {
		case ok:
			return &Lit{Val: v}, nil
		case t.kind == tokInt:
			return nil, p.errf("bad integer %q", t.text)
		}
		return nil, p.errf("bad number %q", t.text)
	case tokParam:
		p.next()
		p.params++
		return &Param{Idx: p.params}, nil
	case tokKeyword:
		if t.text == "NULL" {
			p.next()
			return &Lit{Val: val.Null}, nil
		}
		return nil, p.errf("unexpected keyword %q in expression", t.text)
	case tokOp:
		if t.text == "(" {
			p.next()
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(tokOp, ")"); err != nil {
				return nil, err
			}
			return e, nil
		}
		return nil, p.errf("unexpected %q in expression", t.text)
	case tokIdent:
		name := p.next().text
		// Function call?
		if p.accept(tokOp, "(") {
			fc := &FuncCall{Name: strings.ToUpper(name)}
			p.instanceState = p.instanceState || fc.Name == "PROPERTY"
			if p.accept(tokOp, "*") {
				fc.Star = true
			} else if !p.at(tokOp, ")") {
				fc.Distinct = p.accept(tokKeyword, "DISTINCT")
				for {
					a, err := p.parseExpr()
					if err != nil {
						return nil, err
					}
					fc.Args = append(fc.Args, a)
					if !p.accept(tokOp, ",") {
						break
					}
				}
			}
			if _, err := p.expect(tokOp, ")"); err != nil {
				return nil, err
			}
			return fc, nil
		}
		// Qualified column?
		if p.accept(tokOp, ".") {
			col, err := p.ident()
			if err != nil {
				return nil, err
			}
			return &ColRef{Table: name, Col: col}, nil
		}
		return &ColRef{Col: name}, nil
	}
	return nil, p.errf("unexpected token %q", t.text)
}
