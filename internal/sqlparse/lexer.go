package sqlparse

import (
	"fmt"
	"strings"
)

type tokKind int

const (
	tokEOF tokKind = iota
	tokIdent
	tokKeyword
	tokInt
	tokFloat
	tokString
	tokOp    // operators and punctuation
	tokParam // ?
)

type token struct {
	kind tokKind
	text string // keywords upper-cased; identifiers as written
	pos  int    // offset of the token's first byte in the source
	end  int    // offset just past its last
	// lifted marks a literal the lift rule took out of the statement key
	// (Reader.Read): the parser makes it a parameter slot, not a Lit.
	lifted bool
}

var keywords = func() map[string]string {
	m := map[string]string{}
	for _, k := range []string{
		"SELECT", "FROM", "WHERE", "GROUP", "BY",
		"HAVING", "ORDER", "ASC", "DESC", "LIMIT",
		"DISTINCT", "AS", "AND", "OR", "NOT",
		"NULL", "IS", "IN", "BETWEEN", "LIKE",
		"EXISTS", "JOIN", "INNER", "LEFT", "OUTER",
		"ON", "UNION", "ALL", "WITH", "RECURSIVE",
		"CREATE", "TABLE", "INDEX", "UNIQUE",
		"STATISTICS", "DROP", "INSERT", "INTO",
		"VALUES", "UPDATE", "SET", "DELETE",
		"BEGIN", "COMMIT", "ROLLBACK", "CALIBRATE",
		"DATABASE", "INT", "INTEGER", "BIGINT",
		"DOUBLE", "REAL", "FLOAT", "VARCHAR",
		"CHAR", "TEXT", "STRING", "LOAD",
		"EXPLAIN", "ANALYZE", "ALTER", "STORE",
		"COLUMNAR", "ROW", "READ", "ONLY",
	} {
		m[k] = k
	}
	return m
}()

// maxKeywordLen is the longest keyword's length (STATISTICS).
const maxKeywordLen = 10

// keywordOf returns the canonical upper-case spelling of s if s is a
// keyword in any case. It allocates nothing: a lexer pass over a statement
// the table already holds must not.
func keywordOf(s string) (string, bool) {
	if len(s) > maxKeywordLen {
		return "", false
	}
	var buf [maxKeywordLen]byte
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c >= 'a' && c <= 'z' {
			c -= 'a' - 'A'
		}
		buf[i] = c
	}
	kw, ok := keywords[string(buf[:len(s)])]
	return kw, ok
}

// lexer yields a source's tokens one at a time; a token's text is a
// substring of the source wherever the two are spelled alike.
type lexer struct {
	src string
	pos int
}

// lex collects every token of src, the EOF token last.
func lex(src string) ([]token, error) {
	toks, err := appendTokens(nil, src)
	if err != nil {
		return nil, err
	}
	return toks, nil
}

// appendTokens appends src's tokens to toks, the EOF token last; on an
// error, those before it.
func appendTokens(toks []token, src string) ([]token, error) {
	l := lexer{src: src}
	for {
		t, err := l.next()
		if err != nil {
			return toks, err
		}
		toks = append(toks, t)
		if t.kind == tokEOF {
			return toks, nil
		}
	}
}

func (l *lexer) next() (token, error) {
	l.skipSpace()
	if l.pos >= len(l.src) {
		return token{kind: tokEOF, pos: l.pos, end: l.pos}, nil
	}
	c := l.src[l.pos]
	switch {
	case isIdentStart(c):
		return l.lexIdent(), nil
	case c >= '0' && c <= '9':
		return l.lexNumber(), nil
	case c == '\'':
		return l.lexString()
	case c == '?':
		l.pos++
		return token{kind: tokParam, text: "?", pos: l.pos - 1, end: l.pos}, nil
	}
	return l.lexOp()
}

func (l *lexer) skipSpace() {
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if c == ' ' || c == '\t' || c == '\n' || c == '\r' {
			l.pos++
			continue
		}
		// -- line comments
		if c == '-' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '-' {
			for l.pos < len(l.src) && l.src[l.pos] != '\n' {
				l.pos++
			}
			continue
		}
		break
	}
}

func isIdentStart(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func isIdentPart(c byte) bool {
	return isIdentStart(c) || (c >= '0' && c <= '9')
}

func (l *lexer) lexIdent() token {
	start := l.pos
	for l.pos < len(l.src) && isIdentPart(l.src[l.pos]) {
		l.pos++
	}
	text := l.src[start:l.pos]
	if kw, ok := keywordOf(text); ok {
		return token{kind: tokKeyword, text: kw, pos: start, end: l.pos}
	}
	return token{kind: tokIdent, text: text, pos: start, end: l.pos}
}

func (l *lexer) lexNumber() token {
	start := l.pos
	isFloat := false
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if c >= '0' && c <= '9' {
			l.pos++
		} else if c == '.' && !isFloat {
			isFloat = true
			l.pos++
		} else if (c == 'e' || c == 'E') && l.pos > start {
			isFloat = true
			l.pos++
			if l.pos < len(l.src) && (l.src[l.pos] == '+' || l.src[l.pos] == '-') {
				l.pos++
			}
		} else {
			break
		}
	}
	kind := tokInt
	if isFloat {
		kind = tokFloat
	}
	return token{kind: kind, text: l.src[start:l.pos], pos: start, end: l.pos}
}

func (l *lexer) lexString() (token, error) {
	start := l.pos
	l.pos++ // opening quote
	body := l.pos
	escaped := false
	for l.pos < len(l.src) {
		if l.src[l.pos] != '\'' {
			l.pos++
			continue
		}
		if l.pos+1 < len(l.src) && l.src[l.pos+1] == '\'' {
			escaped = true
			l.pos += 2
			continue
		}
		text := l.src[body:l.pos]
		if escaped {
			text = strings.ReplaceAll(text, "''", "'")
		}
		l.pos++
		return token{kind: tokString, text: text, pos: start, end: l.pos}, nil
	}
	return token{}, fmt.Errorf("sql: unterminated string at %d", start)
}

func (l *lexer) lexOp() (token, error) {
	start := l.pos
	if l.pos+1 < len(l.src) {
		switch two := l.src[l.pos : l.pos+2]; two {
		case "!=":
			l.pos += 2
			return token{kind: tokOp, text: "<>", pos: start, end: l.pos}, nil
		case "<>", "<=", ">=":
			l.pos += 2
			return token{kind: tokOp, text: two, pos: start, end: l.pos}, nil
		}
	}
	switch c := l.src[l.pos]; c {
	case '(', ')', ',', '*', '+', '-', '/', '%', '=', '<', '>', '.', ';':
		l.pos++
		return token{kind: tokOp, text: l.src[start:l.pos], pos: start, end: l.pos}, nil
	default:
		return token{}, fmt.Errorf("sql: unexpected character %q at %d", c, l.pos)
	}
}
