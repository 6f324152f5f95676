package sqlparse

import (
	"strconv"

	"anywheredb/internal/val"
)

// A Reader reads statement texts the way the statement table needs them
// read: one lexer pass that yields the text's shape key — the text with
// every lifted literal replaced by a slot mark — and the lifted values, and,
// only when the table does not already hold that shape, parses the tokens of
// the same pass. A Reader keeps its token and key buffers, so reading a text
// whose shape is already known allocates nothing but the value vector; reuse
// one (it is not safe for concurrent use).
//
// The lift rule. A literal is lifted where a hand-written `?` would mean
// the same thing and nothing downstream asks what the literal *is*: in
// WHERE and JOIN ... ON predicates, on the right of UPDATE's SET, and in
// INSERT's VALUES — of a SELECT, INSERT, UPDATE or DELETE, bare or under
// EXPLAIN, each query block judged on its own. Everything else stays in the
// key verbatim, spelling, spacing and comments included: select lists,
// GROUP BY, HAVING and ORDER BY (GROUP BY matches select items by their
// literals' values, and ORDER BY 2 is an output position), LIMIT n, NULL (a
// keyword), every other kind of statement (VARCHAR(72), LOAD's path), and a
// user's own `?`, which keeps its spelling and so its distinct shape. When
// in doubt a literal stays: the cost is a second shape, never a wrong
// answer. Text that does not lex, or whose literals do not convert, or that
// turns out not to parse, is read verbatim: no lifting, and exactly the
// error Parse gives.
type Reader struct {
	src    string
	toks   []token
	key    []byte
	frames []liftFrame
	nUser  int // `?` tokens in src
	lifted int // lifted literal tokens in src
	lexErr error
}

// liftMark stands for one lifted literal in a shape key. The lexer rejects
// the byte outside string literals and comments, and those stay verbatim, so
// no text that lexes is its own or another text's key by accident;
// unlexableMark prefixes the key of a text that does not lex, which could be.
const (
	liftMark      = 0
	unlexableMark = 1
)

// liftFrame is one query block being read: the parenthesis depth its clause
// keywords sit at, and whether the clause the reader is in lifts literals.
type liftFrame struct {
	depth int
	on    bool
}

// Read lexes src and applies the lift rule. key is the shape key, nil when
// it is src itself (nothing was lifted); it is valid until the next Read.
// values are the lifted literals in source order, freshly allocated.
func (r *Reader) Read(src string) (key []byte, values []val.Value) {
	r.src, r.nUser, r.lifted = src, 0, 0
	if r.toks == nil {
		// One allocation near the right size instead of a doubling chain: a
		// bulk INSERT is tens of thousands of tokens.
		r.toks = make([]token, 0, 16+len(src)/8)
	}
	r.toks, r.lexErr = appendTokens(r.toks[:0], src)
	if r.lexErr != nil {
		r.key = append(append(r.key[:0], unlexableMark), src...)
		return r.key, nil
	}
	r.mark()
	if r.lifted == 0 {
		return nil, nil
	}
	values = make([]val.Value, 0, r.lifted)
	r.key = r.key[:0]
	prev := 0
	for i := range r.toks {
		t := &r.toks[i]
		if !t.lifted {
			continue
		}
		v, ok := literalValue(*t)
		if !ok {
			r.Verbatim()
			return nil, nil
		}
		values = append(values, v)
		r.key = append(append(r.key, src[prev:t.pos]...), liftMark)
		prev = t.end
	}
	r.key = append(r.key, src[prev:]...)
	return r.key, values
}

// Verbatim withdraws the lifting of the text last Read: its key is then the
// text itself and Parse reads every literal as a literal. It is how a text
// that lexes but does not parse is read, so that its error is Parse's.
func (r *Reader) Verbatim() {
	for i := range r.toks {
		r.toks[i].lifted = false
	}
	r.lifted = 0
}

// Parse parses the text last Read from that pass's tokens: a lifted literal
// is the parameter slot numbered, in source order, after the text's own `?`s.
// The fingerprint is Fingerprint's; for text that did not lex, the fallback.
func (r *Reader) Parse() (stmt Statement, fingerprint string, err error) {
	if r.lexErr != nil {
		return nil, fallbackFingerprint(r.src), r.lexErr
	}
	stmt, err = parseTokens(r.toks, r.src, r.nUser)
	return stmt, fingerprintTokens(r.toks), err
}

// UserParams reports the number of `?` markers in the text last Read.
func (r *Reader) UserParams() int { return r.nUser }

// Release drops what the Reader holds of the text last read, keeping its
// buffers unless the text was large enough to be worth giving back.
func (r *Reader) Release() {
	const keepTokens, keepKey = 1 << 10, 16 << 10
	r.src, r.lexErr = "", nil
	if cap(r.toks) > keepTokens {
		r.toks = nil
	}
	if cap(r.key) > keepKey {
		r.key = nil
	}
	clear(r.toks)
	r.toks = r.toks[:0]
}

// mark runs the lift rule over r.toks, setting token.lifted, r.lifted and
// r.nUser.
func (r *Reader) mark() {
	for _, t := range r.toks {
		if t.kind == tokParam {
			r.nUser++
		}
	}
	// What kind of statement: only the four that carry predicates or values.
	i := 0
	if r.toks[i].kind == tokKeyword && r.toks[i].text == "EXPLAIN" {
		i++
		if r.toks[i].kind == tokKeyword && r.toks[i].text == "ANALYZE" {
			i++
		}
	}
	if t := r.toks[i]; t.kind != tokKeyword {
		return
	}
	switch r.toks[i].text {
	case "SELECT", "WITH", "INSERT", "UPDATE", "DELETE":
	default:
		return
	}

	depth := 0
	r.frames = append(r.frames[:0], liftFrame{})
	for ; i < len(r.toks); i++ {
		t := &r.toks[i]
		top := &r.frames[len(r.frames)-1]
		switch t.kind {
		case tokOp:
			switch t.text {
			case "(":
				depth++
			case ")":
				depth--
				if len(r.frames) > 1 && depth < top.depth {
					r.frames = r.frames[:len(r.frames)-1]
				}
			}
		case tokKeyword:
			if t.text == "SELECT" && depth > top.depth {
				// A parenthesised subquery or CTE body: a block of its own.
				r.frames = append(r.frames, liftFrame{depth: depth})
				continue
			}
			if depth != top.depth {
				continue
			}
			switch t.text {
			case "WHERE", "ON", "SET", "VALUES":
				top.on = true
			case "SELECT", "FROM", "JOIN", "INNER", "LEFT", "GROUP", "HAVING", "ORDER", "LIMIT", "UNION":
				top.on = false
			}
		case tokInt, tokFloat, tokString:
			if top.on {
				t.lifted = true
				r.lifted++
			}
		}
	}
}

// literalValue converts a literal token the way the parser does.
func literalValue(t token) (val.Value, bool) {
	switch t.kind {
	case tokInt:
		n, err := strconv.ParseInt(t.text, 10, 64)
		return val.NewInt(n), err == nil
	case tokFloat:
		f, err := strconv.ParseFloat(t.text, 64)
		return val.NewDouble(f), err == nil
	case tokString:
		return val.NewStr(t.text), true
	}
	return val.Null, false
}
