package core

import (
	"container/list"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"anywheredb/internal/opt"
	"anywheredb/internal/sqlparse"
	"anywheredb/internal/val"
)

// Shape is what every text of one statement shape shares (the lift rule of
// sqlparse.Reader says which texts those are): the fingerprint, the AST in
// which the lifted literals are parameter slots numbered after the text's
// own `?`s, or the parse error, what each layer asks of the statement, and
// the slot its plan is cached in (§4.1). Everything but the slot is
// immutable once read — nothing downstream writes to an AST — so one Shape
// serves every connection that runs any of its texts, concurrently.
type Shape struct {
	Fingerprint string
	// AST is nil when Err is set. A statement that failed to parse still
	// runs: it opens a span under its (fallback) fingerprint and returns
	// Err, so malformed SQL lands in sys.statements.
	AST sqlparse.Statement
	Err error
	// Routable: another instance can answer it — a SELECT that reads no
	// sys.* table and calls no PROPERTY(), at any depth.
	Routable bool

	writes bool // running it can change the database (sqlparse.Writes)
	kind   stmtKind

	// key is what the statement table files the shape under.
	key string
	// plan caches the statement's template: the SELECT's own, the source
	// query's of an INSERT ... SELECT, an UPDATE's, DELETE's or INSERT ...
	// VALUES's.
	plan opt.PlanSlot
	// parseUS is the time Prepare spent reading the text, until the first
	// execution's span claims it as its parse phase.
	parseUS atomic.Int64
	// last is the statement most recently prepared of this shape, and cost
	// the bytes the table accounts the entry — the key and what last holds
	// beyond it (both guarded by the statement table's mutex): preparing the
	// same text again — a statement run in a loop, BEGIN, COMMIT — returns
	// last and allocates nothing.
	last *Stmt
	cost int64
}

// Stmt is one submitted text, read once: the shape it shares with every text
// that differs from it only in lifted literals, and what is its own — the
// text as submitted, which is what a replica is sent, what the flight
// recorder and tracers record, and the literals lifted from it, which
// Conn.Run appends to the caller's parameters. Immutable; obtain one from
// DB.Prepare.
type Stmt struct {
	*Shape
	Text string

	lifted []val.Value
	nUser  int // `?` markers in Text: the lifted values bind after them
}

// stmtKind is what Conn.Run must know of a statement before running it.
type stmtKind uint8

const (
	kindOther    stmtKind = iota // reads nothing but its own DML targets
	kindBegin                    // BEGIN
	kindBeginRO                  // BEGIN READ ONLY
	kindQuery                    // a query, bare or under EXPLAIN
	kindSubquery                 // DML embedding a query: INSERT ... SELECT, subqueries in UPDATE / DELETE
)

// newShape parses the text rd has just read: the one place, saved-trace
// analysis apart, where SQL is parsed. A text that lifted literals but does
// not parse is read again verbatim, so that its error is the one the text
// itself earns, and is filed under itself: stood reports whether the
// lifting did.
func newShape(rd *sqlparse.Reader, key []byte, lifted bool, text string, start time.Time) (sh *Shape, stood bool) {
	sh = &Shape{}
	sh.AST, sh.Fingerprint, sh.Err = rd.Parse()
	if sh.Err != nil && lifted {
		rd.Verbatim()
		sh.AST, sh.Fingerprint, sh.Err = rd.Parse()
		key, lifted = nil, false
	}
	if sh.key = text; key != nil {
		sh.key = string(key)
	}
	sh.parseUS.Store(time.Since(start).Microseconds())
	if sh.Err != nil {
		return sh, lifted
	}
	sh.writes = sqlparse.Writes(sh.AST)
	inner, explained := sh.AST, false
	if ex, ok := inner.(*sqlparse.Explain); ok {
		inner, explained = ex.Stmt, true
	}
	subquery := false
	switch s := inner.(type) {
	case *sqlparse.Select:
		sh.kind = kindQuery
		sh.Routable = !explained && !s.InstanceState
	case *sqlparse.Insert:
		subquery = s.Query != nil
	case *sqlparse.Update:
		subquery = s.Subquery
	case *sqlparse.Delete:
		subquery = s.Subquery
	case *sqlparse.Begin:
		sh.kind = kindBegin
		if s.ReadOnly {
			sh.kind = kindBeginRO
		}
	}
	if subquery {
		sh.kind = kindSubquery
	}
	return sh, lifted
}

// stmtCacheBytes bounds the statement table in bytes, not entries: of each
// shape's key and of the one submitted text and value vector it remembers.
// A bulk load's multi-row INSERTs (tens of kilobytes each) and shapes nobody
// repeats displace each other instead of pinning a table's worth of ASTs.
const stmtCacheBytes = 256 << 10

// valueBytes is the size of one val.Value in a lifted value vector.
const valueBytes = int(unsafe.Sizeof(val.Value{}))

// stmtTable interns shapes by key, DB-wide, evicting the least recently
// prepared: the engine's only text-keyed cache (the plan cache is the slot
// in each entry). An evicted shape stays valid for whoever holds a Stmt of
// it — a server-side prepared handle — it is just no longer found by text.
type stmtTable struct {
	mu    sync.Mutex
	byKey map[string]*list.Element // of *Shape
	lru   list.List                // front = most recent
	// Written under mu, read by the core.stmt_cache.* gauges without it.
	entries, bytes, evictions atomic.Int64
}

var readers = sync.Pool{New: func() any { return new(sqlparse.Reader) }}

// Prepare returns the statement object for text. One lexer pass finds the
// text's shape key and lifts its literals; the text is parsed only if the
// table does not already hold that shape.
func (db *DB) Prepare(text string) *Stmt {
	start := time.Now()
	rd := readers.Get().(*sqlparse.Reader)
	defer func() {
		rd.Release()
		readers.Put(rd)
	}()
	key, lifted := rd.Read(text)

	t := &db.stmts
	t.mu.Lock()
	defer t.mu.Unlock()
	var el *list.Element
	var ok bool
	if key == nil {
		el, ok = t.byKey[text]
	} else if el, ok = t.byKey[string(key)]; !ok && lifted != nil {
		// A text that lexes but does not parse is filed verbatim.
		if el, ok = t.byKey[text]; ok {
			lifted = nil
		}
	}
	if !ok {
		// Parse outside the lock; if another connection interned the same
		// shape meanwhile, its object wins: one shape, one plan slot.
		t.mu.Unlock()
		sh, stood := newShape(rd, key, lifted != nil, text, start)
		if !stood {
			lifted = nil
		}
		db.parses.Inc()
		t.mu.Lock()
		if el, ok = t.byKey[sh.key]; !ok {
			el = t.lru.PushFront(sh)
			t.byKey[sh.key] = el
			t.entries.Add(1)
		}
	}
	t.lru.MoveToFront(el)
	sh := el.Value.(*Shape)
	st := sh.last
	if st == nil || st.Text != text {
		st = &Stmt{Shape: sh, Text: text, lifted: lifted, nUser: rd.UserParams()}
		cost := int64(len(sh.key))
		if lifted != nil {
			cost += int64(len(text) + len(lifted)*valueBytes)
		}
		t.bytes.Add(cost - sh.cost)
		sh.last, sh.cost = st, cost
	}
	for t.bytes.Load() > stmtCacheBytes {
		old := t.lru.Remove(t.lru.Back()).(*Shape)
		delete(t.byKey, old.key)
		t.entries.Add(-1)
		t.bytes.Add(-old.cost)
		t.evictions.Add(1)
	}
	return st
}

// bind merges the caller's parameters with the statement's lifted literals,
// which fill the slots after the text's own `?`s.
func (st *Stmt) bind(params []val.Value) ([]val.Value, error) {
	if len(st.lifted) == 0 {
		return params, nil
	}
	if len(params) < st.nUser {
		return nil, fmt.Errorf("opt: parameter %d not supplied", len(params)+1)
	}
	// Surplus parameters are ignored, as ever.
	merged := make([]val.Value, 0, st.nUser+len(st.lifted))
	return append(append(merged, params[:st.nUser]...), st.lifted...), nil
}
