package core

import (
	"container/list"
	"sync"
	"sync/atomic"
	"time"

	"anywheredb/internal/opt"
	"anywheredb/internal/sqlparse"
)

// Stmt is one statement's text, read once: its fingerprint, its AST or
// parse error, what each layer asks of it, and the slot its plan is cached
// in (§4.1). Everything but the slot is immutable after Prepare — nothing
// downstream writes to an AST — so one Stmt serves every connection that
// runs its text, concurrently. Obtain one from DB.Prepare.
type Stmt struct {
	Text        string
	Fingerprint string
	// AST is nil when Err is set. A Stmt that failed to parse still runs: it
	// opens a span under its (fallback) fingerprint and returns Err, so
	// malformed SQL lands in sys.statements.
	AST sqlparse.Statement
	Err error
	// Routable: another instance can answer it — a SELECT that reads no
	// sys.* table and calls no PROPERTY(), at any depth.
	Routable bool

	writes bool // running it can change the database (sqlparse.Writes)
	kind   stmtKind

	// plan caches the join order of the statement's SELECT: the statement
	// itself, or the source query of an INSERT ... SELECT.
	plan opt.PlanSlot
	// parseUS is the time Prepare spent reading the text, until the first
	// execution's span claims it as its parse phase.
	parseUS atomic.Int64
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

// newStmt reads text: the one place, saved-trace analysis apart, where SQL
// is lexed and parsed.
func newStmt(text string) *Stmt {
	start := time.Now()
	st := &Stmt{Text: text}
	st.AST, st.Fingerprint, st.Err = sqlparse.Prepare(text)
	st.parseUS.Store(time.Since(start).Microseconds())
	if st.Err != nil {
		return st
	}
	st.writes = sqlparse.Writes(st.AST)
	inner, explained := st.AST, false
	if ex, ok := inner.(*sqlparse.Explain); ok {
		inner, explained = ex.Stmt, true
	}
	subquery := false
	switch s := inner.(type) {
	case *sqlparse.Select:
		st.kind = kindQuery
		st.Routable = !explained && !s.InstanceState
	case *sqlparse.Insert:
		subquery = s.Query != nil
	case *sqlparse.Update:
		subquery = s.Subquery
	case *sqlparse.Delete:
		subquery = s.Subquery
	case *sqlparse.Begin:
		st.kind = kindBegin
		if s.ReadOnly {
			st.kind = kindBeginRO
		}
	}
	if subquery {
		st.kind = kindSubquery
	}
	return st
}

// stmtCacheBytes bounds the statement table in bytes of text, not entries:
// a bulk load's multi-row INSERTs (tens of kilobytes each, never repeated)
// displace each other instead of pinning a table's worth of ASTs.
const stmtCacheBytes = 256 << 10

// stmtTable interns statements by exact text, DB-wide, evicting the least
// recently prepared: the engine's only text-keyed cache (the plan cache is
// the slot in each entry). An evicted Stmt stays valid for whoever holds
// it — a server-side prepared handle — it is just no longer found by text.
type stmtTable struct {
	mu     sync.Mutex
	byText map[string]*list.Element // of *Stmt
	lru    list.List                // front = most recent
	// Written under mu, read by the core.stmt_cache.* gauges without it.
	entries, bytes, evictions atomic.Int64
}

// Prepare returns the statement object for text, reading the text only if
// the table does not already hold it.
func (db *DB) Prepare(text string) *Stmt {
	t := &db.stmts
	t.mu.Lock()
	el, ok := t.byText[text]
	if !ok {
		// Read outside the lock; if another connection interned the same
		// text meanwhile, its object wins: one text, one plan slot.
		t.mu.Unlock()
		st := newStmt(text)
		db.parses.Inc()
		t.mu.Lock()
		if el, ok = t.byText[text]; !ok {
			el = t.lru.PushFront(st)
			t.byText[text] = el
			t.entries.Add(1)
			t.bytes.Add(int64(len(text)))
		}
	}
	t.lru.MoveToFront(el)
	for t.bytes.Load() > stmtCacheBytes {
		old := t.lru.Remove(t.lru.Back()).(*Stmt)
		delete(t.byText, old.Text)
		t.entries.Add(-1)
		t.bytes.Add(-int64(len(old.Text)))
		t.evictions.Add(1)
	}
	t.mu.Unlock()
	return el.Value.(*Stmt)
}
