// Package anywheredb is an embedded, self-managing relational database
// engine: a from-scratch Go reproduction of the system described in
// "SQL Anywhere: A Holistic Approach to Database Self-management"
// (ICDE 2007 Workshop on Self-Managing Database Systems).
//
// The engine is designed for zero-administration deployments. Its
// self-management features work in concert:
//
//   - a dynamic buffer pool — one heterogeneous pool of table, index, log,
//     bitmap, and connection-heap pages — whose size follows a feedback
//     controller reading the (simulated) OS working set and free memory;
//   - self-managing statistics: equi-depth histograms with frequent-value
//     singleton buckets maintained as a side effect of query execution and
//     DML, plus join histograms computed on the fly;
//   - a cost-based optimizer using a branch-and-bound, depth-first,
//     left-deep join enumerator under a search-effort governor, priced by
//     a calibratable Disk Transfer Time model;
//   - adaptive query execution: hash joins that switch to index nested
//     loops after learning the true build cardinality, memory-governed
//     operators that evict their largest partition under pressure,
//     low-memory fallbacks, and intra-query parallelism whose worker count
//     can change mid-query;
//   - statements read once into an object shared by every connection
//     (text, fingerprint, AST), each carrying a plan cache slot with a
//     training period and decaying-logarithmic re-verification.
//
// Open a database, connect, and speak SQL:
//
//	db, err := anywheredb.Open(anywheredb.Options{Dir: "data"})
//	conn, err := db.Connect()
//	conn.Exec("CREATE TABLE t (id INT, name VARCHAR(40))")
//	rows, err := conn.Query("SELECT name FROM t WHERE id = ?", anywheredb.Int(1))
package anywheredb

import (
	"time"

	"anywheredb/internal/core"
	"anywheredb/internal/faultinject"
	"anywheredb/internal/val"
)

// Error taxonomy. Every I/O failure surfaced by the engine is classified
// so callers can decide with errors.Is whether to retry (transient),
// degrade (permanent), distrust the data (corrupt), or treat the process
// as dead (crashed). ErrReadOnly marks statements refused in degraded mode.
var (
	ErrTransient = faultinject.ErrTransient
	ErrPermanent = faultinject.ErrPermanent
	ErrCorrupt   = faultinject.ErrCorrupt
	ErrCrashed   = faultinject.ErrCrashed
	ErrReadOnly  = core.ErrReadOnly
)

// Options is what a deployment says about a database; the engine chooses
// everything else itself.
type Options struct {
	// Dir holds the database files; empty runs fully in memory.
	Dir string
	// PoolMinPages and PoolMaxPages bound the buffer pool, in pages, for
	// the life of the server (§2); the cache governor sizes it in between.
	// Zero selects 16 and 4096.
	PoolMinPages, PoolMaxPages int
	// AutoShutdown closes the database when the last connection closes
	// (the embedded deployment of §1).
	AutoShutdown bool
	// StatementTimeout bounds each statement's wall-clock time (0 = none).
	StatementTimeout time.Duration
}

// DB is an open database instance.
type DB = core.DB

// Conn is a database connection.
type Conn = core.Conn

// Rows is a query result cursor.
type Rows = core.Rows

// Result reports a statement's effect.
type Result = core.Result

// Value is a SQL value.
type Value = val.Value

// Open creates or opens a database.
func Open(opts Options) (*DB, error) {
	return core.Open(core.Options{
		Dir:              opts.Dir,
		PoolMinPages:     opts.PoolMinPages,
		PoolMaxPages:     opts.PoolMaxPages,
		AutoShutdown:     opts.AutoShutdown,
		StatementTimeout: opts.StatementTimeout,
	})
}

// Int builds an INT parameter value.
func Int(v int64) Value { return val.NewInt(v) }

// Double builds a DOUBLE parameter value.
func Double(v float64) Value { return val.NewDouble(v) }

// Str builds a STRING parameter value.
func Str(v string) Value { return val.NewStr(v) }

// Null is the SQL NULL value.
var Null = val.Null
