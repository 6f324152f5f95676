package experiments

import (
	"errors"
	"fmt"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"anywheredb/internal/core"
	"anywheredb/internal/flightrec"
	"anywheredb/internal/repl"
	"anywheredb/internal/server"
	"anywheredb/internal/server/client"
	"anywheredb/internal/telemetry"
)

// The harness the database experiments share: open a database (in memory
// or in a temporary directory) and optionally put a wire server and a
// log-shipping primary in front of it; load a table in multi-row INSERTs;
// drive N workers for a window or a count; ride out admission sheds the way
// the wire contract tells a client to; and read the result back from the
// flight recorder's digests and the telemetry registry. Everything a rig
// starts goes on one cleanup stack that close unwinds in reverse.

// rig is one database under test.
type rig struct {
	db    *core.DB
	conn  *core.Conn     // embedded connection for setup and read-back
	srv   *server.Server // set by serve
	admin *client.Client // wire connection for setup and read-back, set by serve
	prim  *repl.Primary  // set by ship
	undo  []func() error
}

// openRig opens a database with opts and connects to it. With onDisk the
// database lives in a fresh temporary directory that close removes;
// otherwise it lives wherever opts.Dir says (in memory when empty).
func openRig(opts core.Options, onDisk bool) (*rig, error) {
	r := &rig{}
	var err error
	if onDisk {
		if opts.Dir, err = r.tempDir(); err != nil {
			return nil, err
		}
	}
	if r.db, err = core.Open(opts); err == nil {
		r.push(r.db.Close)
		r.conn, err = r.db.Connect()
	}
	if err != nil {
		r.close()
		return nil, err
	}
	r.push(r.conn.Close)
	return r, nil
}

// push adds an undo step to the cleanup stack.
func (r *rig) push(f func() error) { r.undo = append(r.undo, f) }

// close undoes everything the rig started, newest first, and returns the
// first error an undo step reported.
func (r *rig) close() error {
	var first error
	for i := len(r.undo) - 1; i >= 0; i-- {
		if err := r.undo[i](); first == nil {
			first = err
		}
	}
	r.undo = nil
	return first
}

// tempDir makes a temporary directory that close removes.
func (r *rig) tempDir() (string, error) {
	dir, err := os.MkdirTemp("", "anywheredb-exp-")
	if err != nil {
		return "", err
	}
	r.push(func() error { return os.RemoveAll(dir) })
	return dir, nil
}

// exec runs setup statements, stopping at the first that fails. Once serve
// has run they go over the wire, like the experiment's own clients: the
// admission gate calibrates its latency baseline from the first statements
// it admits, so a server-backed experiment's setup is part of what its
// load measures.
func (r *rig) exec(stmts ...string) error {
	for _, s := range stmts {
		var err error
		if r.admin != nil {
			_, err = r.admin.Exec(s)
		} else {
			_, err = r.conn.Exec(s)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// load inserts rows 0..n-1 into tbl through exec, batch rows to a
// multi-row INSERT … VALUES; row(i) renders row i's value list, as in
// "(1, 2)".
func (r *rig) load(tbl string, n, batch int, row func(i int) string) error {
	var sb strings.Builder
	for lo := 0; lo < n; lo += batch {
		sb.Reset()
		sb.WriteString("INSERT INTO " + tbl + " VALUES ")
		for i := lo; i < lo+batch && i < n; i++ {
			if i > lo {
				sb.WriteString(", ")
			}
			sb.WriteString(row(i))
		}
		if err := r.exec(sb.String()); err != nil {
			return err
		}
	}
	return nil
}

// serve puts a wire server in front of the database and connects the
// rig's admin client to it. Once ship has run, the server routes reads
// through the primary's replica router.
func (r *rig) serve() error {
	var opts server.Options
	if r.prim != nil {
		opts.RouteRead = r.prim.RouteRead
	}
	srv, err := server.Start(r.db, opts)
	if err != nil {
		return err
	}
	r.srv = srv
	r.push(srv.Close)
	if r.admin, err = r.dial(); err != nil {
		return err
	}
	r.push(r.admin.Close)
	return nil
}

// dial opens a wire client to the server; the caller closes it.
func (r *rig) dial() (*client.Client, error) {
	return client.Dial(r.srv.Addr().String(), client.Options{})
}

// ship makes the database a log-shipping primary.
func (r *rig) ship(opts repl.PrimaryOptions) error {
	prim, err := repl.StartPrimary(r.db, opts)
	if err != nil {
		return err
	}
	r.prim = prim
	r.push(prim.Close)
	return nil
}

// replica starts a replica of the primary in a fresh temporary directory
// and waits up to wait for it to finish its initial sync. It returns the
// replica with its directory; close stops it and removes the directory.
func (r *rig) replica(name string, opts core.Options, wait time.Duration) (*repl.Replica, string, error) {
	dir, err := r.tempDir()
	if err != nil {
		return nil, "", err
	}
	rep, err := repl.StartReplica(repl.ReplicaOptions{
		Dir:         dir,
		PrimaryAddr: r.prim.Addr().String(),
		Name:        name,
		Core:        opts,
	})
	if err != nil {
		return nil, "", err
	}
	r.push(func() error { rep.Stop(); return nil })
	if !rep.WaitReady(wait) {
		return nil, "", fmt.Errorf("replica %s never finished its sync", name)
	}
	return rep, dir, nil
}

// offer sends query from `clients` wire connections until d has passed,
// riding out sheds, and returns how many statements completed and how many
// sheds the clients saw. query is a COUNT whose answer is always 0: any
// other answer is a torn result and fails the run, as does any error that
// is not a shed.
func (r *rig) offer(query string, clients int, d time.Duration) (completed, sheds int64, err error) {
	var done, shedN atomic.Int64
	err = drive(clients, func() { time.Sleep(d) }, func(_ int, stop func() bool) error {
		c, err := r.dial()
		if err != nil {
			return err
		}
		defer c.Close()
		for !stop() {
			rows, err := c.Query(query)
			if shed(err, &shedN) {
				continue
			}
			if err != nil {
				return err
			}
			if len(rows.Data) != 1 || rows.Data[0][0].I != 0 {
				return fmt.Errorf("torn result %v: the count must be 0", rows.Data)
			}
			done.Add(1)
		}
		return nil
	})
	return done.Load(), shedN.Load(), err
}

// digest returns the flight recorder's digest row of sql's fingerprint.
// sql is a text the experiment ran, so preparing it again parses nothing.
func (r *rig) digest(sql string) (flightrec.DigestStat, bool) {
	fp := r.db.Prepare(sql).Fingerprint
	for _, d := range r.db.FlightRecorder().Digests().Snapshot() {
		if d.Fingerprint == fp {
			return d, true
		}
	}
	return flightrec.DigestStat{}, false
}

// moved reads the telemetry value name now; the returned function reports
// how far it has moved since.
func (r *rig) moved(name string) func() int64 {
	before, _ := r.db.Telemetry().Value(name)
	return func() int64 {
		after, _ := r.db.Telemetry().Value(name)
		return after - before
	}
}

// sinceOpen reports every counter of reg that moved. An experiment's
// registry is born with the engine or rig it watches, so the delta is
// against zero.
func sinceOpen(reg *telemetry.Registry) []telemetry.Sample {
	return telemetry.Delta(nil, reg.Snapshot())
}

// drive runs workers 0..n-1 at once and, once every one has returned,
// returns the first error one of them did. hold runs on the calling
// goroutine while they work; when it returns, stop starts reporting true,
// and a worker that loops until stopped ends at its next check. A nil hold
// leaves each worker to finish its own count.
func drive(n int, hold func(), worker func(w int, stop func() bool) error) error {
	var stopped atomic.Bool
	errs := make([]error, n)
	var wg sync.WaitGroup
	for w := 0; w < n; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			errs[w] = worker(w, stopped.Load)
		}(w)
	}
	if hold != nil {
		hold()
		stopped.Store(true)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// shed reports whether err is the server's retryable refusal. If it is,
// shed counts it in sheds (when not nil) and backs off 1 ms, as the wire
// contract tells a client to, before the caller sends the statement again.
func shed(err error, sheds *atomic.Int64) bool {
	if !errors.Is(err, client.ErrRetryable) {
		return false
	}
	if sheds != nil {
		sheds.Add(1)
	}
	time.Sleep(time.Millisecond)
	return true
}

// untilAdmitted runs op until the server does not shed it and returns op's
// last error.
func untilAdmitted(sheds *atomic.Int64, op func() error) error {
	for {
		if err := op(); !shed(err, sheds) {
			return err
		}
	}
}
