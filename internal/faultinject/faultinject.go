// Package faultinject is a deterministic, seeded fault-schedule engine for
// the storage stack: transient and permanent read/write errors, torn or
// silently corrupted page writes, corrupted WAL flushes, and named
// crashpoints. The paper's thesis is that an embedded engine must survive
// hostile, unattended environments (§1: zero-administration deployments on
// consumer hardware); this package supplies the hostile environment, on
// demand and reproducibly, so the recovery and degradation paths can be
// torture-tested instead of trusted.
//
// The package sits below every storage layer and therefore imports none of
// them: store, wal, and buffer each accept an Injector and consult it
// before touching their backing media.
package faultinject

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"
)

// Op identifies the kind of I/O operation being attempted. The arg passed
// alongside an Op is operation-specific: the page id for OpRead/OpWrite,
// the file id for OpSync, the log tail offset for OpWALFlush.
type Op uint8

const (
	// OpRead is a page read from a database file.
	OpRead Op = iota
	// OpWrite is a page write to a database file.
	OpWrite
	// OpSync is a file sync (store checkpointing).
	OpSync
	// OpWALFlush is a WAL group-commit flush (write + sync of the log
	// buffer). The data passed is the full unflushed buffer, so a torn
	// flush can persist a prefix of it.
	OpWALFlush
)

func (o Op) String() string {
	switch o {
	case OpRead:
		return "read"
	case OpWrite:
		return "write"
	case OpSync:
		return "sync"
	case OpWALFlush:
		return "walflush"
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// Sentinel error taxonomy. Injected (and real) I/O failures are classified
// so upper layers can decide with errors.Is: transient errors are worth a
// bounded retry, permanent errors trigger read-only degraded mode, corrupt
// data is dropped or rejected, and a crash error means the simulated
// machine has lost power and every subsequent operation fails.
var (
	// ErrTransient marks an error expected to clear on retry (a loose
	// cable, a momentary controller timeout).
	ErrTransient = errors.New("faultinject: transient I/O error")
	// ErrPermanent marks an error that will not clear: the medium is gone.
	ErrPermanent = errors.New("faultinject: permanent I/O error")
	// ErrCorrupt marks data that failed validation (CRC mismatch, torn
	// page).
	ErrCorrupt = errors.New("faultinject: corrupt data")
	// ErrCrashed marks operations attempted after a scheduled crash; the
	// process must discard un-synced state and recover.
	ErrCrashed = errors.New("faultinject: simulated crash")
)

// classified wraps a cause with one of the sentinel classes so both
// errors.Is(err, ErrTransient) and errors.Is(err, cause) hold.
type classified struct {
	cause error
	class error
}

func (c *classified) Error() string { return c.class.Error() + ": " + c.cause.Error() }

func (c *classified) Unwrap() []error { return []error{c.class, c.cause} }

func classify(class, cause error) error {
	if cause == nil {
		return class
	}
	if errors.Is(cause, class) {
		return cause
	}
	return &classified{cause: cause, class: class}
}

// Transient wraps err as retry-able.
func Transient(err error) error { return classify(ErrTransient, err) }

// Permanent wraps err as unrecoverable media failure.
func Permanent(err error) error { return classify(ErrPermanent, err) }

// Corrupt wraps err as a data-integrity failure.
func Corrupt(err error) error { return classify(ErrCorrupt, err) }

// Crashed wraps err as a post-crash failure.
func Crashed(err error) error { return classify(ErrCrashed, err) }

// Injector intercepts storage operations.
//
// Fault is consulted before an operation reaches the backing medium. Its
// return values form a small protocol:
//
//	nil, nil    — proceed normally
//	nil, err    — fail the operation; nothing reaches the medium
//	repl, nil   — the medium silently receives repl instead of data
//	              (silent corruption); the caller sees success
//	repl, err   — the medium receives repl (a torn prefix) and the
//	              caller sees err (a torn write at a crash)
//
// data is nil for reads. Implementations must not retain or mutate data;
// repl, when non-nil, must be a fresh slice no longer than data.
//
// Crashpoint is consulted at named control-flow points (commit, checkpoint,
// recovery). A non-nil return — conventionally wrapping ErrCrashed — makes
// the caller abandon the operation as if power had been lost.
type Injector interface {
	Fault(op Op, arg uint64, data []byte) ([]byte, error)
	Crashpoint(name string) error
}

// Stats counts fault-handling activity. Core publishes one Stats as the
// fault.injected / fault.retried / fault.gaveup telemetry counters.
type Stats struct {
	// Injected counts faults delivered by the injector (errors and silent
	// replacements).
	Injected atomic.Uint64
	// Retried counts retry attempts made after a transient error.
	Retried atomic.Uint64
	// GaveUp counts operations that exhausted their retry budget.
	GaveUp atomic.Uint64
}

// counted decorates an Injector, counting every delivered fault in Stats.
type counted struct {
	in Injector
	st *Stats
}

// Counted wraps inj so every injected fault increments st.Injected. A nil
// inj yields nil, so callers can wrap unconditionally.
func Counted(inj Injector, st *Stats) Injector {
	if inj == nil {
		return nil
	}
	return &counted{in: inj, st: st}
}

func (c *counted) Fault(op Op, arg uint64, data []byte) ([]byte, error) {
	repl, err := c.in.Fault(op, arg, data)
	if repl != nil || err != nil {
		c.st.Injected.Add(1)
	}
	return repl, err
}

func (c *counted) Crashpoint(name string) error {
	err := c.in.Crashpoint(name)
	if err != nil {
		c.st.Injected.Add(1)
	}
	return err
}

// RetryPolicy bounds the exponential-backoff retry of transient I/O
// errors. The zero value disables retries entirely (one attempt, no
// backoff), which preserves the pre-faultinject behaviour of every layer.
type RetryPolicy struct {
	// MaxAttempts is the total number of tries including the first.
	// Values <= 1 mean no retry.
	MaxAttempts int
	// BaseDelay is the sleep before the first retry; each subsequent
	// retry doubles it, capped at MaxDelay.
	BaseDelay time.Duration
	// MaxDelay caps the backoff.
	MaxDelay time.Duration
}

// DefaultRetryPolicy is the engine default: four attempts, 100µs initial
// backoff doubling to at most 5ms — enough to ride out a transient burst
// without stalling a statement visibly.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{MaxAttempts: 4, BaseDelay: 100 * time.Microsecond, MaxDelay: 5 * time.Millisecond}
}

// Retry runs fn, retrying with exponential backoff while it fails with an
// error classified ErrTransient. Non-transient errors return immediately.
// st may be nil; when set, Retried counts retry attempts and GaveUp counts
// transient failures that exhausted the budget.
func Retry(pol RetryPolicy, st *Stats, fn func() error) error {
	err := fn()
	if err == nil || !errors.Is(err, ErrTransient) {
		return err
	}
	delay := pol.BaseDelay
	for attempt := 1; attempt < pol.MaxAttempts; attempt++ {
		if st != nil {
			st.Retried.Add(1)
		}
		if delay > 0 {
			time.Sleep(delay)
			delay *= 2
			if pol.MaxDelay > 0 && delay > pol.MaxDelay {
				delay = pol.MaxDelay
			}
		}
		err = fn()
		if err == nil || !errors.Is(err, ErrTransient) {
			return err
		}
	}
	if st != nil {
		st.GaveUp.Add(1)
	}
	return err
}
