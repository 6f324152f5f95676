// Package vclock provides the virtual time source shared by the device
// simulators, the governors, and the background pollers.
//
// All latency-bearing components of the engine charge time to a Clock
// instead of sleeping, which makes every experiment deterministic and fast:
// the "actual cost" of a query plan is the virtual time its device accesses
// accumulated, and the cache-sizing controller's one-minute polling period
// elapses instantly in tests.
package vclock

import (
	"fmt"
	"sync/atomic"
)

// Micros is a duration or instant in virtual microseconds.
type Micros = int64

// Common durations expressed in virtual microseconds.
const (
	Millisecond Micros = 1_000
	Second      Micros = 1_000_000
	Minute      Micros = 60 * Second
)

// Clock is a monotonically advancing virtual clock. The zero value is a
// clock at time zero, ready to use. Clocks are safe for concurrent use.
type Clock struct {
	now atomic.Int64
}

// New returns a clock starting at virtual time zero.
func New() *Clock { return &Clock{} }

// Now reports the current virtual time in microseconds.
func (c *Clock) Now() Micros { return c.now.Load() }

// Advance moves virtual time forward by d microseconds and returns the new
// time. Advancing by a negative duration panics: virtual time is monotonic
// by construction.
func (c *Clock) Advance(d Micros) Micros {
	if d < 0 {
		panic(fmt.Sprintf("vclock: negative advance %d", d))
	}
	return c.now.Add(d)
}
