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
	"sync"
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

	mu      sync.Mutex
	waiters []*waiter
}

type waiter struct {
	deadline Micros
	ch       chan struct{}
}

// New returns a clock starting at virtual time zero.
func New() *Clock { return &Clock{} }

// Now reports the current virtual time in microseconds.
func (c *Clock) Now() Micros { return c.now.Load() }

// Advance moves virtual time forward by d microseconds and wakes any waiter
// whose deadline has been reached. Advancing by a negative duration panics:
// virtual time is monotonic by construction.
func (c *Clock) Advance(d Micros) Micros {
	if d < 0 {
		panic(fmt.Sprintf("vclock: negative advance %d", d))
	}
	t := c.now.Add(d)
	c.wake(t)
	return t
}

// After returns a channel that is closed once virtual time reaches now+d.
// Unlike time.After, it never fires on its own: some goroutine must call
// Advance.
func (c *Clock) After(d Micros) <-chan struct{} {
	w := &waiter{deadline: c.Now() + d, ch: make(chan struct{})}
	c.mu.Lock()
	if c.now.Load() >= w.deadline {
		close(w.ch)
	} else {
		c.waiters = append(c.waiters, w)
	}
	c.mu.Unlock()
	return w.ch
}

func (c *Clock) wake(t Micros) {
	c.mu.Lock()
	kept := c.waiters[:0]
	for _, w := range c.waiters {
		if w.deadline <= t {
			close(w.ch)
		} else {
			kept = append(kept, w)
		}
	}
	c.waiters = kept
	c.mu.Unlock()
}
