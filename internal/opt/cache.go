package opt

import (
	"fmt"
	"sync"
)

// planTraining is the number of identical consecutive optimizations after
// which a statement's plan is cached.
const planTraining = 3

// PlanSlot caches the access plan of one statement (§4.1). The engine
// re-optimizes every statement at each invocation — except that a
// statement's plan is cached once successive optimizations during a
// training period produce identical plans. To keep the cached plan fresh,
// the statement is re-verified at intervals taken from a decaying
// logarithmic scale (the 2ᵏ-th uses); a mismatch drops the plan and
// restarts training. The slot belongs to the statement object, shared by
// every connection running that text; the zero value is untrained.
type PlanSlot struct {
	mu         sync.Mutex
	sig        string
	steps      []Step
	trainCount int
	cached     bool
	uses       uint64
	nextVerify uint64
}

// Signature renders a plan skeleton for identity comparison.
func Signature(steps []Step) string {
	s := ""
	for _, st := range steps {
		ixName := "-"
		if st.Index != nil {
			ixName = st.Index.Name
		}
		s += fmt.Sprintf("[q%d %s %s]", st.Quant, st.Method, ixName)
	}
	return s
}

// Lookup checks for a cached plan. When hit is true, steps is the cached
// skeleton (shared: read-only); verify additionally asks the caller to
// re-optimize this time and call Verify with the fresh result.
func (s *PlanSlot) Lookup() (steps []Step, hit, verify bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.cached {
		return nil, false, false
	}
	s.uses++
	return s.steps, true, s.uses >= s.nextVerify
}

// Offer records the result of an optimization. During training, identical
// consecutive plans move the statement toward cached status; any change
// restarts the count.
func (s *PlanSlot) Offer(steps []Step) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if sig := Signature(steps); s.trainCount == 0 || s.sig != sig {
		s.retrain(sig, steps)
		return
	}
	s.trainCount++
	if !s.cached && s.trainCount >= planTraining {
		s.cached = true
		s.uses = 0
		s.nextVerify = 2
	}
}

// Verify reconciles a cached plan with a fresh optimization: a match
// doubles the verification interval (decaying frequency on a logarithmic
// scale); a mismatch drops the cached plan and restarts training.
func (s *PlanSlot) Verify(fresh []Step) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if sig := Signature(fresh); sig != s.sig {
		s.retrain(sig, fresh)
		return false
	}
	s.nextVerify = max(s.uses*2, s.uses+1)
	return true
}

// Invalidate drops a plan whose join order no longer fits the catalog and
// restarts training from the fresh optimization that found it so.
func (s *PlanSlot) Invalidate(fresh []Step) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.retrain(Signature(fresh), fresh)
}

func (s *PlanSlot) retrain(sig string, steps []Step) {
	s.sig, s.steps = sig, append([]Step(nil), steps...)
	s.trainCount, s.cached = 1, false
}
