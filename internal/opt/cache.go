package opt

import "sync"

// planTraining is the number of identical consecutive optimizations after
// which a statement's plan is cached.
const planTraining = 3

// PlanSlot caches the access plan of one statement (§4.1). The engine
// re-optimizes every statement at each invocation — except that a
// statement's plan is cached once successive optimizations during a
// training period produce identical plans. To keep the cached plan fresh,
// the statement is re-verified at intervals taken from a decaying
// logarithmic scale (the 2ᵏ-th uses); a mismatch drops the plan and
// restarts training. A statement that took the heuristic bypass has nothing
// to train or verify: its template is kept at its first compile. The slot
// belongs to the statement object, shared by every connection running that
// shape; the zero value is untrained. What it holds is a Template, immutable
// and so served without a copy.
type PlanSlot struct {
	mu         sync.Mutex
	tmpl       *Template
	trainCount int
	cached     bool
	uses       uint64
	nextVerify uint64
}

// Lookup checks for a cached template. When hit is true, verify additionally
// asks the caller to compile the statement afresh this time and call Verify
// with the result.
func (s *PlanSlot) Lookup() (t *Template, hit, verify bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.cached {
		return nil, false, false
	}
	s.uses++
	return s.tmpl, true, !s.tmpl.bypass && s.uses >= s.nextVerify
}

// Offer records the result of a compile. During training, identical
// consecutive plans move the statement toward cached status; any change
// restarts the count.
func (s *PlanSlot) Offer(t *Template) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.offer(t)
}

func (s *PlanSlot) offer(t *Template) {
	if t.bypass {
		s.tmpl, s.cached = t, true
		return
	}
	if s.trainCount == 0 || !s.tmpl.sameOrder(t) {
		s.retrain(t)
		return
	}
	s.trainCount++
	if !s.cached && s.trainCount >= planTraining {
		s.cached = true
		s.uses = 0
		s.nextVerify = 2
	}
}

// Verify reconciles a cached template with a fresh compile: a match doubles
// the verification interval (decaying frequency on a logarithmic scale); a
// mismatch drops the cached template and restarts training.
func (s *PlanSlot) Verify(fresh *Template) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.tmpl.sameOrder(fresh) {
		s.retrain(fresh)
		return false
	}
	s.nextVerify = max(s.uses*2, s.uses+1)
	return true
}

// Invalidate drops a template bound under a schema that has since changed
// and restarts training from the fresh compile that replaces it.
func (s *PlanSlot) Invalidate(fresh *Template) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.trainCount, s.cached = 0, false
	s.offer(fresh)
}

func (s *PlanSlot) retrain(t *Template) {
	s.tmpl = t
	s.trainCount, s.cached = 1, false
}
