package stats

import (
	"strings"
	"sync"

	"anywheredb/internal/val"
)

// PredOp is the relational operator of a long-string statistics bucket
// (§3.1): equality, non-equality, BETWEEN, IS NULL, or LIKE.
type PredOp uint8

const (
	OpEq PredOp = iota
	OpNe
	OpBetween
	OpIsNull
	OpLike
)

// StringStats is the separate statistics infrastructure for longer string
// and binary columns: instead of saving potentially very long values as
// bucket boundaries, it dynamically maintains a list of observed predicates
// keyed by a non-order-preserving hash, each with its observed selectivity.
// When statistics are collected, buckets are created not only for entire
// string values but also for the "words" within them, which makes LIKE
// '%word%' patterns estimable (§3.1).
type StringStats struct {
	mu       sync.RWMutex
	buckets  map[strKey]*strObs
	maxEntry int
	tick     uint64
}

type strKey struct {
	hash uint64
	op   PredOp
}

type strObs struct {
	sel      float64
	n        float64
	lastUsed uint64
}

// NewStringStats returns an empty long-string statistics set.
func NewStringStats() *StringStats {
	return &StringStats{buckets: make(map[strKey]*strObs), maxEntry: 512}
}

// Replace makes s hold what the freshly built src does (see
// Histogram.Replace).
func (s *StringStats) Replace(src *StringStats) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.buckets, s.maxEntry, s.tick = src.buckets, src.maxEntry, src.tick
}

// Observe records the true selectivity of a predicate evaluated during
// query execution, as a moving average.
func (s *StringStats) Observe(op PredOp, operand string, sel float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.tick++
	key := strKey{val.Hash64(val.NewStr(operand)), op}
	if o, ok := s.buckets[key]; ok {
		o.n++
		o.sel += (sel - o.sel) / o.n
		o.lastUsed = s.tick
		return
	}
	if len(s.buckets) >= s.maxEntry {
		s.evictLocked()
	}
	s.buckets[key] = &strObs{sel: sel, n: 1, lastUsed: s.tick}
}

// ObserveWord accumulates the fraction of rows whose value contains word.
func (s *StringStats) ObserveWord(word string, rowFraction float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.tick++
	key := strKey{val.Hash64(val.NewStr(word)), OpLike}
	if o, ok := s.buckets[key]; ok {
		// Word buckets accumulate: multiple rows contribute fractions.
		o.sel += rowFraction
		if o.sel > 1 {
			o.sel = 1
		}
		o.lastUsed = s.tick
		return
	}
	if len(s.buckets) >= s.maxEntry {
		s.evictLocked()
	}
	s.buckets[key] = &strObs{sel: rowFraction, n: 1, lastUsed: s.tick}
}

func (s *StringStats) evictLocked() {
	// Drop the least recently used bucket.
	var victim strKey
	oldest := ^uint64(0)
	for k, o := range s.buckets {
		if o.lastUsed < oldest {
			oldest = o.lastUsed
			victim = k
		}
	}
	delete(s.buckets, victim)
}

// Estimate returns the remembered selectivity for a predicate, if any.
func (s *StringStats) Estimate(op PredOp, operand string) (float64, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if o, ok := s.buckets[strKey{val.Hash64(val.NewStr(operand)), op}]; ok {
		return o.sel, true
	}
	return 0, false
}

// EstimateLike estimates a LIKE pattern: an exact bucket for the pattern if
// one was observed; otherwise, if the pattern is of the common
// word-matching form '%word%', the word's bucket.
func (s *StringStats) EstimateLike(pattern string) (float64, bool) {
	if sel, ok := s.Estimate(OpLike, pattern); ok {
		return sel, true
	}
	inner := strings.Trim(pattern, "%")
	if inner != "" && !strings.ContainsAny(inner, "%_") && inner != pattern {
		if sel, ok := s.Estimate(OpLike, inner); ok {
			return sel, true
		}
	}
	return 0, false
}
