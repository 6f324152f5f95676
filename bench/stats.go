package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile of v by the rule Python's
// statistics.quantiles(method="exclusive") uses: position q*(n+1), linear
// interpolation between neighbours, clamped to the sample (Python would
// extrapolate an extreme quantile of a tiny sample; quartiles of three or
// more values never get there). The benchmark
// contract measures run-to-run spread with that function, so every
// quantile here (slice medians, latency percentiles, the selfcheck's
// quartiles) is taken the same way.
func quantile(v []float64, q float64) float64 {
	n := len(v)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n == 1 {
		return s[0]
	}
	pos := q * float64(n+1)
	j := int(math.Floor(pos))
	if j < 1 {
		j = 1
	}
	if j > n-1 {
		j = n - 1
	}
	frac := math.Min(math.Max(pos-float64(j), 0), 1)
	return s[j-1] + (s[j]-s[j-1])*frac
}

func median(v []float64) float64 { return quantile(v, 0.5) }

// iqrShare is the distance between the first and third quartile as a share
// of the median: the spread the contract bounds.
func iqrShare(v []float64) float64 {
	m := median(v)
	if m == 0 {
		return 0
	}
	return (quantile(v, 0.75) - quantile(v, 0.25)) / math.Abs(m)
}

// rangeShare is (max − min)/median: the whole observed range of single
// invocations, which the selfcheck turns into a regression bound.
func rangeShare(v []float64) float64 {
	m := median(v)
	if len(v) == 0 || m == 0 {
		return 0
	}
	lo, hi := v[0], v[0]
	for _, x := range v {
		lo = math.Min(lo, x)
		hi = math.Max(hi, x)
	}
	return (hi - lo) / math.Abs(m)
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var s float64
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

// ratio is a/b with 0 for an empty denominator (a count metric on a
// workload that never exercises the layer).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
