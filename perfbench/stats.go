package main

import (
	"math"
	"sort"
)

// tailLadder is the fixed set of percentiles a tail is chosen from. A
// fixed ladder keeps the reported percentile the same across runs whose
// sample counts differ slightly.
var tailLadder = []float64{99.9, 99, 95, 90, 75, 50}

// minBeyond is how many samples must lie beyond a reported tail
// percentile.
const minBeyond = 10

// sample is a set of measurements of one quantity.
type sample []float64

func (s sample) sorted() []float64 {
	out := append([]float64(nil), s...)
	sort.Float64s(out)
	return out
}

// percentile returns the nearest-rank p-th percentile (0 < p ≤ 100): the
// smallest value with at least p% of the samples at or below it. It is
// NaN for an empty sample.
func (s sample) percentile(p float64) float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	v := s.sorted()
	return v[rank(len(v), p)-1]
}

// rank is the 1-based nearest rank of the p-th percentile of n samples.
func rank(n int, p float64) int {
	k := int(math.Ceil(p/100*float64(n) - 1e-9)) // 99.9/100*10000 is 9990.000000000002
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	return k
}

// tail returns the highest ladder percentile with at least minBeyond
// samples ranked beyond it, and its value. With fewer than minBeyond+1
// samples no percentile qualifies and ok is false.
func (s sample) tail() (p, value float64, ok bool) {
	for _, p := range tailLadder {
		if len(s)-rank(len(s), p) >= minBeyond {
			return p, s.percentile(p), true
		}
	}
	return 0, math.NaN(), false
}

func (s sample) mean() float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, v := range s {
		sum += v
	}
	return sum / float64(len(s))
}

func (s sample) median() float64 { return s.percentile(50) }

// quartiles returns the three cut points dividing the sample into four
// groups, computed exactly as Python's statistics.quantiles(data, n=4)
// does with its default exclusive method. It needs at least two
// samples.
func (s sample) quartiles() (q [3]float64, ok bool) {
	if len(s) < 2 {
		return q, false
	}
	v := s.sorted()
	ld := len(v)
	m := ld + 1
	const n = 4
	for i := 1; i < n; i++ {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		q[i-1] = (v[j-1]*float64(n-delta) + v[j]*float64(delta)) / n
	}
	return q, true
}
