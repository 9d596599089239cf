package main

import (
	"math"
	"testing"
)

func seq(n int) sample {
	s := make(sample, n)
	for i := range s {
		s[i] = float64(n - i) // reversed: the statistics must sort
	}
	return s
}

func TestPercentileNearestRank(t *testing.T) {
	s := seq(100)
	for _, c := range []struct{ p, want float64 }{{50, 50}, {90, 90}, {99, 99}, {99.9, 100}, {100, 100}, {0.5, 1}} {
		if got := s.percentile(c.p); got != c.want {
			t.Errorf("p%g of 1..100 = %g, want %g", c.p, got, c.want)
		}
	}
	if !math.IsNaN(sample(nil).percentile(50)) {
		t.Error("percentile of an empty sample should be NaN")
	}
}

// TestTailRule pins the tail rule: the highest ladder percentile with
// at least ten samples ranked beyond it.
func TestTailRule(t *testing.T) {
	cases := []struct {
		n       int
		wantP   float64
		wantVal float64
		ok      bool
	}{
		{10, 0, 0, false}, // nothing has ten samples beyond it
		{11, 0, 0, false}, // p50 ranks 6th: only five beyond
		{20, 50, 10, true},
		{39, 50, 20, true}, // p75 ranks 30th: nine beyond
		{40, 75, 30, true}, // p75 ranks 30th: ten beyond
		{99, 75, 75, true}, // p90 ranks 90th: nine beyond
		{100, 90, 90, true},
		{200, 95, 190, true},
		{1000, 99, 990, true},
		{10000, 99.9, 9990, true},
	}
	for _, c := range cases {
		p, v, ok := seq(c.n).tail()
		if ok != c.ok || (ok && (p != c.wantP || v != c.wantVal)) {
			t.Errorf("n=%d: tail = (p%g, %g, %v), want (p%g, %g, %v)", c.n, p, v, ok, c.wantP, c.wantVal, c.ok)
		}
		if ok && c.n-rank(c.n, p) < minBeyond {
			t.Errorf("n=%d: p%g leaves %d samples beyond", c.n, p, c.n-rank(c.n, p))
		}
	}
}

// TestQuartilesMatchPython checks quartiles against values printed by
// Python's statistics.quantiles(data, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		in   sample
		want [3]float64
	}{
		{sample{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{sample{3, 1, 2}, [3]float64{1, 2, 3}},
		{sample{5.5, 1.25}, [3]float64{0.1875, 3.375, 6.5625}},
		{sample{70, 10, 20, 30, 40, 50, 60}, [3]float64{20, 40, 60}},
	}
	for _, c := range cases {
		got, ok := c.in.quartiles()
		if !ok {
			t.Fatalf("%v: no quartiles", c.in)
		}
		for i := range got {
			if math.Abs(got[i]-c.want[i]) > 1e-12 {
				t.Errorf("%v: quartiles %v, want %v", c.in, got, c.want)
				break
			}
		}
	}
	if _, ok := (sample{1}).quartiles(); ok {
		t.Error("one sample should have no quartiles")
	}
}
