package main

import (
	"math"
	"strings"
	"testing"
)

func TestPercentileRule(t *testing.T) {
	cases := []struct {
		n       int
		p       float64
		beyond  int
		support bool
	}{
		{1000, 99, 10, true},    // rank 990: exactly ten samples above
		{999, 99, 9, false},     // rank 990: nine above
		{45, 75, 11, true},      // the paper campaign's 45 rounds support p75
		{45, 90, 4, false},      // but not p90
		{4, 75, 1, false},       // a scale run's four rounds support no tail
		{10000, 99.9, 10, true}, // float rounding must not move an exact rank
	}
	for _, c := range cases {
		if got := beyond(c.n, c.p); got != c.beyond {
			t.Errorf("beyond(%d, p%g) = %d, want %d", c.n, c.p, got, c.beyond)
		}
		tm := timing{sorted: make([]float64, c.n)}
		if got := tm.supports(c.p); got != c.support {
			t.Errorf("n=%d supports p%g = %v, want %v", c.n, c.p, got, c.support)
		}
	}
	for _, c := range []struct {
		n  int
		p  float64
		ok bool
	}{{10000, 99.9, true}, {1000, 99, true}, {200, 95, true}, {100, 90, true}, {45, 75, true}, {39, 75, false}} {
		p, ok := highestSupported(c.n)
		if p != c.p || ok != c.ok {
			t.Errorf("highestSupported(%d) = p%g %v, want p%g %v", c.n, p, ok, c.p, c.ok)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ p, want float64 }{{50, 5}, {75, 8}, {90, 9}, {99, 10}, {10, 1}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("p%g = %g, want %g", c.p, got, c.want)
		}
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of no samples should be NaN")
	}
}

func TestDescribeReportsCount(t *testing.T) {
	xs := make([]float64, 45)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	got := newTiming("round", "ms", xs).describe()
	for _, want := range []string{"median 23 ms", "p75 34 ms", "n=45"} {
		if !strings.Contains(got, want) {
			t.Errorf("describe() = %q, missing %q", got, want)
		}
	}
	got = newTiming("campaign", "s", []float64{3, 1, 2}).describe()
	if !strings.Contains(got, "no percentile has 10 samples beyond") || !strings.Contains(got, "n=3") {
		t.Errorf("describe() of 3 samples = %q, want the unsupported tail flagged", got)
	}
}

// The reference values come from Python's statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{3.1, 0.5, 2.2, 9.9, 4.4, 7.0, 1.5}, [3]float64{1.5, 3.1, 7.0}},
	}
	for _, c := range cases {
		q1, q2, q3 := quartiles(c.xs)
		got := [3]float64{q1, q2, q3}
		for i := range got {
			if math.Abs(got[i]-c.want[i]) > 1e-12 {
				t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
				break
			}
		}
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(got-1.0) > 1e-12 {
		t.Errorf("spread = %g, want (8.25-2.75)/5.5 = 1", got)
	}
}
