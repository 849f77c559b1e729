package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minBeyond is the number of samples that must lie above a percentile
// before the benchmark reports it as supported.
const minBeyond = 10

// rank returns the 1-based nearest-rank position of the p-th percentile
// (0 < p <= 100) among n samples.
func rank(n int, p float64) int {
	// The epsilon keeps float error (99.9/100*10000 = 9990.000000000002)
	// from moving an exact rank up by one.
	r := int(math.Ceil(p/100*float64(n) - 1e-9))
	return min(max(r, 1), n)
}

// percentile returns the nearest-rank p-th percentile of sorted, or NaN
// for no samples.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	return sorted[rank(len(sorted), p)-1]
}

// beyond reports how many of n samples lie above the p-th percentile.
func beyond(n int, p float64) int {
	if n == 0 {
		return 0
	}
	return n - rank(n, p)
}

// tailPercentiles are the tail percentiles the benchmark considers, from
// the highest down.
var tailPercentiles = []float64{99.9, 99, 95, 90, 75}

// highestSupported returns the highest tail percentile that leaves at
// least minBeyond of n samples above it; ok is false when even the
// lowest does not.
func highestSupported(n int) (p float64, ok bool) {
	for _, p := range tailPercentiles {
		if beyond(n, p) >= minBeyond {
			return p, true
		}
	}
	return tailPercentiles[len(tailPercentiles)-1], false
}

// timing is a sorted sample of durations in one unit (ms or s).
type timing struct {
	name   string
	unit   string
	sorted []float64
}

func newTiming(name, unit string, xs []float64) timing {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return timing{name: name, unit: unit, sorted: s}
}

func (t timing) n() int                  { return len(t.sorted) }
func (t timing) median() float64         { return percentile(t.sorted, 50) }
func (t timing) p(pct float64) float64   { return percentile(t.sorted, pct) }
func (t timing) supports(p float64) bool { return beyond(t.n(), p) >= minBeyond }

// describe renders the median, the highest supported tail percentile
// and the sample count, flagging a tail the sample cannot support.
func (t timing) describe() string {
	if t.n() == 0 {
		return fmt.Sprintf("%s: no samples", t.name)
	}
	p, ok := highestSupported(t.n())
	tail := fmt.Sprintf("p%g %.4g %s", p, t.p(p), t.unit)
	if !ok {
		tail = fmt.Sprintf("max %.4g %s (no percentile has %d samples beyond)", t.sorted[t.n()-1], t.unit, minBeyond)
	}
	return fmt.Sprintf("%s: median %.4g %s, %s, n=%d", t.name, t.median(), t.unit, tail, t.n())
}

// quartiles mirrors Python's statistics.quantiles(data, n=4) with its
// default exclusive method, so spreads printed here match the ones an
// external check computes. It needs at least two samples.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	ld := len(d)
	if ld < 2 {
		if ld == 1 {
			return d[0], d[0], d[0]
		}
		return math.NaN(), math.NaN(), math.NaN()
	}
	const n = 4
	m := ld + 1
	var out [n - 1]float64
	for i := 1; i < n; i++ {
		j := min(max(i*m/n, 1), ld-1)
		delta := i*m - j*n
		out[i-1] = (d[j-1]*float64(n-delta) + d[j]*float64(delta)) / n
	}
	return out[0], out[1], out[2]
}

// spread is the interquartile distance as a share of the median.
func spread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		return math.Inf(1)
	}
	return (q3 - q1) / math.Abs(q2)
}

func ms(d time.Duration) float64  { return float64(d) / float64(time.Millisecond) }
func sec(d time.Duration) float64 { return d.Seconds() }

func medianOf(xs []float64) float64 {
	return newTiming("", "", xs).median()
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}
