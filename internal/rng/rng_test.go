package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if a.Float64() != b.Float64() {
			t.Fatalf("same-seed generators diverged at draw %d", i)
		}
	}
}

func TestSplitIsIndependentOfConsumption(t *testing.T) {
	a := New(7)
	b := New(7)
	// Consume from a but not b; splits must still agree.
	for i := 0; i < 100; i++ {
		a.Float64()
	}
	sa := a.Split("topology")
	sb := b.Split("topology")
	for i := 0; i < 100; i++ {
		if sa.Float64() != sb.Float64() {
			t.Fatalf("split streams diverged at draw %d", i)
		}
	}
}

func TestSplitDistinctLabels(t *testing.T) {
	g := New(1)
	x := g.Split("alpha").Float64()
	y := g.Split("beta").Float64()
	if x == y {
		t.Fatal("distinct labels produced identical first draws (suspicious)")
	}
}

func TestSplitNDistinct(t *testing.T) {
	g := New(1)
	seen := make(map[int64]bool)
	for i := 0; i < 100; i++ {
		s := g.SplitN("round", i)
		if seen[s.Seed()] {
			t.Fatalf("SplitN produced duplicate seed at n=%d", i)
		}
		seen[s.Seed()] = true
	}
}

func TestBoolEdges(t *testing.T) {
	g := New(3)
	for i := 0; i < 50; i++ {
		if g.Bool(0) {
			t.Fatal("Bool(0) returned true")
		}
		if !g.Bool(1) {
			t.Fatal("Bool(1) returned false")
		}
	}
}

func TestBoolFrequency(t *testing.T) {
	g := New(9)
	n := 100000
	hits := 0
	for i := 0; i < n; i++ {
		if g.Bool(0.3) {
			hits++
		}
	}
	got := float64(hits) / float64(n)
	if math.Abs(got-0.3) > 0.01 {
		t.Fatalf("Bool(0.3) frequency = %.3f, want ~0.30", got)
	}
}

func TestUniformRange(t *testing.T) {
	g := New(5)
	for i := 0; i < 10000; i++ {
		v := g.Uniform(2, 7)
		if v < 2 || v >= 7 {
			t.Fatalf("Uniform(2,7) = %v out of range", v)
		}
	}
	if got := g.Uniform(5, 5); got != 5 {
		t.Fatalf("Uniform(5,5) = %v, want 5", got)
	}
	if got := g.Uniform(5, 3); got != 5 {
		t.Fatalf("Uniform with hi<lo = %v, want lo", got)
	}
}

func TestIntBetween(t *testing.T) {
	g := New(6)
	seen := make(map[int]bool)
	for i := 0; i < 1000; i++ {
		v := g.IntBetween(3, 6)
		if v < 3 || v > 6 {
			t.Fatalf("IntBetween(3,6) = %d out of range", v)
		}
		seen[v] = true
	}
	for v := 3; v <= 6; v++ {
		if !seen[v] {
			t.Fatalf("IntBetween(3,6) never produced %d", v)
		}
	}
	if got := g.IntBetween(4, 4); got != 4 {
		t.Fatalf("IntBetween(4,4) = %d", got)
	}
	if got := g.IntBetween(9, 2); got != 9 {
		t.Fatalf("IntBetween(9,2) = %d, want lo", got)
	}
}

func TestLogNormalPositive(t *testing.T) {
	g := New(11)
	for i := 0; i < 10000; i++ {
		if v := g.LogNormal(0, 0.5); v <= 0 {
			t.Fatalf("LogNormal produced non-positive %v", v)
		}
	}
}

func TestLogNormalMedian(t *testing.T) {
	// Median of LogNormal(mu, sigma) is exp(mu).
	g := New(12)
	n := 20001
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = g.LogNormal(1, 0.4)
	}
	below := 0
	want := math.Exp(1.0)
	for _, v := range vals {
		if v < want {
			below++
		}
	}
	frac := float64(below) / float64(n)
	if math.Abs(frac-0.5) > 0.02 {
		t.Fatalf("fraction below exp(mu) = %.3f, want ~0.5", frac)
	}
}

func TestParetoMinBound(t *testing.T) {
	g := New(13)
	for i := 0; i < 10000; i++ {
		if v := g.Pareto(2, 1.5); v < 2 {
			t.Fatalf("Pareto(2,1.5) = %v below minimum", v)
		}
	}
}

func TestParetoPanics(t *testing.T) {
	g := New(14)
	defer func() {
		if recover() == nil {
			t.Fatal("Pareto with alpha<=0 did not panic")
		}
	}()
	g.Pareto(1, 0)
}

func TestSampleInts(t *testing.T) {
	g := New(15)
	s := g.SampleInts(10, 4)
	if len(s) != 4 {
		t.Fatalf("SampleInts(10,4) len = %d", len(s))
	}
	seen := make(map[int]bool)
	for _, v := range s {
		if v < 0 || v >= 10 {
			t.Fatalf("sample %d out of range", v)
		}
		if seen[v] {
			t.Fatalf("duplicate sample %d", v)
		}
		seen[v] = true
	}
	if got := g.SampleInts(3, 10); len(got) != 3 {
		t.Fatalf("SampleInts(3,10) len = %d, want 3", len(got))
	}
	if got := g.SampleInts(0, 5); got != nil {
		t.Fatalf("SampleInts(0,5) = %v, want nil", got)
	}
}

func TestWeightedChoice(t *testing.T) {
	g := New(16)
	// All mass on index 2.
	for i := 0; i < 100; i++ {
		if got := g.WeightedChoice([]float64{0, 0, 5, 0}); got != 2 {
			t.Fatalf("WeightedChoice = %d, want 2", got)
		}
	}
	if got := g.WeightedChoice(nil); got != -1 {
		t.Fatalf("WeightedChoice(nil) = %d, want -1", got)
	}
	if got := g.WeightedChoice([]float64{0, 0}); got != -1 {
		t.Fatalf("WeightedChoice(zeros) = %d, want -1", got)
	}
}

func TestWeightedChoiceProportions(t *testing.T) {
	g := New(17)
	counts := [3]int{}
	n := 90000
	for i := 0; i < n; i++ {
		counts[g.WeightedChoice([]float64{1, 2, 3})]++
	}
	want := [3]float64{1.0 / 6, 2.0 / 6, 3.0 / 6}
	for i, c := range counts {
		got := float64(c) / float64(n)
		if math.Abs(got-want[i]) > 0.01 {
			t.Fatalf("weight %d frequency = %.3f, want %.3f", i, got, want[i])
		}
	}
}

func TestQuickSplitDeterministic(t *testing.T) {
	f := func(seed int64, label string) bool {
		a := New(seed).Split(label)
		b := New(seed).Split(label)
		return a.Seed() == b.Seed() && a.Float64() == b.Float64()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickUniformWithinBounds(t *testing.T) {
	g := New(19)
	f := func(lo, span float64) bool {
		if math.IsNaN(lo) || math.IsInf(lo, 0) || math.IsNaN(span) || math.IsInf(span, 0) {
			return true
		}
		span = math.Abs(span)
		if span > 1e100 || math.Abs(lo) > 1e100 {
			return true
		}
		v := g.Uniform(lo, lo+span)
		return v >= lo && (span == 0 || v < lo+span)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
