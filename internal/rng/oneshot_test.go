package rng

import (
	"math"
	"math/rand"
	"os"
	"runtime"
	"sync"
	"testing"
)

// TestPermIntoMatchesPerm proves PermInto is draw-for-draw identical to
// Perm: same seed, same sequence of permutations, element for element —
// the property every sampler relies on when reusing a buffer.
func TestPermIntoMatchesPerm(t *testing.T) {
	a := New(42).Split("perm")
	b := New(42).Split("perm")
	var buf []int
	for round := 0; round < 50; round++ {
		n := round % 17
		want := a.Perm(n)
		buf = b.PermInto(buf, n)
		if len(want) != len(buf) {
			t.Fatalf("round %d: length %d vs %d", round, len(want), len(buf))
		}
		for i := range want {
			if want[i] != buf[i] {
				t.Fatalf("round %d: element %d: %d vs %d", round, i, want[i], buf[i])
			}
		}
	}
}

// TestPermIntoGrowsBuffer checks capacity handling: a too-small buffer
// is replaced, a large one reused.
func TestPermIntoGrowsBuffer(t *testing.T) {
	g := New(7)
	small := make([]int, 2)
	out := g.PermInto(small, 10)
	if len(out) != 10 {
		t.Fatalf("grown length %d", len(out))
	}
	big := make([]int, 64)
	out = g.PermInto(big, 10)
	if len(out) != 10 || &out[0] != &big[0] {
		t.Fatal("large buffer was not reused")
	}
}

// TestBoolSplitNMatchesSplitN proves the one-shot coin equals
// SplitN(label, n).Bool(p) for every (label, n, p) — including the
// degenerate probabilities that draw nothing.
func TestBoolSplitNMatchesSplitN(t *testing.T) {
	g := New(99)
	labels := []string{"probe-1000", "window-1000", "node-7", ""}
	probs := []float64{-1, 0, 1e-9, 0.08, 0.5, 0.999999, 1, 2}
	for _, label := range labels {
		for n := 0; n < 40; n++ {
			for _, p := range probs {
				want := g.SplitN(label, n).Bool(p)
				got := g.BoolSplitN(label, n, p)
				if got != want {
					t.Fatalf("label %q n %d p %g: BoolSplitN %v, SplitN.Bool %v",
						label, n, p, got, want)
				}
			}
		}
	}
}

// TestBoolSplitNConcurrent flips coins from many goroutines and
// re-verifies every answer sequentially afterwards.
func TestBoolSplitNConcurrent(t *testing.T) {
	g := New(5)
	const n = 2000
	got := make([]bool, n)
	done := make(chan struct{})
	for w := 0; w < 8; w++ {
		go func(w int) {
			defer func() { done <- struct{}{} }()
			for i := w; i < n; i += 8 {
				got[i] = g.BoolSplitN("avail", i, 0.3)
			}
		}(w)
	}
	for w := 0; w < 8; w++ {
		<-done
	}
	for i := 0; i < n; i++ {
		if want := g.SplitN("avail", i).Bool(0.3); got[i] != want {
			t.Fatalf("slot %d: concurrent %v, sequential %v", i, got[i], want)
		}
	}
}

// TestFirstFloat64MatchesMathRand proves the closed form equals the first
// Float64 of a freshly seeded math/rand source: on the seeds Seed treats
// specially (zero and multiples of 2³¹−1, which reduce to residue 0; the
// residue Seed substitutes for them; the int64 extremes) and on random
// seeds across the whole int64 range.
func TestFirstFloat64MatchesMathRand(t *testing.T) {
	seeds := []int64{
		0, 1, -1, lehmerZero, lehmerMod, -lehmerMod, 7 * lehmerMod,
		math.MinInt64, math.MaxInt64,
	}
	src := rand.New(rand.NewSource(20170420))
	for i := 0; i < 100_000; i++ {
		seeds = append(seeds, int64(src.Uint64()))
	}
	ref := rand.New(rand.NewSource(0))
	for _, s := range seeds {
		ref.Seed(s)
		if got, want := firstFloat64(s), ref.Float64(); got != want {
			t.Fatalf("seed %d: firstFloat64 %v, math/rand %v", s, got, want)
		}
	}
}

// TestFirstFloat64Exhaustive scans every seed residue math/rand can
// reach (2³¹−2 of them) for the largest first 63-bit draw, the number
// firstFloat64's no-retry argument rests on. It takes about 15 s on two
// cores, so it runs only with SHORTCUTS_EXHAUSTIVE=1.
func TestFirstFloat64Exhaustive(t *testing.T) {
	if os.Getenv("SHORTCUTS_EXHAUSTIVE") == "" {
		t.Skip("set SHORTCUTS_EXHAUSTIVE=1 to scan all 2³¹−2 seed residues")
	}
	workers := runtime.GOMAXPROCS(0)
	maxes := make([]int64, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for x := uint64(1 + w); x < lehmerMod; x += uint64(workers) {
				if v := firstInt63(x); v > maxes[w] {
					maxes[w] = v
				}
			}
		}(w)
	}
	wg.Wait()
	var top int64
	for _, m := range maxes {
		top = max(top, m)
	}
	const want = math.MaxInt64 - 4_441_333_495 + 1 // 2⁶³ − 4,441,333,495
	if top != want {
		t.Fatalf("largest first draw is 2⁶³ − %d, want 2⁶³ − 4,441,333,495", uint64(math.MaxInt64)-uint64(top)+1)
	}
	if top >= math.MaxInt64-511 {
		t.Fatalf("largest first draw 2⁶³ − %d rounds to 1: Float64 would retry", uint64(math.MaxInt64)-uint64(top)+1)
	}
}

// TestBoolSplitNAllocs pins the coin to zero allocations.
func TestBoolSplitNAllocs(t *testing.T) {
	g := New(3)
	allocs := testing.AllocsPerRun(100, func() {
		g.BoolSplitN("probe-1000", 17, 0.08)
	})
	if allocs != 0 {
		t.Fatalf("BoolSplitN allocates %v times per coin, want 0", allocs)
	}
}

func BenchmarkBoolSplitN(b *testing.B) {
	g := New(3)
	up := 0
	for i := 0; i < b.N; i++ {
		if g.BoolSplitN("probe-1000", i, 0.08) {
			up++
		}
	}
	_ = up
}
