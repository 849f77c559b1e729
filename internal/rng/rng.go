// Package rng provides deterministic, splittable random number generation
// for the synthetic Internet substrate. Every stochastic component of the
// simulation draws from a Rand derived from a single campaign seed, so that
// a given seed reproduces a campaign bit-for-bit. Sub-generators are split
// off by label, which keeps independent subsystems (topology generation,
// per-round sampling, per-ping noise) decoupled: adding draws to one does
// not perturb another.
package rng

import (
	"math"
	"math/rand"
)

// Rand is a deterministic random source. It wraps math/rand.Rand with the
// distribution helpers the simulator needs and with label-based splitting.
type Rand struct {
	seed int64
	r    *rand.Rand
}

// New returns a Rand seeded with the given seed.
func New(seed int64) *Rand {
	return &Rand{seed: seed, r: rand.New(rand.NewSource(seed))}
}

// Seed returns the seed this Rand was created with.
func (g *Rand) Seed() int64 { return g.seed }

// splitSeed is the FNV-1a derivation behind Split: a pure function of
// (seed, label).
func splitSeed(seed int64, label string) int64 {
	h := FNVOffset64
	h = FNVUint64(h, uint64(seed))
	for i := 0; i < len(label); i++ {
		h = (h ^ uint64(label[i])) * fnvPrime64
	}
	return int64(h)
}

// Split derives an independent generator identified by label. Splitting is
// a pure function of (seed, label): the same pair always yields the same
// stream, regardless of how much the parent has been consumed.
func (g *Rand) Split(label string) *Rand {
	return New(splitSeed(g.seed, label))
}

// SplitN derives an independent generator identified by a label and an
// integer, convenient for per-round or per-entity streams.
func (g *Rand) SplitN(label string, n int) *Rand {
	h := uint64(splitSeed(g.seed, label))
	return New(int64(FNVUint64(h, uint64(n))))
}

// BoolSplitN reports exactly what SplitN(label, n).Bool(p) would return
// — same derived seed, same single draw — without constructing the
// derived generator. It exists for per-(entity, round) availability
// coins, which campaigns flip thousands of times per round: the draw is
// the first Float64 of a freshly seeded source, which firstFloat64
// computes in closed form instead of reseeding a generator. Safe for
// concurrent use.
func (g *Rand) BoolSplitN(label string, n int, p float64) bool {
	if p <= 0 {
		return false // Bool draws nothing for degenerate probabilities
	}
	if p >= 1 {
		return true
	}
	h := uint64(splitSeed(g.seed, label))
	return firstFloat64(int64(FNVUint64(h, uint64(n)))) < p
}

// The constants of math/rand's seeded source that its first output
// depends on. Seed reduces the seed mod 2³¹−1 and steps the generator
// x ← 48271·x mod (2³¹−1) 20 times, then three times per table word;
// table word i is x₂₁₊₃ᵢ<<40 ^ x₂₂₊₃ᵢ<<20 ^ x₂₃₊₃ᵢ ^ rngCooked[i]. The
// first Int63 adds words 333 and 606, so it needs x at steps 1020–1022
// and 1839–1841: x₀ times powⁿ = 48271ⁿ mod 2³¹−1. The two cooked
// words are copied from math/rand's rngCooked table, which the Go 1
// compatibility promise freezes along with the seeded stream.
const (
	lehmerMod  = 1<<31 - 1
	lehmerZero = 89482311                    // what Seed substitutes for a zero residue
	cooked333  = 1<<64 - 4633371852008891965 // rngCooked[333], as uint64
	cooked606  = 4152330101494654406         // rngCooked[606]
	pow1020    = 2082024995
	pow1021    = 1341337692
	pow1022    = 1079773482
	pow1839    = 933195560
	pow1840    = 665897288
	pow1841    = 2140244399
)

// firstFloat64 returns rand.New(rand.NewSource(seed)).Float64() — a few
// multiplies instead of the ~1,840 generator steps a reseed runs. Float64
// retries when the 63-bit draw rounds to 1, which needs a draw of at
// least 2⁶³−512; an exhaustive scan of all 2³¹−2 reachable seed residues
// (TestFirstFloat64Exhaustive) found the largest first draw to be
// 2⁶³−4,441,333,495, so the closed form never retries.
func firstFloat64(seed int64) float64 {
	s := seed % lehmerMod
	if s < 0 {
		s += lehmerMod
	}
	if s == 0 {
		s = lehmerZero
	}
	return float64(firstInt63(uint64(s))) / (1 << 63)
}

// firstInt63 is the first Int63 of a source whose reduced seed is x, in
// [1, 2³¹−2].
func firstInt63(x uint64) int64 {
	step := func(pow uint64) uint64 { return x * pow % lehmerMod }
	w333 := step(pow1020)<<40 ^ step(pow1021)<<20 ^ step(pow1022) ^ cooked333
	w606 := step(pow1839)<<40 ^ step(pow1840)<<20 ^ step(pow1841) ^ cooked606
	return int64((w333 + w606) & (1<<63 - 1))
}

// Float64 returns a uniform draw in [0, 1).
func (g *Rand) Float64() float64 { return g.r.Float64() }

// Intn returns a uniform draw in [0, n). It panics if n <= 0.
func (g *Rand) Intn(n int) int { return g.r.Intn(n) }

// Perm returns a random permutation of [0, n).
func (g *Rand) Perm(n int) []int { return g.r.Perm(n) }

// PermInto returns the same permutation Perm(n) would produce — the
// identical draw sequence, element for element — written into buf when
// its capacity suffices. Samplers permute small sets hundreds of times
// per round; this form lets them reuse one buffer per call site.
func (g *Rand) PermInto(buf []int, n int) []int {
	if cap(buf) < n {
		buf = make([]int, n)
	}
	m := buf[:n]
	// Mirrors math/rand.(*Rand).Perm: Intn(i+1) per element, in order.
	for i := 0; i < n; i++ {
		j := g.r.Intn(i + 1)
		m[i] = m[j]
		m[j] = i
	}
	return m
}

// Bool returns true with probability p.
func (g *Rand) Bool(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return g.r.Float64() < p
}

// Uniform returns a uniform draw in [lo, hi). If hi <= lo it returns lo.
func (g *Rand) Uniform(lo, hi float64) float64 {
	if hi <= lo {
		return lo
	}
	return lo + g.r.Float64()*(hi-lo)
}

// IntBetween returns a uniform integer in [lo, hi] inclusive. If hi < lo it
// returns lo.
func (g *Rand) IntBetween(lo, hi int) int {
	if hi <= lo {
		return lo
	}
	return lo + g.r.Intn(hi-lo+1)
}

// Normal returns a normal draw with the given mean and standard deviation.
func (g *Rand) Normal(mean, stddev float64) float64 {
	return mean + stddev*g.r.NormFloat64()
}

// LogNormal returns a log-normal draw where the underlying normal has the
// given mu and sigma. Used for multiplicative latency jitter: the
// distribution is right-skewed like real queueing delay.
func (g *Rand) LogNormal(mu, sigma float64) float64 {
	return math.Exp(mu + sigma*g.r.NormFloat64())
}

// Pareto returns a draw from a Pareto distribution with the given minimum
// value and shape alpha. Heavy-tailed; used for outlier latency spikes and
// for skewed population sizes. Panics if alpha <= 0 or min <= 0.
func (g *Rand) Pareto(min, alpha float64) float64 {
	if alpha <= 0 || min <= 0 {
		panic("rng: Pareto requires positive min and alpha")
	}
	u := g.r.Float64()
	for u == 0 {
		u = g.r.Float64()
	}
	return min / math.Pow(u, 1/alpha)
}

// Exp returns an exponential draw with the given mean.
func (g *Rand) Exp(mean float64) float64 {
	return g.r.ExpFloat64() * mean
}

// Choice returns a uniform random index into a collection of size n, or -1
// if n <= 0.
func (g *Rand) Choice(n int) int {
	if n <= 0 {
		return -1
	}
	return g.r.Intn(n)
}

// SampleInts returns k distinct integers drawn uniformly from [0, n). If
// k >= n it returns all of [0, n) in random order.
func (g *Rand) SampleInts(n, k int) []int {
	if n <= 0 || k <= 0 {
		return nil
	}
	p := g.r.Perm(n)
	if k > n {
		k = n
	}
	return p[:k]
}

// WeightedChoice returns an index drawn proportionally to the given
// non-negative weights, or -1 if weights is empty or sums to zero.
func (g *Rand) WeightedChoice(weights []float64) int {
	var total float64
	for _, w := range weights {
		if w > 0 {
			total += w
		}
	}
	if total <= 0 {
		return -1
	}
	x := g.r.Float64() * total
	for i, w := range weights {
		if w <= 0 {
			continue
		}
		x -= w
		if x < 0 {
			return i
		}
	}
	return len(weights) - 1
}
