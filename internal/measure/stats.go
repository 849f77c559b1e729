package measure

import (
	"sort"

	"shortcuts/internal/relays"
)

// VoIPThresholdMs is the RTT above which the paper counts a path as poor
// for VoIP (ITU G.114).
const VoIPThresholdMs = 320

// Stats folds a campaign's observations into every statistic of the
// paper that needs no ranking of the whole campaign: the improved
// fractions, the Figure-2 CDFs, median gains and the >100 ms share, the
// relay redundancy, and the in-text intercontinental, responsiveness,
// VoIP, country-change, direction-symmetry and per-round shares. It is
// the only implementation of these statistics: a streamed campaign
// folds into it through StatsSink, and Results.Stats folds a retained
// one, so both report the same numbers.
//
// Gains are exact: every improved (case, type) keeps its gain as the
// float32 the campaign computed it in, 4 bytes each. Everything else is
// a counter or a small integer histogram. A Stats holds no reference to
// the world its campaign measured.
type Stats struct {
	rounds         int
	totalPings     int64
	pairsAttempted int
	cases          int // usable observations (valid direct median)
	intercont      int
	relayedPaths   int64

	// gains[t] holds o.DirectMs - o.BestMs[t] for every case that type t
	// improved (gain > 0), in emission order.
	gains [relays.NumTypes][]float32
	// improving[t][n] counts the cases with n >= 1 improving relays of
	// type t.
	improving [relays.NumTypes][]int
	country   [relays.NumTypes]countryChange

	voipDirect, voipCOR int // cases above VoIPThresholdMs
	symPairs, symWithin int // cases with both directions; within 5%

	perRound []roundCounts // indexed by Observation.Round
}

// countryChange counts one type's cases with a best relay, split by
// whether that relay sits in a third country.
type countryChange struct{ diff, diffImproved, same, sameImproved int }

// roundCounts is one round's share of the cases.
type roundCounts struct {
	cases    int
	improved [relays.NumTypes]int
}

// StatsSink returns a Sink that folds a campaign stream into s, reading
// relay types and countries from cat. The sink holds cat and s does not,
// so a finished Stats keeps no world alive.
func StatsSink(s *Stats, cat *relays.Catalog) Sink { return statsSink{s, cat} }

type statsSink struct {
	s   *Stats
	cat *relays.Catalog
}

func (k statsSink) Emit(o Observation) { k.s.fold(&o, k.cat) }

func (k statsSink) RoundDone(info RoundInfo) { k.s.roundDone(info) }

// Stats folds the retained observations and rounds, giving exactly the
// Stats a StatsSink fed the same campaign would hold.
func (r *Results) Stats() *Stats {
	s := new(Stats)
	var cat *relays.Catalog
	if r.World != nil {
		cat = r.World.Catalog
	}
	for i := range r.Observations {
		s.fold(&r.Observations[i], cat)
	}
	for _, info := range r.Rounds {
		s.roundDone(info)
	}
	return s
}

func (s *Stats) fold(o *Observation, cat *relays.Catalog) {
	s.cases++
	if o.Intercontinental() {
		s.intercont++
	}
	if float64(o.DirectMs) > VoIPThresholdMs {
		s.voipDirect++
	}
	best := float64(o.DirectMs)
	if o.BestRelay[relays.COR] >= 0 && float64(o.BestMs[relays.COR]) < best {
		best = float64(o.BestMs[relays.COR])
	}
	if best > VoIPThresholdMs {
		s.voipCOR++
	}
	if o.DirectMs != 0 && o.RevDirectMs != 0 {
		s.symPairs++
		diff := float64(o.DirectMs-o.RevDirectMs) / float64(o.RevDirectMs)
		if diff < 0 {
			diff = -diff
		}
		if diff < 0.05 {
			s.symWithin++
		}
	}
	for len(s.perRound) <= o.Round {
		s.perRound = append(s.perRound, roundCounts{})
	}
	rc := &s.perRound[o.Round]
	rc.cases++

	var n [relays.NumTypes]int
	for _, e := range o.Improving {
		n[cat.Type(int(e.Relay))]++
	}
	for t := range relays.NumTypes {
		s.relayedPaths += int64(o.FeasibleCount[t])
		if k := n[t]; k > 0 {
			if k >= len(s.improving[t]) {
				s.improving[t] = append(s.improving[t], make([]int, k+1-len(s.improving[t]))...)
			}
			s.improving[t][k]++
		}
		ri := o.BestRelay[t]
		if ri < 0 {
			continue
		}
		gain := o.DirectMs - o.BestMs[t]
		improved := gain > 0
		if improved {
			s.gains[t] = append(s.gains[t], gain)
			rc.improved[t]++
		}
		cc := &s.country[t]
		if relayCC := cat.CC(int(ri)); relayCC != o.SrcCC && relayCC != o.DstCC {
			cc.diff++
			if improved {
				cc.diffImproved++
			}
		} else {
			cc.same++
			if improved {
				cc.sameImproved++
			}
		}
	}
}

func (s *Stats) roundDone(info RoundInfo) {
	s.rounds++
	s.totalPings += info.PingsSent
	s.pairsAttempted += info.PairsAttempted
}

// share returns n/of, or 0 when of is 0.
func share(n, of int) float64 {
	if of == 0 {
		return 0
	}
	return float64(n) / float64(of)
}

// Rounds returns the number of completed rounds.
func (s *Stats) Rounds() int { return s.rounds }

// Pairs returns the number of usable (pair, round) observations.
func (s *Stats) Pairs() int { return s.cases }

// TotalPings returns the number of pings sent.
func (s *Stats) TotalPings() int64 { return s.totalPings }

// PairsAttempted returns the pairs whose direct path was measured.
func (s *Stats) PairsAttempted() int { return s.pairsAttempted }

// RelayedPathsStudied counts the stitched relay paths evaluated (the
// paper reports ~29M for ~90K direct paths).
func (s *Stats) RelayedPathsStudied() int64 { return s.relayedPaths }

// ResponsiveFraction returns the share of attempted pairs that yielded
// a valid direct median (the paper: ~84%).
func (s *Stats) ResponsiveFraction() float64 { return share(s.cases, s.pairsAttempted) }

// IntercontinentalFraction returns the share of cases whose endpoints
// sit on different continents (the paper: 74%).
func (s *Stats) IntercontinentalFraction() float64 { return share(s.intercont, s.cases) }

// ImprovedFraction returns the share of all cases whose best relay of
// the type beat the direct path (Fig. 2: COR 76%, RAR_other 58%, PLR
// 43%, RAR_eye 35%).
func (s *Stats) ImprovedFraction(t relays.Type) float64 { return share(len(s.gains[t]), s.cases) }

// CDFPoint is one point of a Figure-2 CDF.
type CDFPoint struct {
	ImprovementMs float64
	Fraction      float64 // of all cases with improvement <= ImprovementMs
}

// ImprovementCDF evaluates the Figure-2 CDF of the type on the given
// millisecond grid: the fraction of all cases whose gain is at most x,
// with cases the type did not improve counted as gain 0.
func (s *Stats) ImprovementCDF(t relays.Type, xs []float64) []CDFPoint {
	gains := s.gains64(t)
	sort.Float64s(gains)
	zeros := s.cases - len(gains)
	out := make([]CDFPoint, len(xs))
	for i, x := range xs {
		out[i].ImprovementMs = x
		if s.cases == 0 {
			continue
		}
		// The rank of x+1e-9 among the zeros followed by the sorted
		// gains, as one search over the batch values would find it.
		// Every zero ranks below a positive bound, and below NaN,
		// which no value reaches.
		v := x + 1e-9
		n := 0
		if !(0 >= v) {
			n = zeros + sort.SearchFloat64s(gains, v)
		}
		out[i].Fraction = float64(n) / float64(s.cases)
	}
	return out
}

// MedianImprovementMs returns the median gain among the type's improved
// cases (the paper: 12-14 ms for every type).
func (s *Stats) MedianImprovementMs(t relays.Type) float64 { return Median(s.gains64(t)) }

// ImprovedOverFraction returns, among the type's improved cases, the
// share whose gain exceeds ms (the paper: >100 ms for 6% of COR and
// RAR_other improved cases).
func (s *Stats) ImprovedOverFraction(t relays.Type, ms float64) float64 {
	over := 0
	for _, g := range s.gains[t] {
		if float64(g) > ms {
			over++
		}
	}
	return share(over, len(s.gains[t]))
}

// gains64 returns the type's gains as a fresh float64 slice, in
// emission order.
func (s *Stats) gains64(t relays.Type) []float64 {
	out := make([]float64, len(s.gains[t]))
	for i, g := range s.gains[t] {
		out[i] = float64(g)
	}
	return out
}

// RelayRedundancyMedian returns the median number of improving relays
// of the type over the cases with at least one (the paper: 8 COR, 3 PLR,
// 2 RAR_other, 2 RAR_eye).
func (s *Stats) RelayRedundancyMedian(t relays.Type) float64 {
	hist := s.improving[t]
	total := 0
	for _, c := range hist {
		total += c
	}
	if total == 0 {
		return 0
	}
	// The k-th smallest count, 0-based, read off the histogram.
	at := func(k int) float64 {
		for n, c := range hist {
			if k < c {
				return float64(n)
			}
			k -= c
		}
		return 0
	}
	mid := total / 2
	if total%2 == 1 {
		return at(mid)
	}
	return (at(mid-1) + at(mid)) / 2
}

// VoIPStats is the ITU G.114 analysis: the shares of cases above
// ThresholdMs, direct and with COR relaying (19% -> 11% in the paper).
type VoIPStats struct {
	ThresholdMs float64
	DirectOver  float64
	WithCOROver float64
}

// VoIP returns the shares of cases above VoIPThresholdMs. "With COR"
// takes the best COR path when it beats the direct one.
func (s *Stats) VoIP() VoIPStats {
	return VoIPStats{
		ThresholdMs: VoIPThresholdMs,
		DirectOver:  share(s.voipDirect, s.cases),
		WithCOROver: share(s.voipCOR, s.cases),
	}
}

// CountryChange returns, over the cases with a best relay of the type,
// the improved share when that relay sits in a country other than both
// endpoints' and when it shares one (the paper, COR: 75% vs 50%).
func (s *Stats) CountryChange(t relays.Type) (diffImproved, sameImproved float64) {
	c := s.country[t]
	return share(c.diffImproved, c.diff), share(c.sameImproved, c.same)
}

// SymmetryWithin5 returns the share of cases with both directions
// measured whose forward and reverse medians differ by less than 5%
// (Section 2.5: ~80%).
func (s *Stats) SymmetryWithin5() float64 { return share(s.symWithin, s.symPairs) }

// PerRoundImproved returns the type's improved fraction per round, over
// the rounds that emitted observations, in round order (the paper: COR
// stays above ~75%).
func (s *Stats) PerRoundImproved(t relays.Type) []float64 {
	out := []float64{}
	for _, rc := range s.perRound {
		if rc.cases > 0 {
			out = append(out, float64(rc.improved[t])/float64(rc.cases))
		}
	}
	return out
}
