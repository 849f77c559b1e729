package measure

import (
	"math"
	"reflect"
	"sort"
	"strconv"
	"testing"

	"shortcuts/internal/relays"
)

// The reference: the whole-slice scans that computed each statistic
// over a retained Results before Stats did, kept as they were apart
// from a ref prefix on every name. Stats must equal them bit for bit.

// refImprovedFraction returns the share of all measured pairs whose best
// relay of the given type beat the direct path (Fig. 2 headline: COR 76%,
// RAR_other 58%, PLR 43%, RAR_eye 35%).
func refImprovedFraction(res *Results, t relays.Type) float64 {
	if len(res.Observations) == 0 {
		return 0
	}
	improved := 0
	for i := range res.Observations {
		if res.Observations[i].ImprovementMs(t) > 0 {
			improved++
		}
	}
	return float64(improved) / float64(len(res.Observations))
}

// refCDFPoint is one point of a cumulative distribution.
type refCDFPoint struct {
	X float64 // improvement threshold, ms
	Y float64 // fraction of all cases with improvement <= X
}

// refImprovementCDF computes the Figure-2 CDF for one relay type: the
// cumulative fraction of *all* cases whose best-relay improvement is at
// most x, evaluated on the given grid. Cases without a valid relayed path
// count as improvement zero.
func refImprovementCDF(res *Results, t relays.Type, xs []float64) []refCDFPoint {
	imps := make([]float64, 0, len(res.Observations))
	for i := range res.Observations {
		imp := res.Observations[i].ImprovementMs(t)
		if imp < 0 {
			imp = 0
		}
		imps = append(imps, imp)
	}
	sort.Float64s(imps)
	out := make([]refCDFPoint, 0, len(xs))
	for _, x := range xs {
		y := 0.0
		if len(imps) > 0 {
			y = float64(sort.SearchFloat64s(imps, x+1e-9)) / float64(len(imps))
		}
		out = append(out, refCDFPoint{X: x, Y: y})
	}
	return out
}

// refMedianImprovementMs returns the median improvement among improved cases
// (the paper reports 12-14 ms across types).
func refMedianImprovementMs(res *Results, t relays.Type) float64 {
	var imps []float64
	for i := range res.Observations {
		if imp := res.Observations[i].ImprovementMs(t); imp > 0 {
			imps = append(imps, imp)
		}
	}
	return Median(imps)
}

// refImprovedOverFraction returns, among improved cases of the type, the
// share whose improvement exceeds ms (the paper: >100 ms in 6% of COR and
// RAR_other improved cases).
func refImprovedOverFraction(res *Results, t relays.Type, ms float64) float64 {
	over, improved := 0, 0
	for i := range res.Observations {
		imp := res.Observations[i].ImprovementMs(t)
		if imp > 0 {
			improved++
			if imp > ms {
				over++
			}
		}
	}
	if improved == 0 {
		return 0
	}
	return float64(over) / float64(improved)
}

// refCountryChangeStats quantifies the "Changing Countries and Paths" effect:
// relays in a third country discover non-inflated alternatives more often
// than relays co-located with an endpoint.
type refCountryChangeStats struct {
	// DiffCountryImproved is the improved fraction among cases whose
	// min-latency relay of the type sits in a country different from both
	// endpoints... but improvement requires a best relay, so instead the
	// paper conditions on where the best relay is: of the cases whose
	// best relay is in a different country, how many improved.
	DiffCountryImproved float64
	SameCountryImproved float64
	DiffCount           int
	SameCount           int
}

// refCountryChange computes the effect for one relay type, following the
// paper: consider the min-latency relay per case; compare improvement
// rates when that relay is in a different country than both endpoints
// versus sharing a country with one of them (COR: 75% vs 50%).
func refCountryChange(res *Results, t relays.Type) refCountryChangeStats {
	cat := res.World.Catalog
	var s refCountryChangeStats
	diffImproved, sameImproved := 0, 0
	for i := range res.Observations {
		o := &res.Observations[i]
		ri := o.BestRelay[t]
		if ri < 0 {
			continue
		}
		relayCC := cat.Relay(int(ri)).CC
		diff := relayCC != o.SrcCC && relayCC != o.DstCC
		improved := o.ImprovementMs(t) > 0
		if diff {
			s.DiffCount++
			if improved {
				diffImproved++
			}
		} else {
			s.SameCount++
			if improved {
				sameImproved++
			}
		}
	}
	if s.DiffCount > 0 {
		s.DiffCountryImproved = float64(diffImproved) / float64(s.DiffCount)
	}
	if s.SameCount > 0 {
		s.SameCountryImproved = float64(sameImproved) / float64(s.SameCount)
	}
	return s
}

// refIntercontinentalFraction returns the share of measured pairs whose
// endpoints sit on different continents (74% in the paper).
func refIntercontinentalFraction(res *Results) float64 {
	if len(res.Observations) == 0 {
		return 0
	}
	n := 0
	for i := range res.Observations {
		if res.Observations[i].Intercontinental() {
			n++
		}
	}
	return float64(n) / float64(len(res.Observations))
}

// refVoIPStats reproduces the ITU G.114 analysis: the fraction of paths
// above the 320 ms threshold for poor VoIP, direct versus with COR
// relaying (19% -> 11% in the paper).
type refVoIPStats struct {
	ThresholdMs     float64
	DirectOver      float64
	WithCOROver     float64
	PairsConsidered int
}

// refVoIPThresholdMs is the poor-VoIP RTT threshold the paper adopts.
const refVoIPThresholdMs = 320

// refVoIP computes the threshold fractions. "With COR" takes the best COR
// path when one exists and the direct path otherwise.
func refVoIP(res *Results) refVoIPStats {
	s := refVoIPStats{ThresholdMs: refVoIPThresholdMs}
	directOver, corOver := 0, 0
	for i := range res.Observations {
		o := &res.Observations[i]
		s.PairsConsidered++
		if float64(o.DirectMs) > refVoIPThresholdMs {
			directOver++
		}
		best := float64(o.DirectMs)
		if o.BestRelay[relays.COR] >= 0 && float64(o.BestMs[relays.COR]) < best {
			best = float64(o.BestMs[relays.COR])
		}
		if best > refVoIPThresholdMs {
			corOver++
		}
	}
	if s.PairsConsidered > 0 {
		s.DirectOver = float64(directOver) / float64(s.PairsConsidered)
		s.WithCOROver = float64(corOver) / float64(s.PairsConsidered)
	}
	return s
}

// refSymmetryStats summarises the direction check of Section 2.5: reversing
// the ping direction changes the median RTT by <5% for ~80% of pairs.
type refSymmetryStats struct {
	Pairs       int
	FracWithin5 float64
}

// refSymmetry computes the direction-difference statistics over pairs where
// both directions yielded valid medians.
func refSymmetry(res *Results) refSymmetryStats {
	var s refSymmetryStats
	within := 0
	for i := range res.Observations {
		o := &res.Observations[i]
		if o.DirectMs == 0 || o.RevDirectMs == 0 {
			continue
		}
		s.Pairs++
		diff := float64(o.DirectMs-o.RevDirectMs) / float64(o.RevDirectMs)
		if diff < 0 {
			diff = -diff
		}
		if diff < 0.05 {
			within++
		}
	}
	if s.Pairs > 0 {
		s.FracWithin5 = float64(within) / float64(s.Pairs)
	}
	return s
}

// refRelayRedundancyMedian returns the median number of improving relays of
// the type per improved pair (the paper: 8 COR, 3 PLR, 2 RAR_other, 2
// RAR_eye — high COR redundancy).
func refRelayRedundancyMedian(res *Results, t relays.Type) float64 {
	cat := res.World.Catalog
	var counts []float64
	for i := range res.Observations {
		n := 0
		for _, e := range res.Observations[i].Improving {
			if cat.Type(int(e.Relay)) == t {
				n++
			}
		}
		if n > 0 {
			counts = append(counts, float64(n))
		}
	}
	return Median(counts)
}

// refPerRoundImproved returns the improved fraction of the type for every
// round, the paper's stability-over-time check (COR stays above ~75%).
func refPerRoundImproved(res *Results, t relays.Type) []float64 {
	totals := make(map[int]int)
	improved := make(map[int]int)
	for i := range res.Observations {
		o := &res.Observations[i]
		totals[o.Round]++
		if o.ImprovementMs(t) > 0 {
			improved[o.Round]++
		}
	}
	rounds := make([]int, 0, len(totals))
	for r := range totals {
		rounds = append(rounds, r)
	}
	sort.Ints(rounds)
	out := make([]float64, 0, len(rounds))
	for _, r := range rounds {
		out = append(out, float64(improved[r])/float64(totals[r]))
	}
	return out
}

// refResponsiveFraction returns the share of attempted pairs that yielded a
// valid direct median.
func refResponsiveFraction(r *Results) float64 {
	if r.PairsAttempted == 0 {
		return 0
	}
	usable := 0
	for _, ri := range r.Rounds {
		usable += ri.PairsUsable
	}
	return float64(usable) / float64(r.PairsAttempted)
}

// statThresholds are the gains every CDF and over-share is checked at:
// the Figure-2 grid, points off it, and values no gain reaches.
func statThresholds() []float64 {
	var xs []float64
	for x := 0.0; x <= 200; x += 2 {
		xs = append(xs, x)
	}
	return append(xs, 0.1, 100, -1, 1e300, math.Inf(1), math.Inf(-1), math.NaN())
}

// checkStats holds s to the reference scans over res, bit for bit, at
// every threshold of xs, and to res.Stats() field for field.
func checkStats(t *testing.T, label string, s *Stats, res *Results, xs []float64) {
	t.Helper()
	// The message is built only on a mismatch: the fuzzer runs this
	// check once per input, over every threshold.
	same := func(what string, got, want float64) {
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Helper()
			t.Fatalf("%s: %s = %v, reference %v", label, what, got, want)
		}
	}
	sameAt := func(typ relays.Type, what string, x, got, want float64) {
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Helper()
			t.Fatalf("%s: %v %s at %s = %v, reference %v", label, typ, what, fmtMs(x), got, want)
		}
	}
	if s.Rounds() != len(res.Rounds) || s.Pairs() != len(res.Observations) ||
		s.TotalPings() != res.TotalPings || s.PairsAttempted() != res.PairsAttempted ||
		s.RelayedPathsStudied() != res.RelayedPathsStudied() {
		t.Fatalf("%s: counters rounds %d pairs %d pings %d attempted %d relayed %d, reference %d %d %d %d %d",
			label, s.Rounds(), s.Pairs(), s.TotalPings(), s.PairsAttempted(), s.RelayedPathsStudied(),
			len(res.Rounds), len(res.Observations), res.TotalPings, res.PairsAttempted, res.RelayedPathsStudied())
	}
	same("ResponsiveFraction", s.ResponsiveFraction(), refResponsiveFraction(res))
	same("IntercontinentalFraction", s.IntercontinentalFraction(), refIntercontinentalFraction(res))
	v, rv := s.VoIP(), refVoIP(res)
	same("VoIP.ThresholdMs", v.ThresholdMs, rv.ThresholdMs)
	same("VoIP.DirectOver", v.DirectOver, rv.DirectOver)
	same("VoIP.WithCOROver", v.WithCOROver, rv.WithCOROver)
	same("SymmetryWithin5", s.SymmetryWithin5(), refSymmetry(res).FracWithin5)
	for ty := range relays.NumTypes {
		typ := relays.Type(ty)
		name := typ.String()
		same(name+" ImprovedFraction", s.ImprovedFraction(typ), refImprovedFraction(res, typ))
		same(name+" MedianImprovementMs", s.MedianImprovementMs(typ), refMedianImprovementMs(res, typ))
		same(name+" RelayRedundancyMedian", s.RelayRedundancyMedian(typ), refRelayRedundancyMedian(res, typ))
		diff, sameCC := s.CountryChange(typ)
		rc := refCountryChange(res, typ)
		same(name+" CountryChange diff", diff, rc.DiffCountryImproved)
		same(name+" CountryChange same", sameCC, rc.SameCountryImproved)
		per, refPer := s.PerRoundImproved(typ), refPerRoundImproved(res, typ)
		if len(per) != len(refPer) {
			t.Fatalf("%s: %s PerRoundImproved has %d rounds, reference %d", label, name, len(per), len(refPer))
		}
		for r := range per {
			same(name+" PerRoundImproved", per[r], refPer[r])
		}
		cdf, refCDF := s.ImprovementCDF(typ, xs), refImprovementCDF(res, typ, xs)
		for i, x := range xs {
			sameAt(typ, "CDF x", x, cdf[i].ImprovementMs, refCDF[i].X)
			sameAt(typ, "CDF", x, cdf[i].Fraction, refCDF[i].Y)
			sameAt(typ, "ImprovedOverFraction", x, s.ImprovedOverFraction(typ, x), refImprovedOverFraction(res, typ, x))
		}
		// The histogram this replaced indexed a bin by int(x/0.25): these
		// thresholds panicked or stopped the CDF short of 1.
		if s.Pairs() > 0 {
			for _, x := range []float64{1e300, math.Inf(1)} {
				same(name+" ImprovedOverFraction past every gain", s.ImprovedOverFraction(typ, x), 0)
				same(name+" CDF past every gain", s.ImprovementCDF(typ, []float64{x})[0].Fraction, 1)
			}
		}
	}
	if batch := res.Stats(); !reflect.DeepEqual(s, batch) {
		t.Fatalf("%s: the stream's Stats differs from Results.Stats", label)
	}
}

func fmtMs(x float64) string { return strconv.FormatFloat(x, 'g', -1, 64) + " ms" }
