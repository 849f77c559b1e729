package analysis

import (
	"sort"

	"shortcuts/internal/measure"
	"shortcuts/internal/relays"
	"shortcuts/internal/topology"
)

// CountryChangeStats quantifies the "Changing Countries and Paths" effect:
// relays in a third country discover non-inflated alternatives more often
// than relays co-located with an endpoint.
type CountryChangeStats struct {
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

// CountryChange computes the effect for one relay type, following the
// paper: consider the min-latency relay per case; compare improvement
// rates when that relay is in a different country than both endpoints
// versus sharing a country with one of them (COR: 75% vs 50%).
func CountryChange(res *measure.Results, t relays.Type) CountryChangeStats {
	cat := res.World.Catalog
	var s CountryChangeStats
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

// IntercontinentalFraction returns the share of measured pairs whose
// endpoints sit on different continents (74% in the paper).
func IntercontinentalFraction(res *measure.Results) float64 {
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

// VoIPStats reproduces the ITU G.114 analysis: the fraction of paths
// above the 320 ms threshold for poor VoIP, direct versus with COR
// relaying (19% -> 11% in the paper).
type VoIPStats struct {
	ThresholdMs     float64
	DirectOver      float64
	WithCOROver     float64
	PairsConsidered int
}

// VoIPThresholdMs is the poor-VoIP RTT threshold the paper adopts.
const VoIPThresholdMs = 320

// VoIP computes the threshold fractions. "With COR" takes the best COR
// path when one exists and the direct path otherwise.
func VoIP(res *measure.Results) VoIPStats {
	s := VoIPStats{ThresholdMs: VoIPThresholdMs}
	directOver, corOver := 0, 0
	for i := range res.Observations {
		o := &res.Observations[i]
		s.PairsConsidered++
		if float64(o.DirectMs) > VoIPThresholdMs {
			directOver++
		}
		best := float64(o.DirectMs)
		if o.BestRelay[relays.COR] >= 0 && float64(o.BestMs[relays.COR]) < best {
			best = float64(o.BestMs[relays.COR])
		}
		if best > VoIPThresholdMs {
			corOver++
		}
	}
	if s.PairsConsidered > 0 {
		s.DirectOver = float64(directOver) / float64(s.PairsConsidered)
		s.WithCOROver = float64(corOver) / float64(s.PairsConsidered)
	}
	return s
}

// CVStats summarises the temporal stability of pairwise medians: the
// coefficient of variation of each recurring pair's per-round median RTT
// (the paper: 0-40% range, below 10% for ~90% of pairs).
type CVStats struct {
	Pairs       int     // recurring pairs evaluated
	FracBelow10 float64 // CV < 0.10
	MaxCV       float64
}

// StabilityCV computes CV statistics over direct medians, grouping
// observations by unordered AS pair across rounds (endpoints are
// re-sampled each round, so AS granularity is what recurs).
func StabilityCV(res *measure.Results) CVStats {
	type key struct{ a, b topology.ASN }
	series := make(map[key][]float64)
	for i := range res.Observations {
		o := &res.Observations[i]
		k := key{o.SrcAS, o.DstAS}
		if k.b < k.a {
			k.a, k.b = k.b, k.a
		}
		series[k] = append(series[k], float64(o.DirectMs))
	}
	var s CVStats
	below := 0
	for _, vals := range series {
		if len(vals) < 3 {
			continue
		}
		m := mean(vals)
		if m == 0 {
			continue
		}
		cv := stddev(vals) / m
		s.Pairs++
		if cv < 0.10 {
			below++
		}
		if cv > s.MaxCV {
			s.MaxCV = cv
		}
	}
	if s.Pairs > 0 {
		s.FracBelow10 = float64(below) / float64(s.Pairs)
	}
	return s
}

// SymmetryStats summarises the direction check of Section 2.5: reversing
// the ping direction changes the median RTT by <5% for ~80% of pairs.
type SymmetryStats struct {
	Pairs       int
	FracWithin5 float64
}

// Symmetry computes the direction-difference statistics over pairs where
// both directions yielded valid medians.
func Symmetry(res *measure.Results) SymmetryStats {
	var s SymmetryStats
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

// RelayRedundancyMedian returns the median number of improving relays of
// the type per improved pair (the paper: 8 COR, 3 PLR, 2 RAR_other, 2
// RAR_eye — high COR redundancy).
func RelayRedundancyMedian(res *measure.Results, t relays.Type) float64 {
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
	return measure.Median(counts)
}

// PerRoundImproved returns the improved fraction of the type for every
// round, the paper's stability-over-time check (COR stays above ~75%).
func PerRoundImproved(res *measure.Results, t relays.Type) []float64 {
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

// RAROtherBreakdown counts improving RAR_other relays by their host AS
// type, the paper's future-work item (ii): why do non-eyeball Atlas
// relays perform well, and in which networks do they sit?
func RAROtherBreakdown(res *measure.Results) map[string]int {
	cat := res.World.Catalog
	topo := res.World.Topo
	out := make(map[string]int)
	seen := make(map[int32]bool)
	for i := range res.Observations {
		for _, e := range res.Observations[i].Improving {
			if cat.Type(int(e.Relay)) != relays.RAROther || seen[e.Relay] {
				continue
			}
			seen[e.Relay] = true
			out[topo.AS(cat.Relay(int(e.Relay)).Endpoint.AS).Type.String()]++
		}
	}
	return out
}
