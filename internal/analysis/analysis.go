// Package analysis computes the paper's artifacts that need a whole
// retained campaign: the relay ranking and what is built on it (the
// Figure-3 top-relay coverage curves, the Figure-4 threshold curves, the
// Table-1 facility ranking, coverage by top relays), the temporal
// stability of pairwise medians, and the future-work analyses. The
// statistics that fold from the observation stream live in
// measure.Stats. All percentages are fractions in [0, 1] unless a name
// says otherwise; latencies are milliseconds.
package analysis

import (
	"math"
	"sort"

	"shortcuts/internal/measure"
	"shortcuts/internal/relays"
)

// RelayRank is one relay's improvement frequency.
type RelayRank struct {
	Relay int // catalog index
	Count int // observations this relay improved
}

// RankRelays orders relays of a type by how often they appeared on an
// improving path, most frequent first (the paper's "top-appearing
// relays"). Ties break on catalog index.
func RankRelays(res *measure.Results, t relays.Type) []RelayRank {
	counts := make(map[int]int)
	cat := res.World.Catalog
	for i := range res.Observations {
		for _, e := range res.Observations[i].Improving {
			if cat.Type(int(e.Relay)) == t {
				counts[int(e.Relay)]++
			}
		}
	}
	out := make([]RelayRank, 0, len(counts))
	for r, c := range counts {
		out = append(out, RelayRank{Relay: r, Count: c})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Relay < out[j].Relay
	})
	return out
}

// TopRelayPoint is one point of the Figure-3 curve.
type TopRelayPoint struct {
	N         int     // number of top relays employed
	FracTotal float64 // fraction of all cases improved by at least one
}

// TopRelayCurve computes Figure 3 for one type: the fraction of all cases
// improved when only the N most frequently improving relays are used,
// N = 1..maxN. maxN is clamped to [0, ranked relays].
func TopRelayCurve(res *measure.Results, t relays.Type, maxN int) []TopRelayPoint {
	ranking := RankRelays(res, t)
	maxN = min(max(maxN, 0), len(ranking))
	rankOf := make(map[int32]int, len(ranking))
	for i, rr := range ranking {
		rankOf[int32(rr.Relay)] = i
	}
	// For each observation, the best (lowest) rank among its improving
	// relays of this type tells the smallest N that covers it.
	coveredAt := make([]int, maxN+1)
	for i := range res.Observations {
		best := -1
		for _, e := range res.Observations[i].Improving {
			if res.World.Catalog.Type(int(e.Relay)) != t {
				continue
			}
			if r, ok := rankOf[e.Relay]; ok && (best == -1 || r < best) {
				best = r
			}
		}
		if best >= 0 && best < maxN {
			coveredAt[best+1]++
		}
	}
	total := float64(len(res.Observations))
	out := make([]TopRelayPoint, 0, maxN)
	cum := 0
	for n := 1; n <= maxN; n++ {
		cum += coveredAt[n]
		out = append(out, TopRelayPoint{N: n, FracTotal: float64(cum) / total})
	}
	return out
}

// RelaysForCoverage returns the smallest number of top relays of the type
// needed to reach the given fraction of the type's total achievable
// coverage, and the facilities they sit in (COR only; empty otherwise).
func RelaysForCoverage(res *measure.Results, t relays.Type, fracOfMax float64) (n int, facilities []string) {
	curve := TopRelayCurve(res, t, len(RankRelays(res, t)))
	if len(curve) == 0 {
		return 0, nil
	}
	max := curve[len(curve)-1].FracTotal
	target := max * fracOfMax
	for _, p := range curve {
		if p.FracTotal >= target {
			n = p.N
			break
		}
	}
	if t == relays.COR {
		seen := make(map[string]bool)
		for _, rr := range RankRelays(res, t)[:n] {
			name := res.World.Catalog.Relay(rr.Relay).FacilityName
			if !seen[name] {
				seen[name] = true
				facilities = append(facilities, name)
			}
		}
	}
	return n, facilities
}

// ThresholdPoint is one point of the Figure-4 curves for a type.
type ThresholdPoint struct {
	ThresholdMs float64
	TopN        float64 // fraction of all cases improved by > threshold using top-N relays
	All         float64 // same using every relay of the type
}

// ThresholdCurves computes Figure 4 for one type: the fraction of all
// cases whose improvement exceeds each threshold, using the best of the
// top-N relays versus the best of all relays of the type. topN is
// clamped to [0, ranked relays].
func ThresholdCurves(res *measure.Results, t relays.Type, topN int, thresholds []float64) []ThresholdPoint {
	ranking := RankRelays(res, t)
	topN = min(max(topN, 0), len(ranking))
	inTop := make(map[int32]bool, topN)
	for _, rr := range ranking[:topN] {
		inTop[int32(rr.Relay)] = true
	}
	cat := res.World.Catalog
	total := float64(len(res.Observations))
	out := make([]ThresholdPoint, len(thresholds))
	for i, th := range thresholds {
		out[i].ThresholdMs = th
	}
	for i := range res.Observations {
		o := &res.Observations[i]
		bestAll, bestTop := 0.0, 0.0
		for _, e := range o.Improving {
			if cat.Type(int(e.Relay)) != t {
				continue
			}
			imp := float64(o.DirectMs - e.RelayedMs)
			if imp > bestAll {
				bestAll = imp
			}
			if inTop[e.Relay] && imp > bestTop {
				bestTop = imp
			}
		}
		for k := range out {
			if bestTop > out[k].ThresholdMs {
				out[k].TopN++
			}
			if bestAll > out[k].ThresholdMs {
				out[k].All++
			}
		}
	}
	if total > 0 {
		for k := range out {
			out[k].TopN /= total
			out[k].All /= total
		}
	}
	return out
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var sum float64
	for _, x := range v {
		sum += x
	}
	return sum / float64(len(v))
}

func stddev(v []float64) float64 {
	if len(v) < 2 {
		return 0
	}
	m := mean(v)
	var ss float64
	for _, x := range v {
		ss += (x - m) * (x - m)
	}
	return math.Sqrt(ss / float64(len(v)-1))
}
