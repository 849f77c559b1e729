package analysis

import (
	"shortcuts/internal/measure"
	"shortcuts/internal/relays"
	"shortcuts/internal/topology"
)

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
