package shortcuts

import (
	"sort"

	"shortcuts/internal/relays"
)

// PairObservation is a per-country-pair view of one measured endpoint
// pair in one round, for application-level planning (which relay should
// my traffic between X and Y use?).
type PairObservation struct {
	Round         int
	SrcCC, DstCC  string
	DirectMs      float64
	BestRelayedMs float64 // best across all relay types; 0 if none valid
	ImprovementMs float64 // DirectMs - BestRelayedMs when positive
	RelayID       string
	RelayType     RelayType
	RelayCC       string
	FacilityName  string // COR relays only
}

// ObservationsBetween returns the campaign's observations for a country
// pair (order-insensitive), each annotated with the overall best relay.
// The slice is sorted by descending improvement. Lookups resolve
// through the corridor index (measure.ResultCatalog), built once per
// Results, so each call touches only the corridor's own observations.
func (r *Results) ObservationsBetween(ccA, ccB string) []PairObservation {
	cat := r.res.World.Catalog
	var out []PairObservation
	for _, i := range r.catalog().Indices(ccA, ccB) {
		o := &r.res.Observations[i]
		po := PairObservation{
			Round:    o.Round,
			SrcCC:    o.SrcCC,
			DstCC:    o.DstCC,
			DirectMs: float64(o.DirectMs),
		}
		bestType := -1
		for t := 0; t < relays.NumTypes; t++ {
			if o.BestRelay[t] < 0 {
				continue
			}
			if bestType == -1 || float64(o.BestMs[t]) < po.BestRelayedMs {
				po.BestRelayedMs = float64(o.BestMs[t])
				bestType = t
			}
		}
		if bestType >= 0 {
			relay := cat.Relay(int(o.BestRelay[bestType]))
			po.RelayID = relay.ID()
			po.RelayType = RelayType(bestType)
			po.RelayCC = relay.CC
			po.FacilityName = relay.FacilityName
			if po.BestRelayedMs < po.DirectMs {
				po.ImprovementMs = po.DirectMs - po.BestRelayedMs
			}
		}
		out = append(out, po)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ImprovementMs > out[j].ImprovementMs })
	return out
}

// Countries returns the endpoint countries observed in the campaign,
// sorted.
func (r *Results) Countries() []string {
	return append([]string(nil), r.catalog().Countries()...)
}
