package measure

import (
	"sort"
	"time"

	"shortcuts/internal/latency"
	"shortcuts/internal/relays"
	"shortcuts/internal/rng"
	"shortcuts/internal/sim"
)

// TwoRelayResult compares single-relay against two-relay overlay paths.
// The paper restricts itself to one-relay paths citing Han et al.
// (INFOCOM 2005) and Le et al. (CAN 2016), who find that a second relay
// rarely adds latency benefit; this experiment reproduces that check on
// the synthetic substrate.
type TwoRelayResult struct {
	Pairs int
	// OneRelaySufficient counts pairs where no two-relay combination
	// beats the best single relay by a meaningful margin (2 ms).
	OneRelaySufficient int
	// MedianExtraGainMs is the median additional gain of the best
	// two-relay path over the best single-relay path across all pairs
	// (typically near zero).
	MedianExtraGainMs float64
	// MeanExtraLegMs is the mean added inter-relay leg length of winning
	// two-relay paths; large values indicate the wins are noise.
	MeanExtraLegMs float64
}

// TwoRelayExperiment measures, for a sample of endpoint pairs, the best
// one-relay path against the best two-relay path (src -> r1 -> r2 -> dst)
// over the round's top COR relays. Legs are priced like the campaign's:
// 6 pings on the round's slot schedule, median of >= 3.
func TwoRelayExperiment(w *sim.World, cfg Config, round, maxPairs, maxRelays int) (TwoRelayResult, error) {
	if err := checkPings(cfg); err != nil {
		return TwoRelayResult{}, err
	}
	// Extension experiment: outside the campaign budget, no ledger.
	c := &campaign{
		w:   w,
		cfg: cfg,
		g:   rng.New(campaignSeed(cfg, w)).Split("two-relay"),
	}
	view := w.Engine.View(nil) // static world: the extension ignores scenarios
	start := cfg.Start.Add(time.Duration(round) * cfg.RoundInterval)
	sched := w.Engine.Schedule(start, cfg.PingInterval, cfg.PingsPerPair)

	endpoints := w.Selector.SampleEndpoints(c.g, round)
	if len(endpoints) < 2 {
		return TwoRelayResult{}, nil
	}
	set := w.Sampler.SampleRound(c.g, round, nil)
	corIdxs := set.ByType[relays.COR]
	if len(corIdxs) > maxRelays {
		corIdxs = corIdxs[:maxRelays]
	}
	// Each endpoint and relay is bound to its line once.
	epLines := make([]latency.Line, len(endpoints))
	for ei, row := range endpoints {
		epLines[ei] = w.Engine.Line(w.Atlas.Endpoint(row))
	}
	relayLines := make([]latency.Line, len(corIdxs))
	for k, ri := range corIdxs {
		relayLines[k] = w.Engine.Line(w.Catalog.Relay(ri).Endpoint)
	}

	// Endpoint-relay legs: one batch per endpoint row.
	var s scratch
	legs := make([][]float32, len(endpoints)) // endpoint idx -> per relay
	for ei, ep := range epLines {
		s.pairs = s.pairs[:0]
		for _, r := range relayLines {
			s.pairs = append(s.pairs, latency.LinePair{A: ep, B: r})
		}
		legs[ei] = make([]float32, len(corIdxs))
		if err := c.medians(view, &s, s.pairs, round, sched, legs[ei]); err != nil {
			return TwoRelayResult{}, err
		}
	}
	// Relay-relay legs: one batch per relay row, relay a to every b > a.
	mid := make([][]float32, len(corIdxs))
	for a := range corIdxs {
		mid[a] = make([]float32, len(corIdxs))
	}
	for a, ra := range relayLines {
		s.pairs = s.pairs[:0]
		for _, rb := range relayLines[a+1:] {
			s.pairs = append(s.pairs, latency.LinePair{A: ra, B: rb})
		}
		if err := c.medians(view, &s, s.pairs, round, sched, mid[a][a+1:]); err != nil {
			return TwoRelayResult{}, err
		}
		for b := a + 1; b < len(corIdxs); b++ {
			mid[b][a] = mid[a][b]
		}
	}

	var res TwoRelayResult
	var extraGains []float64
	var winLegSum float64
	wins := 0
	for i := 0; i < len(endpoints) && res.Pairs < maxPairs; i++ {
		for j := i + 1; j < len(endpoints) && res.Pairs < maxPairs; j++ {
			la, lb := legs[i], legs[j]
			best1 := float32(0)
			for k := range corIdxs {
				if la[k] == 0 || lb[k] == 0 {
					continue
				}
				if s := la[k] + lb[k]; best1 == 0 || s < best1 {
					best1 = s
				}
			}
			if best1 == 0 {
				continue
			}
			best2 := float32(0)
			bestMid := float32(0)
			for a := range corIdxs {
				if la[a] == 0 {
					continue
				}
				for b := range corIdxs {
					if a == b || lb[b] == 0 || mid[a][b] == 0 {
						continue
					}
					if s := la[a] + mid[a][b] + lb[b]; best2 == 0 || s < best2 {
						best2 = s
						bestMid = mid[a][b]
					}
				}
			}
			res.Pairs++
			extra := float64(best1 - best2) // positive when 2 relays win
			extraGains = append(extraGains, extra)
			if extra <= 2 {
				res.OneRelaySufficient++
			} else {
				wins++
				winLegSum += float64(bestMid)
			}
		}
	}
	sort.Float64s(extraGains)
	if n := len(extraGains); n > 0 {
		res.MedianExtraGainMs = extraGains[n/2]
	}
	if wins > 0 {
		res.MeanExtraLegMs = winLegSum / float64(wins)
	}
	return res, nil
}
