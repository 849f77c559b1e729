package measure

import (
	"testing"

	"shortcuts/internal/scenario"
)

// TestStreamStatsUnderDisruption holds the aggregate to the reference
// scans on scenario-disrupted streams, bit for bit: loss spikes and
// blackholes (outage preset) and relay churn (churn preset) shrink and
// reshape the stream.
func TestStreamStatsUnderDisruption(t *testing.T) {
	w := buildSelfHealWorld(t)
	for _, tc := range []struct {
		name string
		sc   *scenario.Scenario
	}{
		{"outage", scenario.Outage()},
		{"churn", scenario.Churn()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := QuickConfig(8)
			cfg.Scenario = tc.sc
			ss, res := foldCampaign(t, w, cfg)
			checkStats(t, tc.name, ss, res, statThresholds())

			// The funnel can only narrow: usable <= attempted, and a
			// disrupted stream must still attempt pairs every round.
			if ss.Pairs() > ss.PairsAttempted() {
				t.Errorf("funnel widened: %d usable > %d attempted", ss.Pairs(), ss.PairsAttempted())
			}
			for _, info := range res.Rounds {
				if info.PairsAttempted == 0 {
					t.Errorf("round %d attempted no pairs", info.Round)
				}
				if info.PairsUsable > info.PairsAttempted {
					t.Errorf("round %d: usable %d > attempted %d", info.Round, info.PairsUsable, info.PairsAttempted)
				}
			}

			if tc.name == "churn" {
				churned := 0
				for _, info := range res.Rounds {
					churned += info.RelaysChurned
				}
				if churned == 0 {
					t.Error("churn scenario reported no churned relays in any round")
				}
			}
		})
	}
}
