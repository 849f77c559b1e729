package measure

import (
	"time"

	"shortcuts/internal/scenario"
)

// Config sets the campaign schedule of Section 2.5.
type Config struct {
	// Rounds is the number of measurement rounds (the paper ran 45).
	Rounds int
	// RoundInterval separates round starts (12 h, to catch diurnal
	// patterns).
	RoundInterval time.Duration
	// PingsPerPair is the number of pings per node pair per round (6),
	// at most 16, as in a RIPE Atlas ping measurement.
	PingsPerPair int
	// PingInterval separates consecutive pings to a pair (5 min). The
	// round's pings span PingsPerPair x PingInterval: the paper's 30-min
	// window, long enough to absorb RTT variability and short enough to
	// stay correlated.
	PingInterval time.Duration
	// MinValidPings is the minimum number of replies for a median to
	// count (3).
	MinValidPings int
	// Start is the campaign start (the paper ran 20 Apr - 17 May 2017).
	Start time.Time
	// Concurrency bounds the per-round worker pool; <= 0 means
	// GOMAXPROCS.
	Concurrency int
	// PairBudget caps the endpoint pairs measured per round. 0 (the
	// default) measures the exhaustive n*(n-1)/2 universe, exactly as
	// the paper does at its ~160-endpoint scale. A positive budget below
	// the universe size switches the round to deterministic stratified
	// sampling: per-city-pair quotas proportional to the strata's eyeball
	// population weights, drawn from an rng stream keyed by (seed, round)
	// — never by schedule — so sampled streams are bit-identical at any
	// Concurrency or shard count. A budget at or above the universe size
	// is a no-op (the round stays exhaustive and bit-identical to
	// PairBudget 0). Negative budgets are rejected.
	PairBudget int
	// EndpointsPerCountry raises the per-round endpoint quota per
	// country ( <= 0 or 1 keeps the paper's one probe per country).
	// Draw-for-draw compatible at 1 with the historical sampler; higher
	// quotas grow the round's endpoint population toward the ROADMAP's
	// million-endpoint scale, which is only tractable together with
	// PairBudget.
	EndpointsPerCountry int
	// CampaignSeed drives the campaign's stochastic draws (endpoint and
	// relay sampling). 0 inherits the world seed — the classic
	// one-world-one-campaign coupling. Setting it decouples measurement
	// randomness from world identity, so N campaigns with distinct
	// seeds can share one built world (the sweep workload).
	CampaignSeed int64
	// DailyCreditLimit is the RIPE Atlas credit budget per day; the
	// campaign fails if a round would exceed it. <= 0 disables.
	DailyCreditLimit int64
	// Scenario, when non-nil, is the dynamic-world timeline the campaign
	// runs under: it is compiled against the world at campaign start
	// into per-round snapshots whose factors overlay the latency engine
	// and whose churn masks prune the relay feasibility filter. The
	// world itself is never mutated, so calm and disrupted campaigns can
	// share one world concurrently. Nil (or an event-free scenario)
	// reproduces the static world bit-for-bit.
	Scenario *scenario.Scenario
	// DisableFeasibilityFilter skips the Section-2.4 speed-of-light
	// relay pre-filter and measures every sampled relay against every
	// pair. This is an ablation switch: results must be unchanged (the
	// filter only removes relays that cannot win) while measurement cost
	// rises sharply.
	DisableFeasibilityFilter bool
	// SelfHeal, when non-nil, closes the inject→detect→re-plan loop:
	// the controller is fed the campaign's own observation stream
	// (before the caller's sink) and is consulted at each round start
	// for relays to exclude from the feasibility filter — the same
	// masking path scenario churn rides, so excluded relays neither
	// count as feasible nor get legs measured. Round r's detections
	// shape round r+1's plan; rounds run one at a time, so the
	// controller always sees round r before round r+1 starts. Nil (the
	// default) changes nothing: calm and detection-off campaigns stay
	// bit-identical to every golden digest.
	SelfHeal SelfHealController
	// FastAvailability switches the per-(probe, round) availability
	// coins — the drafting responsiveness check and the window/relay
	// liveness checks — from the rng.Rand family (atlas.Responsive and
	// WindowUp) to the value-type atlas.ResponsiveFast/WindowUpFast
	// streams. Both families cost tens of nanoseconds per coin. The fast
	// family draws a DIFFERENT (equally deterministic) coin sequence, so
	// flipping this knob changes which probes are up in a given round:
	// the default false keeps the historical sequence the exhaustive and
	// sampled golden digests pin. The knob remains because the scale-tier
	// digests were recorded with the fast family
	// (TestFastAvailabilityGoldenDigests and perfbench's scale-campaign
	// digests); scale-tier campaigns set it to reproduce them.
	FastAvailability bool
}

// DefaultConfig returns the paper's campaign schedule.
func DefaultConfig() Config {
	return Config{
		Rounds:           45,
		RoundInterval:    12 * time.Hour,
		PingsPerPair:     6,
		PingInterval:     5 * time.Minute,
		MinValidPings:    3,
		Start:            time.Date(2017, 4, 20, 0, 0, 0, 0, time.UTC),
		DailyCreditLimit: 4_000_000,
	}
}

// QuickConfig returns a short campaign for tests and examples: the same
// per-round mechanics over fewer rounds.
func QuickConfig(rounds int) Config {
	c := DefaultConfig()
	c.Rounds = rounds
	return c
}
