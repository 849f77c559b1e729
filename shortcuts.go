// Package shortcuts reproduces "Shortcuts through Colocation Facilities"
// (Kotronis et al., IMC 2017) as a reusable library: it builds a
// deterministic synthetic Internet (AS-level topology with valley-free
// BGP, PoP-level geography and a calibrated latency model), deploys the
// paper's vantage-point populations (RIPE Atlas, PlanetLab, verified colo
// IPs), runs the 12-hourly relay measurement campaign, and exposes every
// figure, table and in-text statistic of the paper's evaluation.
//
// Quickstart:
//
//	c, err := shortcuts.NewCampaign(shortcuts.DefaultConfig())
//	if err != nil { ... }
//	res, err := c.Run()
//	if err != nil { ... }
//	fmt.Printf("COR improves %.0f%% of pairs\n", 100*res.ImprovedFraction(shortcuts.COR))
//
// # Shared worlds
//
// The expensive artifact is the world, not the campaign — and the
// paper's whole evaluation is many experiments over one measured world.
// BuildWorld constructs it once (generators run as a parallel staged
// DAG, BGP routing trees are pre-warmed) and NewCampaignWith attaches
// any number of campaigns to it, concurrently if desired:
//
//	world, err := shortcuts.BuildWorld(shortcuts.Config{Seed: 1, SmallWorld: true})
//	if err != nil { ... }
//	for seed := int64(1); seed <= 8; seed++ {
//		c, err := shortcuts.NewCampaignWith(world, shortcuts.Config{Seed: seed, Rounds: 4})
//		...
//	}
//
// Here cfg.Seed drives only the campaign's stochastic draws (endpoint
// and relay sampling); the world is fixed. NewCampaign remains the
// one-shot convenience (build world, attach one campaign), and a
// campaign whose seed equals the world's is bit-identical either way.
//
// # Sweeps
//
// Sweep runs that loop for you — multi-seed, optionally multi-config,
// over a shared or per-seed world, streaming each campaign through the
// Sink layer into a StreamStats that retains no observation and no
// world:
//
//	sweep := shortcuts.Sweep{
//		Config: shortcuts.Config{Rounds: 4, SmallWorld: true},
//		Seeds:  []int64{1, 2, 3, 4, 5, 6, 7, 8},
//		World:  world, // nil rebuilds a world per seed
//	}
//	results, err := sweep.Run()
//
// Everything is deterministic per seed: equal seeds reproduce worlds and
// campaigns bit-for-bit, for any build parallelism, worker count, cache
// shard count, or degree of world sharing.
package shortcuts

import (
	"fmt"
	"io"

	"shortcuts/internal/core"
	"shortcuts/internal/datasets/apnic"
	"shortcuts/internal/detect"
	"shortcuts/internal/measure"
	"shortcuts/internal/relays"
	"shortcuts/internal/sim"
)

// RelayType identifies one of the paper's relay populations. It prints
// the paper's labels: COR, PLR, RAR_eye and RAR_other.
type RelayType = relays.Type

// The four relay populations compared by the paper.
const (
	// COR are relays at verified colocation-facility IPs.
	COR = relays.COR
	// PLR are PlanetLab nodes at research sites.
	PLR = relays.PLR
	// RAREye are RIPE Atlas probes in verified eyeball networks.
	RAREye = relays.RAREye
	// RAROther are RIPE Atlas probes in all other networks.
	RAROther = relays.RAROther
)

// RelayTypes lists all populations in the paper's reporting order.
func RelayTypes() []RelayType { return []RelayType{COR, PLR, RAROther, RAREye} }

// Config selects the world and campaign dimensions.
type Config struct {
	// Seed drives every stochastic component; equal seeds reproduce
	// campaigns bit-for-bit.
	Seed int64
	// Rounds is the number of 12-hour measurement rounds (paper: 45).
	Rounds int
	// SmallWorld selects the reduced topology for fast experimentation.
	SmallWorld bool
	// ScaleEndpoints, when positive, grows the world until its responsive
	// probe population reaches roughly this many endpoints
	// (sim.ScaleWorldParams) and switches the campaign onto the
	// scale-tier path: every responsive probe is drafted each round and
	// per-round availability runs the fast coin stream. Scale campaigns
	// must set PairBudget — the exhaustive pair universe is quadratic in
	// the population and unmeasurable at these sizes. Mutually exclusive
	// with SmallWorld.
	ScaleEndpoints int
	// Concurrency bounds the per-round measurement worker pool; 0 means
	// GOMAXPROCS.
	Concurrency int
	// PairBudget caps the endpoint pairs measured per round. 0 (the
	// default) measures the exhaustive n*(n-1)/2 universe, exactly as
	// the paper does. A positive budget below the universe size switches
	// rounds to deterministic stratified sampling — per-city-pair quotas
	// weighted by eyeball population, drawn from streams keyed by
	// (seed, round) — so sampled campaigns stay bit-reproducible at any
	// Concurrency. Budgets at or above the universe size are a no-op;
	// negative budgets are rejected.
	PairBudget int
	// Scenario, when non-nil, runs the campaign under a dynamic-world
	// timeline (see Scenario); nil measures the calm, static world.
	Scenario *Scenario
	// SelfHeal attaches an online disruption detector to the campaign
	// and closes the loop: on a confirmed event the suspect city's
	// relays are excluded from the feasibility filter and the
	// detector's corridor relay plans re-route onto the best surviving
	// candidates, with cooldown and periodic re-probing of the masked
	// city. Detected events are available from Campaign.Disruptions
	// after the run; round r's detections shape round r+1's relay
	// sample. Off (the default), campaigns are bit-identical to earlier
	// releases.
	SelfHeal bool
}

// Validate reports why no campaign can run cfg, or nil. Rounds must be
// positive, PairBudget and ScaleEndpoints must not be negative, a scale
// world cannot also be small, and a scale world must set PairBudget.
// The world-tier rules are the ones relayserve applies to its options.
// NewCampaign, NewCampaignWith and Sweep.Run call it before any work.
func (cfg Config) Validate() error {
	if cfg.Rounds <= 0 {
		return fmt.Errorf("shortcuts: Rounds must be positive, got %d", cfg.Rounds)
	}
	if err := core.CheckTier(cfg.SmallWorld, cfg.ScaleEndpoints, cfg.PairBudget); err != nil {
		return fmt.Errorf("shortcuts: %w", err)
	}
	return nil
}

// DefaultConfig returns the paper's full campaign: the default world and
// 45 rounds.
func DefaultConfig() Config {
	return Config{Seed: 1, Rounds: 45}
}

// QuickConfig returns a config for fast runs: the full world over the
// given number of rounds.
func QuickConfig(rounds int) Config {
	return Config{Seed: 1, Rounds: rounds}
}

// Campaign is a built world plus a measurement schedule, ready to run.
type Campaign struct {
	world  *sim.World
	mc     measure.Config
	healer *detect.Detector // non-nil when Config.SelfHeal was set
}

// NewCampaign builds the synthetic world for the config and attaches
// one campaign to it: shorthand for BuildWorld followed by
// NewCampaignWith. To run several campaigns, build the world once and
// share it. A config that fails Validate is rejected before the world
// is built.
func NewCampaign(cfg Config) (*Campaign, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	w, err := BuildWorld(cfg)
	if err != nil {
		return nil, err
	}
	return NewCampaignWith(w, cfg)
}

// Run executes the measurement campaign and returns its results. It is
// a thin wrapper over the streaming executor: observations stream
// through a Results sink. Use RunStream to process campaigns whose
// observation set should not be materialized, or RunWithProgress for
// per-round progress.
func (c *Campaign) Run() (*Results, error) {
	return c.RunWithProgress(nil)
}

// Funnel describes the COR selection pipeline counts (Section 2.2; the
// paper's funnel is 2675 -> 1008 -> 764 -> 725 -> 725 -> 356 over 58
// facilities in 36 cities).
type Funnel = relays.FunnelStats

// Funnel returns the campaign world's COR pipeline counts.
func (c *Campaign) Funnel() Funnel { return c.World().Funnel() }

// CutoffPoint is one point of the Figure-1 eyeball-selection curve.
type CutoffPoint = apnic.CutoffPoint

// EyeballCutoffCurve computes Figure 1 over the campaign's APNIC dataset.
func (c *Campaign) EyeballCutoffCurve(cutoffs []float64) []CutoffPoint {
	return c.World().EyeballCutoffCurve(cutoffs)
}

// WriteFig1CSV writes the Figure-1 series.
func (c *Campaign) WriteFig1CSV(w io.Writer) error {
	return c.World().WriteFig1CSV(w)
}

// TwoRelayStats compares the best single-relay path against the best
// two-relay path over colo relays, the check behind the paper's
// one-relay design decision (citing Han et al. and Le et al.).
type TwoRelayStats struct {
	Pairs              int
	OneRelaySufficient int     // pairs where a second relay adds <= 2 ms
	MedianExtraGainMs  float64 // median extra gain of the second relay
}

// TwoRelayCheck runs the one-vs-two-relay extension experiment over a
// sample of endpoint pairs and the round-0 COR relay set.
func (c *Campaign) TwoRelayCheck(maxPairs, maxRelays int) (TwoRelayStats, error) {
	r, err := measure.TwoRelayExperiment(c.world, c.mc, 0, maxPairs, maxRelays)
	if err != nil {
		return TwoRelayStats{}, err
	}
	return TwoRelayStats{
		Pairs:              r.Pairs,
		OneRelaySufficient: r.OneRelaySufficient,
		MedianExtraGainMs:  r.MedianExtraGainMs,
	}, nil
}
