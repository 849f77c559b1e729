package shortcuts

import (
	"fmt"
	"runtime"

	"shortcuts/internal/par"
)

// Sweep fans a multi-campaign workload — one campaign per seed — over
// the measurement substrate, streaming every campaign through the Sink
// layer into constant-memory StreamStats.
//
// With World set, every campaign shares that one built world and the
// seeds vary only the campaigns' stochastic draws (endpoint and relay
// sampling): the paper's shape of evaluation, many experiments over one
// measured Internet. With World nil, each seed builds its own world
// (world and campaign both seeded with it), which answers the
// across-worlds question instead — how robust a finding is to the
// synthetic Internet itself.
type Sweep struct {
	// Config is the campaign template: Rounds, Concurrency and Scenario
	// apply to every campaign, and Seed serves only as the default when
	// Seeds is empty. With World nil, SmallWorld selects the per-seed
	// world dimensions (each world is seeded with its campaign seed);
	// with World set, SmallWorld is ignored. Setting Config.Scenario
	// runs the whole sweep under that disruption timeline — run one
	// sweep with it nil (or "calm") and one with it set to compare
	// remedy value in calm vs. disrupted worlds over the same seeds.
	Config Config
	// Seeds are the campaign seeds, one campaign per entry, reported in
	// order. Empty defaults to {Config.Seed}. Seed 0 is the inherit
	// sentinel (see NewCampaignWith): with World set it reruns the
	// world-seed campaign rather than a distinct stream.
	Seeds []int64
	// World, when non-nil, is shared by every campaign.
	World *World
	// Parallelism bounds how many campaigns run concurrently; <= 0
	// means 1. In rebuild mode it also sizes the shared world-build
	// pool: all per-seed worlds are prebuilt through it before the
	// campaigns run, each build receiving an equal share of the
	// machine's stage-parallelism budget.
	//
	// Campaigns (this knob) and workers per round (Config.Concurrency)
	// draw from one GOMAXPROCS budget: when Config.Concurrency is unset,
	// each campaign's per-round pool is GOMAXPROCS divided by
	// Parallelism, so composing the knobs reshapes the schedule instead
	// of oversubscribing the cores.
	Parallelism int
	// SinkFor, when set, supplies a streaming Sink per seed (it may
	// return nil). Each campaign's observations flow into its own sink;
	// sinks for different seeds may be invoked concurrently when
	// Parallelism > 1.
	SinkFor func(seed int64) Sink
}

// SweepResult is one campaign's outcome.
type SweepResult struct {
	Seed  int64
	Stats *StreamStats
	Err   error
}

// Run executes the sweep and returns one result per seed, in seed-slice
// order. A Config that fails Validate returns (nil, err) before any
// world is built. Otherwise failures are recorded per result; the
// returned error is the first failure (the remaining campaigns still
// run).
func (s Sweep) Run() ([]SweepResult, error) {
	if err := s.Config.Validate(); err != nil {
		return nil, err
	}
	seeds := s.Seeds
	if len(seeds) == 0 {
		seeds = []int64{s.Config.Seed}
	}
	workers := s.Parallelism
	if workers <= 0 {
		workers = 1
	}
	if workers > len(seeds) {
		workers = len(seeds)
	}

	results := make([]SweepResult, len(seeds))

	// Rebuild mode: batch every per-seed world build through a shared
	// pool before any campaign runs. Concurrent builds divide the
	// stage-parallelism budget between them (each world is bit-identical
	// for any budget), so N builds saturate the machine once instead of
	// each claiming all of it — and the campaigns then start against
	// fully built worlds.
	worlds := make([]*World, len(seeds))
	if s.World == nil {
		buildBudget := max(runtime.GOMAXPROCS(0)/workers, 1)
		// Failures are recorded per result and every seed runs, so the
		// pool's own error is always nil; the same holds for the
		// campaigns below.
		_ = par.For(len(seeds), workers, func(_, i int) error {
			wcfg := s.Config
			wcfg.Seed = seeds[i]
			built, err := buildWorldWith(wcfg, buildBudget)
			if err != nil {
				results[i].Err = fmt.Errorf("shortcuts: sweep seed %d: %w", seeds[i], err)
				return nil
			}
			worlds[i] = built
			return nil
		})
	}

	// One machine budget across campaign x per-round worker parallelism:
	// with Concurrency unset and several campaigns running at once, each
	// campaign's round pool gets an equal GOMAXPROCS share.
	ccfgBase := s.Config
	if ccfgBase.Concurrency <= 0 && workers > 1 {
		ccfgBase.Concurrency = max(runtime.GOMAXPROCS(0)/workers, 1)
	}

	_ = par.For(len(seeds), workers, func(_, i int) error {
		seed := seeds[i]
		results[i].Seed = seed
		if results[i].Err != nil {
			return nil // world build already failed
		}
		world := s.World
		if world == nil {
			world = worlds[i]
			worlds[i] = nil // campaign owns it now; don't retain sweep-wide
		}
		ccfg := ccfgBase
		ccfg.Seed = seed
		c, err := NewCampaignWith(world, ccfg)
		if err != nil {
			results[i].Err = fmt.Errorf("shortcuts: sweep seed %d: %w", seed, err)
			return nil
		}
		var sink Sink
		if s.SinkFor != nil {
			sink = s.SinkFor(seed)
		}
		stats, err := c.RunStream(sink)
		if err != nil {
			results[i].Err = fmt.Errorf("shortcuts: sweep seed %d: %w", seed, err)
			return nil
		}
		results[i].Stats = stats
		return nil
	})

	for i := range results {
		if results[i].Err != nil {
			return results, results[i].Err
		}
	}
	return results, nil
}
