package shortcuts

import (
	"fmt"
	"io"

	"shortcuts/internal/core"
	"shortcuts/internal/detect"
	"shortcuts/internal/measure"
	"shortcuts/internal/report"
	"shortcuts/internal/sim"
)

// World is a built synthetic Internet: the AS topology, BGP routing,
// the latency engine, every dataset and platform, and the relay
// catalog. Building one is the expensive step (the generators run as a
// parallel staged DAG and the BGP routing trees for every campaign
// destination are precomputed); running campaigns over it is cheap to
// repeat. A World is immutable apart from internal caches that are safe
// for concurrent use, so any number of campaigns — including campaigns
// running at the same time — can share one World.
type World struct {
	inner *sim.World
}

// BuildWorld constructs the world selected by cfg (Seed and SmallWorld;
// the campaign dimensions of cfg are ignored). Use NewCampaignWith to
// attach campaigns.
func BuildWorld(cfg Config) (*World, error) {
	return buildWorldWith(cfg, 0)
}

// buildWorldWith builds a world with an explicit stage-parallelism
// budget (<= 0 means GOMAXPROCS). Sweeps building several worlds
// concurrently divide the machine between builds this way instead of
// oversubscribing it; the built world is bit-identical for any budget.
func buildWorldWith(cfg Config, buildWorkers int) (*World, error) {
	o := sim.DefaultBuildOptions()
	o.Workers = buildWorkers
	w, err := core.BuildWorld(worldParams(cfg), o)
	if err != nil {
		return nil, err
	}
	return &World{inner: w}, nil
}

// worldParams maps the public config onto world parameters.
func worldParams(cfg Config) sim.WorldParams {
	if cfg.ScaleEndpoints > 0 {
		return sim.ScaleWorldParams(cfg.Seed, cfg.ScaleEndpoints)
	}
	if cfg.SmallWorld {
		return sim.SmallWorldParams(cfg.Seed)
	}
	return sim.DefaultWorldParams(cfg.Seed)
}

// Seed returns the seed the world was generated from.
func (w *World) Seed() int64 { return w.inner.Params.Seed }

// NewCampaignWith couples a campaign to an existing world instead of
// building a fresh one. cfg.Rounds and cfg.Concurrency shape the
// campaign; cfg.Seed drives the campaign's stochastic draws (endpoint
// and relay sampling), so several campaigns with distinct seeds can
// measure one shared world independently. cfg.SmallWorld is ignored —
// the world is already built. Seed 0 is the inherit sentinel: it runs
// the campaign with the world's own seed, not a distinct stream.
//
// A campaign whose cfg.Seed equals the world's seed is bit-identical to
// NewCampaign(cfg) over a freshly built world.
func NewCampaignWith(w *World, cfg Config) (*Campaign, error) {
	if cfg.Rounds <= 0 {
		return nil, fmt.Errorf("shortcuts: Rounds must be positive, got %d", cfg.Rounds)
	}
	mc := measure.QuickConfig(cfg.Rounds)
	mc.Concurrency = cfg.Concurrency
	mc.PairBudget = cfg.PairBudget
	mc.CampaignSeed = cfg.Seed
	mc.Scenario = cfg.Scenario.innerScenario()
	if cfg.ScaleEndpoints > 0 {
		// Scale tier: draft the full responsive population per country
		// and run the fast availability coins — the configuration the
		// scale-tier digests were recorded with (see
		// measure.Config.FastAvailability). The RIPE Atlas credit model
		// is calibrated to the paper's ~500 endpoints; a 100k round
		// spends ~20x the daily budget on sampled pairs alone, so scale
		// campaigns run uncapped.
		mc.EndpointsPerCountry = 1 << 20
		mc.FastAvailability = true
		mc.DailyCreditLimit = 0
	}
	c := &Campaign{}
	if cfg.SelfHeal {
		c.healer = detect.New(w.inner, detect.Options{SelfHeal: true})
		mc.SelfHeal = c.healer
	}
	c.inner = core.NewCampaignWith(w.inner, mc)
	return c, nil
}

// World returns the world this campaign measures, for reuse by further
// campaigns.
func (c *Campaign) World() *World { return &World{inner: c.inner.World} }

// Funnel returns the world's COR pipeline counts (Section 2.2).
func (w *World) Funnel() Funnel {
	f := w.inner.Catalog.Funnel
	return Funnel{
		Initial:                f.Initial,
		SingleFacilityActive:   f.SingleFacilityActive,
		Pingable:               f.Pingable,
		SameOwnership:          f.SameOwnership,
		ActiveFacilityPresence: f.ActiveFacilityPresence,
		Geolocated:             f.Geolocated,
		Facilities:             f.Facilities,
		Cities:                 f.Cities,
	}
}

// EyeballCutoffCurve computes Figure 1 over the world's APNIC dataset.
func (w *World) EyeballCutoffCurve(cutoffs []float64) []CutoffPoint {
	pts := w.inner.Apnic.CutoffCurve(cutoffs)
	out := make([]CutoffPoint, len(pts))
	for i, p := range pts {
		out[i] = CutoffPoint{Cutoff: p.Cutoff, ASes: p.ASes, Countries: p.Countries}
	}
	return out
}

// WriteFig1CSV writes the Figure-1 series.
func (w *World) WriteFig1CSV(out io.Writer) error {
	return report.Fig1(out, w.inner.Apnic)
}
