// Package sim composes the full synthetic world: the APNIC dataset, the
// AS topology, BGP routing, the latency engine, the PeeringDB registry,
// the prefix-to-AS table, the stale facility-mapping snapshot, Periscope,
// the RIPE Atlas fleet, PlanetLab, the relay catalog and the endpoint
// selector. One seed builds one world, bit-for-bit reproducibly.
//
// Construction is a staged DAG: after topology generation, independent
// generators (PeeringDB, prefix2as -> facmap, Periscope, Atlas,
// PlanetLab) run concurrently. Every stage draws from its own named
// rng.Split — a pure function of (seed, label) — so the schedule cannot
// perturb any stream and parallel builds are bit-identical to
// sequential ones. A built World is immutable apart from internal
// caches (BGP trees, latency path state), all safe for concurrent use,
// so one World can back arbitrarily many campaigns at once.
package sim

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"shortcuts/internal/atlas"
	"shortcuts/internal/bgp"
	"shortcuts/internal/datasets/apnic"
	"shortcuts/internal/datasets/facmap"
	"shortcuts/internal/datasets/peeringdb"
	"shortcuts/internal/datasets/prefix2as"
	"shortcuts/internal/eyeball"
	"shortcuts/internal/latency"
	"shortcuts/internal/periscope"
	"shortcuts/internal/planetlab"
	"shortcuts/internal/relays"
	"shortcuts/internal/rng"
	"shortcuts/internal/topology"
	"shortcuts/internal/worlddata"
)

// WorldParams configures every subsystem.
type WorldParams struct {
	Seed          int64
	Topology      topology.GenParams
	Latency       latency.Params
	Atlas         atlas.Params
	PlanetLab     planetlab.Params
	Periscope     periscope.Params
	FacMap        facmap.Params
	Prefix2AS     prefix2as.Params
	Sampling      relays.SampleParams
	EyeballCutoff float64
}

// DefaultWorldParams returns the full-scale world matching the paper's
// campaign dimensions.
func DefaultWorldParams(seed int64) WorldParams {
	return WorldParams{
		Seed:          seed,
		Topology:      topology.DefaultParams(),
		Latency:       latency.DefaultParams(),
		Atlas:         atlas.DefaultParams(),
		PlanetLab:     planetlab.DefaultParams(),
		Periscope:     periscope.DefaultParams(),
		FacMap:        facmap.DefaultParams(),
		Prefix2AS:     prefix2as.DefaultParams(),
		Sampling:      relays.DefaultSampleParams(),
		EyeballCutoff: eyeball.Cutoff,
	}
}

// SmallWorldParams returns a reduced world for fast tests and examples.
func SmallWorldParams(seed int64) WorldParams {
	p := DefaultWorldParams(seed)
	p.Topology = topology.SmallParams()
	p.FacMap.NumRecords = 700
	return p
}

// ScaleWorldParams returns the default-dimension world with the Atlas
// eyeball fleet scaled so that a measurement round sampling every
// responsive eligible probe (measure.Config.EndpointsPerCountry set
// high) sees roughly targetEndpoints endpoints. Only the per-AS probe
// deployment grows — topology, relay quotas and every other subsystem
// keep their paper dimensions — so the knob isolates endpoint-plane
// scale, the axis the ROADMAP's million-endpoint open item is about.
//
// The target is approximate (the eligible and responsive fractions are
// stochastic): expect the realized round population within ~20%.
func ScaleWorldParams(seed int64, targetEndpoints int) WorldParams {
	p := DefaultWorldParams(seed)
	// Measured on the seed-1 default world: ~159 verified eyeball ASes
	// end up hosting drafted probes; per deployed probe, the Section-2.1
	// eligibility filters and round availability pass ~0.53 endpoints
	// into a round; coverage and jitter add ~9.5 probes per AS on top of
	// the base.
	const eyeballASes, perProbeYield, coverageTerm = 159.0, 0.532, 9.5
	base := int(float64(targetEndpoints)/(eyeballASes*perProbeYield) - coverageTerm)
	if base < p.Atlas.EyeballBaseProbes {
		base = p.Atlas.EyeballBaseProbes
	}
	p.Atlas.EyeballBaseProbes = base
	// Scale tiers deploy the fleet with the sharded per-AS generator:
	// bit-identical across worker counts (proven by the build-identity
	// test), but a different deterministic fleet than the sequential
	// walk — which paper-scale worlds, and the golden digests pinned on
	// them, keep using.
	p.Atlas.ShardedDeployment = true
	return p
}

// World is the composed simulation.
type World struct {
	Params    WorldParams
	Apnic     *apnic.Dataset
	Topo      *topology.Topology
	Router    *bgp.Router
	Engine    *latency.Engine
	Registry  *peeringdb.Registry
	Prefixes  *prefix2as.Table
	FacMap    *facmap.Dataset
	Periscope *periscope.Service
	Atlas     *atlas.Platform
	PlanetLab *planetlab.Registry
	Catalog   *relays.Catalog
	Sampler   *relays.Sampler
	Selector  *eyeball.Selector

	// cache backs SharedCache. Its presence makes World non-copyable
	// (use the *World that Build returns, as all code already does).
	cacheMu sync.Mutex
	cache   map[string]any
}

// SharedCache returns the value cached under key, invoking build and
// storing its result on first use. It exists for campaign-independent
// precomputations that higher layers derive purely from the world —
// e.g. the measurement layer's city-pair feasibility rankings — so a
// sweep running many concurrent campaigns over one world builds such
// state once instead of once per campaign. build runs at most once per
// key per world (callers block while it runs); the cached value must be
// immutable or internally synchronized, like every other World cache.
func (w *World) SharedCache(key string, build func() any) any {
	w.cacheMu.Lock()
	defer w.cacheMu.Unlock()
	if v, ok := w.cache[key]; ok {
		return v
	}
	if w.cache == nil {
		w.cache = make(map[string]any)
	}
	v := build()
	w.cache[key] = v
	return v
}

// BuildOptions control how a world is constructed. Build options are a
// pure scheduling knob: every option combination produces bit-identical
// worlds for equal WorldParams.
type BuildOptions struct {
	// Workers bounds stage-level build parallelism. <= 0 means
	// GOMAXPROCS; 1 builds strictly sequentially.
	Workers int
	// WarmRoutes precomputes the BGP routing trees toward every
	// campaign destination (eyeball endpoint ASes and relay ASes) at
	// build time, in parallel, so round 0 of a campaign starts against
	// a hot routing cache instead of serializing on cold trees.
	WarmRoutes bool
}

// DefaultBuildOptions is the standard campaign configuration: parallel
// staged build plus the route warmup.
func DefaultBuildOptions() BuildOptions {
	return BuildOptions{Workers: 0, WarmRoutes: true}
}

// EffectiveWorkers resolves the Workers knob to the worker count a
// build actually uses.
func (o BuildOptions) EffectiveWorkers() int {
	if o.Workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return o.Workers
}

// buildStage is one node of the construction DAG. Stages communicate
// only through World fields their dependencies have already written, and
// draw randomness only through named splits of the shared root
// generator, so any schedule respecting deps yields the same world.
type buildStage struct {
	name string
	deps []string
	run  func(w *World, p WorldParams, g *rng.Rand) error
}

// worldStages returns the construction DAG in a valid sequential order
// (every stage appears after its dependencies). workers is the build's
// worker budget, passed into stages that shard internally (the fleet
// deployment); internal sharding never affects results, only wall-clock.
func worldStages(workers int) []buildStage {
	return []buildStage{
		{name: "apnic", run: func(w *World, p WorldParams, g *rng.Rand) error {
			w.Apnic = apnic.Generate(g.Split("apnic"), apnic.DefaultParams(worlddata.CountryCodes()))
			return nil
		}},
		{name: "topology", deps: []string{"apnic"}, run: func(w *World, p WorldParams, g *rng.Rand) error {
			topo, err := topology.Generate(g, p.Topology, w.Apnic)
			if err != nil {
				return err
			}
			w.Topo = topo
			w.Router = bgp.New(topo)
			return nil
		}},
		{name: "latency", deps: []string{"topology"}, run: func(w *World, p WorldParams, g *rng.Rand) error {
			w.Engine = latency.New(w.Router, p.Latency, g)
			return nil
		}},
		{name: "peeringdb", deps: []string{"topology"}, run: func(w *World, p WorldParams, g *rng.Rand) error {
			w.Registry = peeringdb.New(w.Topo)
			return nil
		}},
		{name: "prefix2as", deps: []string{"topology"}, run: func(w *World, p WorldParams, g *rng.Rand) error {
			w.Prefixes = prefix2as.Generate(g, w.Topo, p.Prefix2AS)
			return nil
		}},
		{name: "facmap", deps: []string{"prefix2as"}, run: func(w *World, p WorldParams, g *rng.Rand) error {
			w.FacMap = facmap.Generate(g, w.Topo, w.Prefixes, p.FacMap)
			return nil
		}},
		{name: "periscope", deps: []string{"latency"}, run: func(w *World, p WorldParams, g *rng.Rand) error {
			w.Periscope = periscope.Generate(g, w.Topo, w.Engine, p.Periscope)
			return nil
		}},
		{name: "atlas", deps: []string{"topology"}, run: func(w *World, p WorldParams, g *rng.Rand) error {
			w.Atlas = atlas.GenerateWith(g, w.Topo, p.Atlas, workers)
			return nil
		}},
		{name: "planetlab", deps: []string{"topology"}, run: func(w *World, p WorldParams, g *rng.Rand) error {
			w.PlanetLab = planetlab.Generate(g, w.Topo, p.PlanetLab)
			return nil
		}},
		{name: "eyeball", deps: []string{"apnic", "atlas"}, run: func(w *World, p WorldParams, g *rng.Rand) error {
			w.Selector = eyeball.New(w.Apnic, w.Atlas, p.EyeballCutoff)
			return nil
		}},
		{name: "relays", deps: []string{"peeringdb", "facmap", "periscope", "planetlab", "eyeball"}, run: func(w *World, p WorldParams, g *rng.Rand) error {
			cat, err := relays.BuildCatalog(g, relays.Deps{
				Topo:      w.Topo,
				Registry:  w.Registry,
				FacMap:    w.FacMap,
				Prefixes:  w.Prefixes,
				Periscope: w.Periscope,
				Atlas:     w.Atlas,
				PlanetLab: w.PlanetLab,
				IsEyeball: w.Selector.IsEyeball,
			})
			if err != nil {
				return err
			}
			w.Catalog = cat
			return nil
		}},
		{name: "sampler", deps: []string{"relays"}, run: func(w *World, p WorldParams, g *rng.Rand) error {
			w.Sampler = relays.NewSampler(w.Catalog, w.Selector, w.PlanetLab, p.Sampling)
			return nil
		}},
	}
}

// Build constructs the world with the default options (parallel staged
// build, routes warmed).
func Build(p WorldParams) (*World, error) {
	return BuildWith(p, DefaultBuildOptions())
}

// BuildWith constructs the world under explicit build options. Equal
// WorldParams produce bit-identical worlds for every option combination;
// options trade build wall-clock only.
func BuildWith(p WorldParams, o BuildOptions) (*World, error) {
	g := rng.New(p.Seed)
	w := &World{Params: p}
	workers := o.EffectiveWorkers()
	if err := runStages(worldStages(workers), workers, w, p, g); err != nil {
		return nil, err
	}
	if o.WarmRoutes {
		if err := w.WarmRoutes(workers); err != nil {
			return nil, fmt.Errorf("sim: warm routes: %w", err)
		}
	}
	return w, nil
}

// runStages executes the construction DAG with at most workers stages
// in flight. workers <= 1 degenerates to the declared sequential order.
func runStages(stages []buildStage, workers int, w *World, p WorldParams, g *rng.Rand) error {
	if workers <= 1 {
		for _, st := range stages {
			if err := st.run(w, p, g); err != nil {
				return fmt.Errorf("sim: %s: %w", st.name, err)
			}
		}
		return nil
	}

	done := make(map[string]chan struct{}, len(stages))
	for _, st := range stages {
		if done[st.name] != nil {
			return fmt.Errorf("sim: duplicate build stage %q", st.name)
		}
		done[st.name] = make(chan struct{})
	}
	for _, st := range stages {
		for _, d := range st.deps {
			if done[d] == nil {
				return fmt.Errorf("sim: stage %q depends on unknown stage %q", st.name, d)
			}
		}
	}

	var (
		wg     sync.WaitGroup
		sem    = make(chan struct{}, workers)
		failed atomic.Pointer[error]
	)
	for _, st := range stages {
		wg.Add(1)
		go func(st buildStage) {
			defer wg.Done()
			// Closing the done channel even on failure keeps dependents
			// from blocking; they observe the failure flag and bail.
			defer close(done[st.name])
			for _, d := range st.deps {
				<-done[d]
			}
			if failed.Load() != nil {
				return
			}
			sem <- struct{}{}
			err := st.run(w, p, g)
			<-sem
			if err != nil {
				e := fmt.Errorf("sim: %s: %w", st.name, err)
				failed.CompareAndSwap(nil, &e)
			}
		}(st)
	}
	wg.Wait()
	if e := failed.Load(); e != nil {
		return *e
	}
	return nil
}

// CampaignDestinations returns the deduplicated AS set a measurement
// campaign routes toward: every verified eyeball endpoint AS and every
// relay AS, in first-seen catalog order. These are exactly the
// destinations whose BGP trees the rounds will demand. COR and PLR
// relays are read from the catalog; RAR relays are the eligible atlas
// rows, which sit grouped by AS, so their ASes are read off the fleet's
// columns where the AS changes.
func (w *World) CampaignDestinations() []topology.ASN {
	seen := make(map[topology.ASN]bool)
	var dsts []topology.ASN
	add := func(a topology.ASN) {
		if !seen[a] {
			seen[a] = true
			dsts = append(dsts, a)
		}
	}
	for _, a := range w.Selector.ASes() {
		add(a)
	}
	_, stored := w.Catalog.Span(relays.PLR)
	for i := range stored {
		add(w.Catalog.Relay(i).Endpoint.AS)
	}
	prev := topology.ASN(-1)
	for row := range int32(w.Atlas.Len()) {
		if as := w.Atlas.AS(row); as != prev && w.Atlas.Eligible(row) {
			add(as)
			prev = as
		}
	}
	return dsts
}

// WarmRoutes precomputes the BGP routing trees for every campaign
// destination with the given parallelism (<= 0 means GOMAXPROCS).
func (w *World) WarmRoutes(workers int) error {
	return w.Router.Warm(w.CampaignDestinations(), workers)
}
