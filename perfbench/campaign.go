package main

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"time"

	"shortcuts"
	"shortcuts/internal/detect"
	"shortcuts/internal/measure"
	"shortcuts/internal/sim"
)

// campaignWorkload is a closed workload: build a world, run one
// campaign over it through the public API, repeat while time remains.
// The world is part of the workload: it is always built from worldSeed,
// so every run does comparable work. The run's seed drives the
// campaign's draws (endpoints, relays, pairs and pings).
type campaignWorkload struct {
	name   string
	rounds int
	config func(seed int64) shortcuts.Config
	// world and measure describe the same world and campaign through
	// the internal packages, for the traced replicas that time the
	// layers below the public API. The replicas' stream digests must
	// match the public one, which keeps them honest.
	world   sim.WorldParams
	measure func(seed int64) measure.Config
}

// worldSeed generates every world the benchmark builds: the paper's
// default world, as shortcuts.DefaultConfig and relayserve build it.
const worldSeed = 1

// scaleEndpoints and scalePairBudget size scale-campaign.
const (
	scaleEndpoints  = 100_000
	scalePairBudget = 4096
)

var paperCampaign = campaignWorkload{
	name:   "paper-campaign",
	rounds: 45,
	config: func(seed int64) shortcuts.Config { return shortcuts.Config{Seed: seed, Rounds: 45} },
	world:  sim.DefaultWorldParams(worldSeed),
	measure: func(seed int64) measure.Config {
		mc := measure.QuickConfig(45)
		mc.CampaignSeed = seed
		return mc
	},
}

var scaleCampaign = campaignWorkload{
	name:   "scale-campaign",
	rounds: 2,
	config: func(seed int64) shortcuts.Config {
		return shortcuts.Config{Seed: seed, Rounds: 2, ScaleEndpoints: scaleEndpoints, PairBudget: scalePairBudget}
	},
	world: sim.ScaleWorldParams(worldSeed, scaleEndpoints),
	measure: func(seed int64) measure.Config {
		// The scale-tier mapping of shortcuts.NewCampaignWith.
		mc := measure.QuickConfig(2)
		mc.CampaignSeed = seed
		mc.PairBudget = scalePairBudget
		mc.EndpointsPerCountry = 1 << 20
		mc.FastAvailability = true
		mc.DailyCreditLimit = 0
		return mc
	},
}

// minSetups is the least number of set-ups a run times, so that
// setup_s is a median even when only one campaign fits.
const minSetups = 3

// campaignStream is the sink side of one campaign: the stream digest
// plus the timings a consumer can see. A read is one observation
// reaching the sink; its latency is the time since its round began
// (the previous RoundDone, or the start of RunStream).
type campaignStream struct {
	d          *streamDigest
	roundStart time.Time
	roundMs    []float64
	readMs     []float64 // every round
	read0Ms    []float64 // round 0 again: the first reads of a fresh world
	timeEmit   bool
	emitTime   time.Duration
	onRound    func(prev, now time.Time) // traced runs: called after each round
}

func newCampaignStream() *campaignStream { return &campaignStream{d: newStreamDigest()} }

func (s *campaignStream) start() { s.roundStart = time.Now() }

func (s *campaignStream) read(now time.Time) {
	lat := ms(now.Sub(s.roundStart))
	s.readMs = append(s.readMs, lat)
	if s.d.rounds == 0 {
		s.read0Ms = append(s.read0Ms, lat)
	}
}

func (s *campaignStream) roundDone(round, endpoints, attempted, usable int, pings int64) {
	now := time.Now()
	s.roundMs = append(s.roundMs, ms(now.Sub(s.roundStart)))
	s.d.round(round, endpoints, attempted, usable, pings)
	prev := s.roundStart
	s.roundStart = now
	if s.onRound != nil {
		s.onRound(prev, now)
	}
}

// publicSink is the campaign stream behind a public shortcuts.Sink.
type publicSink struct{ *campaignStream }

func (s publicSink) Emit(o shortcuts.Observation) {
	now := time.Now()
	s.read(now)
	s.d.public(&o)
	if s.timeEmit {
		s.emitTime += time.Since(now)
	}
}

func (s publicSink) RoundDone(ri shortcuts.RoundInfo) {
	s.roundDone(ri.Round, ri.Endpoints, ri.PairsAttempted, ri.PairsUsable, ri.PingsSent)
}

// internalSink is the same stream behind a measure.Sink: the sink the
// public adapter would feed, doing equivalent work.
type internalSink struct{ *campaignStream }

func (s internalSink) Emit(o measure.Observation) {
	now := time.Now()
	s.read(now)
	s.d.internal(&o)
	if s.timeEmit {
		s.emitTime += time.Since(now)
	}
}

func (s internalSink) RoundDone(ri measure.RoundInfo) {
	s.roundDone(ri.Round, ri.Endpoints, ri.PairsAttempted, ri.PairsUsable, ri.PingsSent)
}

// campaignRun is one timed set-up plus campaign.
type campaignRun struct {
	setup, campaign time.Duration
	stream          *campaignStream
	pairs           int
	pings           int64
	relayedPaths    int64
}

// campaignHooks let the traced run watch a public campaign: spans
// for each call and round, counters bracketing RunStream, and a
// callback after each round.
type campaignHooks struct {
	tr            *tracer
	run           int
	onRound       func()
	before, after usage
}

// publicCampaign builds a world and runs one campaign through the
// public API: BuildWorld, NewCampaignWith, RunStream. h is nil when
// untraced.
func (wl campaignWorkload) publicCampaign(seed int64, stream *campaignStream, h *campaignHooks) (campaignRun, error) {
	// The previous world is garbage. Collect it and return its memory
	// to the OS, so that every campaign starts from the same state and
	// pays for its own page faults.
	debug.FreeOSMemory()
	var tr *tracer
	var run int
	if h != nil {
		tr, run = h.tr, h.run
	}
	root := tr.open(run, -1, wl.name)
	defer tr.close(root)
	t0 := time.Now()
	w, err := shortcuts.BuildWorld(wl.config(worldSeed))
	if err != nil {
		return campaignRun{}, fmt.Errorf("BuildWorld: %w", err)
	}
	c, err := shortcuts.NewCampaignWith(w, wl.config(seed))
	if err != nil {
		return campaignRun{}, fmt.Errorf("NewCampaignWith: %w", err)
	}
	t1 := time.Now()
	tr.add(run, root, "shortcuts.BuildWorld", t0, t1)
	rs := tr.open(run, root, "shortcuts.Campaign.RunStream")
	if h != nil {
		stream.onRound = func(prev, now time.Time) {
			tr.add(run, rs, "measure.round", prev, now)
			if h.onRound != nil {
				h.onRound()
			}
		}
		h.before = readUsage()
	}
	stream.start()
	t2 := stream.roundStart
	stats, err := c.RunStream(publicSink{stream})
	t3 := time.Now()
	if h != nil {
		h.after = readUsage()
	}
	tr.close(rs)
	if err != nil {
		return campaignRun{}, fmt.Errorf("RunStream: %w", err)
	}
	cr := campaignRun{setup: t1.Sub(t0), campaign: t3.Sub(t2), stream: stream,
		pairs: stats.Pairs(), pings: stats.TotalPings(), relayedPaths: stats.RelayedPathsStudied()}
	return cr, wl.check(seed, cr)
}

// check verifies one campaign's stream against its invariants and pins.
func (wl campaignWorkload) check(seed int64, cr campaignRun) error {
	if err := checkStream(wl.name, seed, wl.rounds, cr.stream.d); err != nil {
		return err
	}
	if int64(cr.pairs) != cr.stream.d.obs {
		return fmt.Errorf("StreamStats counts %d pairs, sink saw %d", cr.pairs, cr.stream.d.obs)
	}
	if cr.pings != cr.stream.d.pings {
		return fmt.Errorf("StreamStats counts %d pings, rounds report %d", cr.pings, cr.stream.d.pings)
	}
	return nil
}

// runCampaign runs a campaign workload: untraced, it repeats set-up and
// campaign while the next one fits in the run's time and reports the
// end-to-end metrics; traced, it reports the per-layer metrics.
func runCampaign(wl campaignWorkload, o options, r *report) error {
	if o.traced {
		return traceCampaign(wl, o, r)
	}
	start := time.Now()
	var runs []campaignRun
	var sums []string
	var setups []float64
	for {
		cr, err := wl.publicCampaign(o.seed, newCampaignStream(), nil)
		r.op("campaign", err)
		if err != nil {
			return nil
		}
		runs = append(runs, cr)
		sums = append(sums, cr.stream.d.sum())
		setups = append(setups, sec(cr.setup))
		if time.Since(start)+cr.setup+cr.campaign > o.seconds {
			break
		}
	}
	r.op("repeat digest", sameDigests(sums))
	for len(setups) < minSetups {
		debug.FreeOSMemory()
		t0 := time.Now()
		_, err := shortcuts.BuildWorld(wl.config(worldSeed))
		setups = append(setups, sec(time.Since(t0)))
		r.op("BuildWorld", err)
	}
	setCampaignMetrics(r, runs, setups)
	r.note("%d campaigns of %d rounds, seed %d, digest %s", len(runs), wl.rounds, o.seed, sums[0])
	return nil
}

// setCampaignMetrics sets the end-to-end metrics, and the tails
// reported beside them, from a run's campaigns and set-ups.
func setCampaignMetrics(r *report, runs []campaignRun, setups []float64) {
	var campaigns, rounds, reads, reads0, swaps []float64
	var obs int64
	var busy time.Duration
	for i, cr := range runs {
		r.note("campaign %d: set-up %.3f s, campaign %.3f s, rounds %.0f ms", i, sec(cr.setup), sec(cr.campaign), cr.stream.roundMs)
		campaigns = append(campaigns, sec(cr.campaign))
		swaps = append(swaps, sec(cr.setup+cr.campaign))
		rounds = append(rounds, cr.stream.roundMs...)
		reads = append(reads, cr.stream.readMs...)
		reads0 = append(reads0, cr.stream.read0Ms...)
		obs += cr.stream.d.obs
		busy += cr.campaign
	}
	tSetup := newTiming("setup", "s", setups)
	tCampaign := newTiming("campaign", "s", campaigns)
	tRound := newTiming("round", "ms", rounds)
	tRead := newTiming("read (observation since its round began)", "ms", reads)
	tRead0 := newTiming("read in round 0 of a fresh world", "ms", reads0)
	tSwap := newTiming("swap (fresh world: set-up + campaign)", "s", swaps)
	r.set("setup_s", tSetup.median())
	r.set("campaign_s", tCampaign.median())
	r.set("round_p50_ms", tRound.median())
	r.set("round_p75_ms", tRound.p(75))
	r.set("read_p50_ms", tRead.median())
	r.set("read_p99_ms", tRead.p(99))
	r.set("read_max_rps", float64(obs)/busy.Seconds())
	r.set("swap_read_p99_ms", tRead0.p(99))
	r.set("swap_s", tSwap.median())
	for _, t := range []timing{tSetup, tCampaign, tRound, tRead, tRead0, tSwap} {
		r.note("%s", t.describe())
	}
}

// timedDetector wraps the disruption detector with per-call timers.
type timedDetector struct {
	d                   *detect.Detector
	emitTime, roundTime time.Duration
	emits, rounds       int
}

func (t *timedDetector) Emit(o measure.Observation) {
	t0 := time.Now()
	t.d.Emit(o)
	t.emitTime += time.Since(t0)
	t.emits++
}

func (t *timedDetector) RoundDone(ri measure.RoundInfo) {
	t0 := time.Now()
	t.d.RoundDone(ri)
	t.roundTime += time.Since(t0)
	t.rounds++
}

func (t *timedDetector) ExcludedRelays(round int) []bool { return t.d.ExcludedRelays(round) }

// internalCampaign replays a campaign below the public API: sim build
// without route warming, bgp route warming, then measure.RunStream into
// an equivalent sink, optionally with a monitoring detector attached as
// the serve layer attaches it. The returned world still holds the
// campaign's latency cache.
type internalRun struct {
	build, warm, campaign time.Duration
	stream                *campaignStream
	world                 *sim.World
	det                   *timedDetector
}

func internalCampaign(wp sim.WorldParams, mc measure.Config, withDetector bool, tr *tracer, run, parent int) (internalRun, error) {
	runtime.GC()
	t0 := time.Now()
	w, err := sim.BuildWith(wp, sim.BuildOptions{WarmRoutes: false})
	if err != nil {
		return internalRun{}, fmt.Errorf("sim.BuildWith: %w", err)
	}
	t1 := time.Now()
	tr.add(run, parent, "sim.BuildWith", t0, t1)
	if err := w.WarmRoutes(0); err != nil {
		return internalRun{}, fmt.Errorf("WarmRoutes: %w", err)
	}
	t2 := time.Now()
	tr.add(run, parent, "bgp.WarmRoutes", t1, t2)
	ir := internalRun{build: t1.Sub(t0), warm: t2.Sub(t1), stream: newCampaignStream(), world: w}
	if withDetector {
		ir.det = &timedDetector{d: detect.New(w, detect.Options{})}
		tr.add(run, parent, "detect.New", t2, time.Now())
		mc.SelfHeal = ir.det
	}
	rs := tr.open(run, parent, "measure.RunStream")
	if tr != nil {
		ir.stream.onRound = func(prev, now time.Time) { tr.add(run, rs, "measure.round", prev, now) }
	}
	ir.stream.start()
	t3 := ir.stream.roundStart
	err = measure.RunStream(w, mc, internalSink{ir.stream})
	ir.campaign = time.Since(t3)
	tr.close(rs)
	if err != nil {
		return ir, fmt.Errorf("measure.RunStream: %w", err)
	}
	return ir, nil
}

// traceCampaign is the traced run of a campaign workload. It runs four
// campaigns on fresh worlds of the same seed:
//  1. untraced, through the public API: the baseline for the tracing
//     overhead;
//  2. traced, through the public API, under the CPU profiler, with
//     spans per call and memory and CPU counters per round; the profile
//     gives the layers' CPU shares and the public adapter's cost;
//  3. through sim, bgp and measure directly into an equivalent sink,
//     timing the build and the route warming separately;
//  4. as 3, with a timed monitoring detector attached.
//
// All four must produce the same stream digest.
func traceCampaign(wl campaignWorkload, o options, r *report) error {
	tr := newTracer()
	spansPath, profPath := traceFiles(o.outDir, wl.name, o.seed)
	clock := clockCost()

	base, err := wl.publicCampaign(o.seed, newCampaignStream(), nil)
	r.op("untraced campaign", err)
	if err != nil {
		return nil
	}

	// 2: traced public campaign.
	stream := newCampaignStream()
	stream.timeEmit = true
	var roundAlloc []float64
	h := &campaignHooks{tr: tr, run: tr.newRun()}
	last := readUsage()
	h.onRound = func() {
		u := readUsage()
		roundAlloc = append(roundAlloc, float64(u.alloc-last.alloc)/(1<<20))
		last = u
	}
	prof, err := startCPUProfile(profPath)
	if err != nil {
		return err
	}
	traced, err := wl.publicCampaign(o.seed, stream, h)
	if perr := prof.stop(); perr != nil && err == nil {
		err = perr
	}
	r.op("traced campaign", err)
	if err != nil {
		return nil
	}
	shares, samples, err := prof.shares()
	if err != nil {
		return err
	}

	// 3 and 4: the same campaign below the public API.
	wp, mc := wl.world, wl.measure(o.seed)
	run3 := tr.newRun()
	root3 := tr.open(run3, -1, wl.name+" (internal)")
	in, err := internalCampaign(wp, mc, false, tr, run3, root3)
	tr.close(root3)
	r.op("internal campaign", err)
	if err == nil {
		r.op("internal digest", digestMatch(base, in.stream))
	}
	var cached int
	loadMax := 0.0
	if in.world != nil {
		cached = in.world.Engine.CachedPairs()
		for _, s := range in.world.Engine.CacheStats() {
			loadMax = max(loadMax, s.LoadFactor())
		}
	}
	in.world = nil
	run4 := tr.newRun()
	root4 := tr.open(run4, -1, wl.name+" (internal, detector)")
	withDet, err := internalCampaign(wp, mc, true, tr, run4, root4)
	tr.close(root4)
	r.op("detector campaign", err)
	if err == nil {
		r.op("detector digest", digestMatch(base, withDet.stream))
	}
	if err := tr.write(spansPath); err != nil {
		return err
	}

	rounds := traced.stream.roundMs
	var steady []float64
	if len(rounds) > 1 {
		steady = rounds[1:]
	}
	d := traced.stream.d
	r.set("sim.build_ms", ms(in.build))
	r.set("bgp.warm_routes_ms", ms(in.warm))
	r.set("measure.round0_ms", rounds[0])
	r.set("measure.round_ms_p50", medianOf(steady))
	r.set("measure.pings", float64(d.pings))
	r.set("measure.relayed_paths", float64(traced.relayedPaths))
	r.set("measure.pairs_usable_ratio", float64(d.usable)/float64(d.attempted))
	r.set("measure.alloc_mb_per_round", medianOf(roundAlloc))
	r.set("runtime.gc_cpu_s", h.after.gc-h.before.gc)
	r.set("cpu.busy_frac", busyFrac(h.before, h.after))
	r.set("latency.cached_pairs", float64(cached))
	r.set("latency.cache_load_max", loadMax)
	setShares(r, shares)
	r.set("shortcuts.adapter_ms", shares["shortcuts"]*ms(h.after.cpu-h.before.cpu))
	r.set("sink.emit_ns", perCallNs(stream.emitTime, int(d.obs), clock/2))
	if withDet.det != nil {
		r.set("detect.emit_ns", perCallNs(withDet.det.emitTime, withDet.det.emits, clock))
		r.set("detect.round_us", perCallNs(withDet.det.roundTime, withDet.det.rounds, clock)/1e3)
		r.set("detect.events", float64(len(withDet.det.d.Events())))
	}
	r.set("endpoints_per_s", float64(base.stream.d.endpoints)/base.campaign.Seconds())
	setCampaignMetrics(r, []campaignRun{base}, []float64{sec(base.setup)})
	r.set("coverage.setup", (ms(in.build)+ms(in.warm))/ms(traced.setup))
	r.set("coverage.rounds", sum(rounds)/ms(traced.campaign))
	r.set("coverage.boot", 0)
	r.set("trace.overhead_frac", (traced.campaign.Seconds()-base.campaign.Seconds())/base.campaign.Seconds())
	setServeLayersUnreached(r)
	r.note("traced %s seed %d: %d CPU samples; spans in %s, profile in %s", wl.name, o.seed, samples, spansPath, profPath)
	r.note("campaign untraced %.3f s, traced %.3f s, below the public API %.3f s (untraced minus below: %.1f ms)",
		base.campaign.Seconds(), traced.campaign.Seconds(), in.campaign.Seconds(), ms(base.campaign-in.campaign))
	r.note("coverage: (sim.build + bgp.warm) / setup = %.3f; Σ rounds / campaign = %.3f", r.metrics["coverage.setup"], r.metrics["coverage.rounds"])
	return nil
}

func digestMatch(base campaignRun, s *campaignStream) error {
	if got, want := s.d.sum(), base.stream.d.sum(); got != want {
		return fmt.Errorf("digest %s below the public API, %s through it", got, want)
	}
	return nil
}
