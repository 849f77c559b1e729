package measure

import (
	"math/bits"
	"os"
	"testing"
	"time"

	"shortcuts/internal/atlas"
	"shortcuts/internal/sim"
)

// Two micro-benchmarks of the round loop: the feasibility filter over
// one round's (pair × relay) universe, and one warm sampled round at the
// scale tier. They time single mechanisms for profiling; perfbench (its
// own module, see perfbench/README.md) times campaigns end to end.

// benchFilterInput reconstructs one round's feasibility workload: the
// endpoint pairs with a plausible direct-RTT threshold each, and the
// round's relay positions with their cities.
type benchFilterInput struct {
	c         *campaign
	srcCity   []int
	dstCity   []int
	directRTT []time.Duration
	relayCity []int32
}

func benchFilterSetup(b *testing.B) *benchFilterInput {
	w, err := sim.Build(sim.DefaultWorldParams(1))
	if err != nil {
		b.Fatal(err)
	}
	cfg := QuickConfig(1)
	cfg.Concurrency = 1
	c, err := newCampaign(w, cfg)
	if err != nil {
		b.Fatal(err)
	}
	endpoints := c.w.Selector.SampleEndpoints(c.g, 0)
	exclude := make(map[atlas.ProbeID]bool, len(endpoints))
	for _, row := range endpoints {
		exclude[w.Atlas.ID(row)] = true
	}
	relaySet := c.w.Sampler.SampleRound(c.g, 0, exclude)
	in := &benchFilterInput{c: c}
	for t := range relaySet.ByType {
		for _, ri := range relaySet.ByType[t] {
			in.relayCity = append(in.relayCity, int32(c.w.Catalog.Relays[ri].City))
		}
	}
	for i := 0; i < len(endpoints); i++ {
		for j := i + 1; j < len(endpoints); j++ {
			a, bb := w.Atlas.Endpoint(endpoints[i]), w.Atlas.Endpoint(endpoints[j])
			rtt, err := w.Engine.BaseRTT(a, bb)
			if err != nil {
				b.Fatal(err)
			}
			in.srcCity = append(in.srcCity, a.City)
			in.dstCity = append(in.dstCity, bb.City)
			in.directRTT = append(in.directRTT, rtt)
		}
	}
	return in
}

// BenchmarkFeasibilityFilter times one full round of Section-2.4
// feasibility decisions — every (endpoint pair x sampled relay) — as the
// direct-pricing pass makes them: markFeasible writing each pair's row
// of the feasibility bitset. cold-direct is the per-check reference
// predicate (feasibleDirect) over the same checks.
func BenchmarkFeasibilityFilter(b *testing.B) {
	in := benchFilterSetup(b)
	c := in.c
	c.scr.relayCity = in.relayCity
	c.scr.livePos = c.scr.livePos[:0]
	for pos := range in.relayCity {
		c.scr.livePos = append(c.scr.livePos, int32(pos))
	}
	row := make([]uint64, (len(in.relayCity)+63)/64)
	runRows := func() int {
		feasible := 0
		for k := range in.srcCity {
			clear(row)
			c.markFeasible(row, in.srcCity[k], in.dstCity[k], in.directRTT[k])
			for _, word := range row {
				feasible += bits.OnesCount64(word)
			}
		}
		return feasible
	}
	runDirect := func() int {
		feasible := 0
		for k := range in.srcCity {
			for _, rc := range in.relayCity {
				if c.feasibleDirect(in.srcCity[k], int(rc), in.dstCity[k], in.directRTT[k]) {
					feasible++
				}
			}
		}
		return feasible
	}
	if runRows() != runDirect() {
		b.Fatal("feasibility rows disagree with the direct predicate")
	}
	checks := float64(len(in.srcCity) * len(in.relayCity))
	for _, bm := range []struct {
		name string
		run  func() int
	}{{"rows", runRows}, {"cold-direct", runDirect}} {
		b.Run(bm.name, func(b *testing.B) {
			var n int
			for i := 0; i < b.N; i++ {
				n = bm.run()
			}
			b.ReportMetric(checks, "checks/op")
			b.ReportMetric(float64(n), "feasible")
		})
	}
}

// BenchmarkMillionEndpointRound is the scale-tier benchmark: a world
// grown to ~100k endpoints (ScaleWorldParams), every country's full
// responsive population drafted each round, and the pair universe —
// nearly five billion at this scale — never materialized: a fixed
// PairBudget draws a stratified sample per round. The timed quantity is
// one warm round; endpoints/sec is the population the round carried
// divided by its wall time. The 1M tier multiplies the world build by
// ~10x, so it is opt-in via SHORTCUTS_BENCH_1M=1. Run with
// -benchtime=1x in CI: the world build dominates setup and one
// iteration is a stable round measurement.
func BenchmarkMillionEndpointRound(b *testing.B) {
	tiers := []struct {
		name   string
		target int
	}{{"100k", 100_000}}
	if os.Getenv("SHORTCUTS_BENCH_1M") != "" {
		tiers = append(tiers, struct {
			name   string
			target int
		}{"1M", 1_000_000})
	}
	for _, tier := range tiers {
		b.Run(tier.name, func(b *testing.B) {
			wp := sim.ScaleWorldParams(1, tier.target)
			// Route warming walks every AS at build time; the scale tiers
			// measure the round loop, and sampled rounds fault in only the
			// routes they touch.
			w, err := sim.BuildWith(wp, sim.BuildOptions{WarmRoutes: false})
			if err != nil {
				b.Fatal(err)
			}
			cfg := QuickConfig(2)
			cfg.DailyCreditLimit = 0
			cfg.PairBudget = 4096
			cfg.EndpointsPerCountry = 1 << 20 // draft every responsive probe
			// Scale tiers run the fast availability coins, the
			// configuration the scale-tier digests were recorded with.
			cfg.FastAvailability = true
			c, err := newCampaign(w, cfg)
			if err != nil {
				b.Fatal(err)
			}
			var endpoints int
			for r := 0; r < 2; r++ {
				info, err := c.runRound(r, discardSink{})
				if err != nil {
					b.Fatal(err)
				}
				endpoints = info.Endpoints
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := c.runRound(1, discardSink{}); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			perRound := b.Elapsed().Seconds() / float64(b.N)
			b.ReportMetric(float64(endpoints), "endpoints")
			b.ReportMetric(float64(endpoints)/perRound, "endpoints/sec")
		})
	}
}
