package shortcuts

import (
	"io"
	"os"
	"sync"
	"testing"
	"time"

	"shortcuts/internal/analysis"
	"shortcuts/internal/latency"
	"shortcuts/internal/measure"
	"shortcuts/internal/relays"
	"shortcuts/internal/report"
	"shortcuts/internal/rng"
	"shortcuts/internal/scenario"
	"shortcuts/internal/sim"
	"shortcuts/internal/topology"
)

// The benchmark harness regenerates every table and figure of the paper's
// evaluation (DESIGN.md experiment index E1-E11). A default-world,
// 4-round campaign is built once and shared; each benchmark times the
// regeneration of one artifact and reports its headline value as a
// metric, so `go test -bench . -benchmem` doubles as the reproduction
// run. The full 45-round campaign lives in cmd/shortcuts.

var (
	benchOnce sync.Once
	benchW    *sim.World
	benchRes  *measure.Results
	benchErr  error
)

func benchResults(b *testing.B) (*sim.World, *measure.Results) {
	b.Helper()
	benchOnce.Do(func() {
		benchW, benchErr = sim.Build(sim.DefaultWorldParams(1))
		if benchErr != nil {
			return
		}
		benchRes, benchErr = measure.Run(benchW, measure.QuickConfig(4))
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchW, benchRes
}

// BenchmarkWorldBuild times constructing the entire synthetic world:
// datasets, topology, routing, platforms and the COR pipeline. The
// sequential/parallel pair isolates the staged-DAG speedup (identical
// work, different schedule; the gap needs real cores to show), and
// parallel-warm adds the BGP tree precompute campaigns would otherwise
// pay at round 0. The scale tiers build the grown worlds the
// million-endpoint round benchmark runs over (routes unwarmed — sampled
// rounds fault in only what they touch); the 1M tier is opt-in via
// SHORTCUTS_BENCH_1M=1, matching BenchmarkMillionEndpointRound.
func BenchmarkWorldBuild(b *testing.B) {
	for _, bc := range []struct {
		name string
		opts sim.BuildOptions
	}{
		{"sequential", sim.BuildOptions{Workers: 1}},
		{"parallel", sim.BuildOptions{Workers: 0}},
		{"parallel-warm", sim.BuildOptions{Workers: 0, WarmRoutes: true}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				w, err := sim.BuildWith(sim.DefaultWorldParams(1), bc.opts)
				if err != nil {
					b.Fatal(err)
				}
				if len(w.Catalog.Relays) == 0 {
					b.Fatal("empty catalog")
				}
			}
		})
	}
	tiers := []struct {
		name   string
		target int
	}{{"scale-100k", 100_000}}
	if os.Getenv("SHORTCUTS_BENCH_1M") != "" {
		tiers = append(tiers, struct {
			name   string
			target int
		}{"scale-1M", 1_000_000})
	}
	for _, tier := range tiers {
		b.Run(tier.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				w, err := sim.BuildWith(sim.ScaleWorldParams(1, tier.target), sim.BuildOptions{WarmRoutes: false})
				if err != nil {
					b.Fatal(err)
				}
				if len(w.Catalog.Relays) == 0 {
					b.Fatal("empty catalog")
				}
			}
		})
	}
}

// BenchmarkCampaignRound times one full measurement round (~190k pings:
// endpoint sampling, direct mesh, feasibility, legs, stitching) as a
// fresh single-round campaign over the shared world. The timer is reset
// after the shared fixture so the measurement covers the round, not the
// world build and warmup campaign benchResults performs once per test
// binary (before PR 5 the fixture cost was silently folded into this
// benchmark's first iteration). The warm marginal-round cost lives in
// internal/measure's BenchmarkCampaignRoundSteadyState.
func BenchmarkCampaignRound(b *testing.B) {
	w, _ := benchResults(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := measure.Run(w, measure.QuickConfig(1))
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Observations) == 0 {
			b.Fatal("no observations")
		}
	}
}

// BenchmarkFig1EyeballCutoff regenerates Figure 1 (E1): ASes and
// countries vs the user-coverage cutoff.
func BenchmarkFig1EyeballCutoff(b *testing.B) {
	w, _ := benchResults(b)
	var cutoffs []float64
	for c := 0.0; c <= 100; c++ {
		cutoffs = append(cutoffs, c)
	}
	var at10 int
	for i := 0; i < b.N; i++ {
		pts := w.Apnic.CutoffCurve(cutoffs)
		at10 = pts[10].ASes
	}
	b.ReportMetric(float64(at10), "ases_at_10pct")
}

// BenchmarkFig2ImprovementCDF regenerates Figure 2 (E2): the per-type
// improvement CDFs and improved fractions.
func BenchmarkFig2ImprovementCDF(b *testing.B) {
	_, res := benchResults(b)
	var xs []float64
	for x := 0.0; x <= 200; x += 2 {
		xs = append(xs, x)
	}
	var cor float64
	for i := 0; i < b.N; i++ {
		for _, t := range []relays.Type{relays.COR, relays.PLR, relays.RAREye, relays.RAROther} {
			analysis.ImprovementCDF(res, t, xs)
		}
		cor = analysis.ImprovedFraction(res, relays.COR)
	}
	b.ReportMetric(cor*100, "cor_improved_pct")
	b.ReportMetric(analysis.ImprovedFraction(res, relays.RAROther)*100, "rar_other_pct")
	b.ReportMetric(analysis.ImprovedFraction(res, relays.PLR)*100, "plr_pct")
	b.ReportMetric(analysis.ImprovedFraction(res, relays.RAREye)*100, "rar_eye_pct")
}

// BenchmarkFig3TopRelays regenerates Figure 3 (E3): coverage vs number of
// top relays for every type.
func BenchmarkFig3TopRelays(b *testing.B) {
	_, res := benchResults(b)
	var ten float64
	for i := 0; i < b.N; i++ {
		for _, t := range []relays.Type{relays.COR, relays.PLR, relays.RAREye, relays.RAROther} {
			curve := analysis.TopRelayCurve(res, t, 100)
			if t == relays.COR && len(curve) >= 10 {
				ten = curve[9].FracTotal
			}
		}
	}
	b.ReportMetric(ten*100, "cor_top10_total_pct")
}

// BenchmarkFig4ThresholdCurves regenerates Figure 4 (E4): improvement
// thresholds for top-10 vs all relays per type.
func BenchmarkFig4ThresholdCurves(b *testing.B) {
	_, res := benchResults(b)
	ths := []float64{0, 10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	var over20 float64
	for i := 0; i < b.N; i++ {
		for _, t := range []relays.Type{relays.COR, relays.PLR, relays.RAREye, relays.RAROther} {
			pts := analysis.ThresholdCurves(res, t, 10, ths)
			if t == relays.COR {
				over20 = pts[2].Top
			}
		}
	}
	b.ReportMetric(over20*100, "cor_top10_over20ms_pct")
}

// BenchmarkTable1TopFacilities regenerates Table 1 (E5): the facility
// ranking of the top-20 COR relays.
func BenchmarkTable1TopFacilities(b *testing.B) {
	_, res := benchResults(b)
	var n int
	for i := 0; i < b.N; i++ {
		rows := analysis.TopFacilities(res, 20)
		n = len(rows)
	}
	b.ReportMetric(float64(n), "facilities_of_top20")
}

// BenchmarkCORPipeline regenerates the Section-2.2 funnel (E6) by
// rebuilding the relay catalog over the existing world datasets.
func BenchmarkCORPipeline(b *testing.B) {
	w, _ := benchResults(b)
	var kept int
	for i := 0; i < b.N; i++ {
		w2, err := sim.Build(sim.DefaultWorldParams(1))
		if err != nil {
			b.Fatal(err)
		}
		kept = w2.Catalog.Funnel.Geolocated
	}
	_ = w
	b.ReportMetric(float64(kept), "verified_cor_ips")
}

// BenchmarkCountryChange regenerates the country-change analysis (E7).
func BenchmarkCountryChange(b *testing.B) {
	_, res := benchResults(b)
	var s analysis.CountryChangeStats
	for i := 0; i < b.N; i++ {
		s = analysis.CountryChange(res, relays.COR)
	}
	b.ReportMetric(s.DiffCountryImproved*100, "diff_country_pct")
	b.ReportMetric(s.SameCountryImproved*100, "same_country_pct")
	b.ReportMetric(analysis.IntercontinentalFraction(res)*100, "intercontinental_pct")
}

// BenchmarkVoIPThreshold regenerates the 320 ms VoIP analysis (E8).
func BenchmarkVoIPThreshold(b *testing.B) {
	_, res := benchResults(b)
	var v analysis.VoIPStats
	for i := 0; i < b.N; i++ {
		v = analysis.VoIP(res)
	}
	b.ReportMetric(v.DirectOver*100, "direct_over320_pct")
	b.ReportMetric(v.WithCOROver*100, "with_cor_over320_pct")
}

// BenchmarkStabilityCV regenerates the temporal stability analysis (E9).
func BenchmarkStabilityCV(b *testing.B) {
	_, res := benchResults(b)
	var s analysis.CVStats
	for i := 0; i < b.N; i++ {
		s = analysis.StabilityCV(res)
	}
	b.ReportMetric(s.FracBelow10*100, "cv_below10_pct")
}

// BenchmarkPingSymmetry regenerates the direction-symmetry check (E10).
func BenchmarkPingSymmetry(b *testing.B) {
	_, res := benchResults(b)
	var s analysis.SymmetryStats
	for i := 0; i < b.N; i++ {
		s = analysis.Symmetry(res)
	}
	b.ReportMetric(s.FracWithin5*100, "within5_pct")
}

// BenchmarkRelayRedundancy regenerates the median improving-relay counts
// (E11).
func BenchmarkRelayRedundancy(b *testing.B) {
	_, res := benchResults(b)
	var cor float64
	for i := 0; i < b.N; i++ {
		cor = analysis.RelayRedundancyMedian(res, relays.COR)
	}
	b.ReportMetric(cor, "cor_median_improving")
	b.ReportMetric(analysis.RelayRedundancyMedian(res, relays.PLR), "plr_median_improving")
}

// BenchmarkReportRendering times writing every figure CSV and table.
func BenchmarkReportRendering(b *testing.B) {
	w, res := benchResults(b)
	for i := 0; i < b.N; i++ {
		if err := report.Fig1(io.Discard, w.Apnic); err != nil {
			b.Fatal(err)
		}
		if err := report.Fig2(io.Discard, res); err != nil {
			b.Fatal(err)
		}
		if err := report.Fig3(io.Discard, res, 100); err != nil {
			b.Fatal(err)
		}
		if err := report.Fig4(io.Discard, res, 10); err != nil {
			b.Fatal(err)
		}
		if err := report.Table1(io.Discard, res, 20); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBGPRouting times valley-free tree computation across all
// destinations (the routing substrate under every measurement).
func BenchmarkBGPRouting(b *testing.B) {
	w, _ := benchResults(b)
	eyes := w.Topo.ASes
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src := eyes[i%len(eyes)]
		dst := eyes[(i*31+7)%len(eyes)]
		if src.ASN == dst.ASN {
			continue
		}
		if _, err := w.Router.ASPath(src.ASN, dst.ASN); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTwoRelayExtension runs the one-vs-two-relay comparison (the
// check behind the paper's single-relay design, per Han et al. and Le et
// al.) and reports how marginal the second relay's gain is.
func BenchmarkTwoRelayExtension(b *testing.B) {
	w, _ := benchResults(b)
	var r measure.TwoRelayResult
	for i := 0; i < b.N; i++ {
		var err error
		r, err = measure.TwoRelayExperiment(w, measure.QuickConfig(1), 0, 100, 15)
		if err != nil {
			b.Fatal(err)
		}
	}
	if r.Pairs > 0 {
		b.ReportMetric(100*float64(r.OneRelaySufficient)/float64(r.Pairs), "one_relay_sufficient_pct")
		b.ReportMetric(r.MedianExtraGainMs, "median_extra_gain_ms")
	}
}

// BenchmarkRunStream times one full round through the streaming
// executor with constant-memory aggregates (no observation slice);
// allocation counts expose any per-observation buildup.
func BenchmarkRunStream(b *testing.B) {
	w, _ := benchResults(b)
	b.ReportAllocs()
	var cor float64
	for i := 0; i < b.N; i++ {
		stats := measure.NewStreamStats()
		if err := measure.RunStream(w, measure.QuickConfig(1), stats); err != nil {
			b.Fatal(err)
		}
		if stats.Pairs() == 0 {
			b.Fatal("no observations streamed")
		}
		cor = stats.ImprovedFraction(relays.COR)
	}
	b.ReportMetric(cor*100, "cor_improved_pct")
}

// BenchmarkScenarioRound times one full streaming round under the
// "outage" disruption timeline — the dynamic-world analogue of
// BenchmarkRunStream. The delta between the two is the total cost of
// the scenario machinery (snapshot compile + per-train overlay
// lookups); allocation counts expose any overlay-induced buildup on
// the ping hot path.
func BenchmarkScenarioRound(b *testing.B) {
	w, _ := benchResults(b)
	sc, err := scenario.ByName(scenario.PresetOutage)
	if err != nil {
		b.Fatal(err)
	}
	cfg := measure.QuickConfig(1)
	cfg.Scenario = sc
	b.ReportAllocs()
	b.ResetTimer()
	var cor float64
	for i := 0; i < b.N; i++ {
		stats := measure.NewStreamStats()
		if err := measure.RunStream(w, cfg, stats); err != nil {
			b.Fatal(err)
		}
		if stats.Pairs() == 0 {
			b.Fatal("no observations streamed")
		}
		cor = stats.ImprovedFraction(relays.COR)
	}
	b.ReportMetric(cor*100, "cor_improved_pct")
}

// benchmarkEngineCache hammers a pre-warmed path-state cache from many
// goroutines via BaseRTT, whose cost is almost entirely the cache read
// path (hash + lock + map lookup) — the operation every simulated ping
// performs before pricing. shards=1 is the old single-RWMutex layout;
// larger counts stripe the lock traffic. The gap widens with real
// cores: on one core an RWMutex cannot actually be contended.
func benchmarkEngineCache(b *testing.B, shards int) {
	w, _ := benchResults(b)
	p := latency.DefaultParams()
	p.CacheShards = shards
	eng := latency.New(w.Router, p, rng.New(1))
	eyes := w.Topo.ASesOfType(topology.Eyeball)
	var eps []latency.Endpoint
	for i := 0; i < len(eyes) && len(eps) < 64; i += 2 {
		eps = append(eps, latency.Endpoint{
			AS: eyes[i].ASN, City: eyes[i].HomeCity(),
			Access: time.Duration(1+i%7) * time.Millisecond,
		})
	}
	for i := range eps {
		for j := i + 1; j < len(eps); j++ {
			if _, err := eng.BaseRTT(eps[i], eps[j]); err != nil {
				b.Fatal(err)
			}
		}
	}
	// >= 8 concurrent workers even on small machines.
	b.SetParallelism(8)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			ai := i % len(eps)
			ci := (i*7 + 3) % len(eps)
			if ci == ai {
				ci = (ci + 1) % len(eps)
			}
			if _, err := eng.BaseRTT(eps[ai], eps[ci]); err != nil {
				b.Fatal(err)
			}
			i++
		}
	})
}

// BenchmarkEngineCacheSingleMap measures the pre-shard layout: every
// cache hit takes the one global RWMutex.
func BenchmarkEngineCacheSingleMap(b *testing.B) { benchmarkEngineCache(b, 1) }

// BenchmarkEngineCacheSharded measures the default sharded layout.
func BenchmarkEngineCacheSharded(b *testing.B) {
	benchmarkEngineCache(b, latency.DefaultCacheShards)
}
