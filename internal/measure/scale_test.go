package measure

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"shortcuts/internal/latency"
	"shortcuts/internal/sim"
)

// TestDraftEquivalence pins the columnar drafting contract: for every
// round and per-country quota, the campaign's draftEndpoints — which
// permutes the world's precomputed (country, AS) row lists — lands on
// exactly the rows that eyeball.SampleEndpointsInto's probe-pointer
// walk selects, in the same order. The exhaustive golden digests depend
// on this equivalence; this test localizes a violation to the drafting
// layer instead of a whole-stream digest mismatch.
func TestDraftEquivalence(t *testing.T) {
	w, err := sim.Build(sim.SmallWorldParams(17))
	if err != nil {
		t.Fatal(err)
	}
	if w.Draft == nil {
		t.Fatal("built world has no draft index")
	}
	for _, perCountry := range []int{1, 4} {
		t.Run(fmt.Sprintf("perCountry%d", perCountry), func(t *testing.T) {
			for round := 0; round < 3; round++ {
				// Two campaigns over the same world: equal seeds, so both
				// draw the identical "endpoints" stream per round.
				cRef, err := newCampaign(w, QuickConfig(3))
				if err != nil {
					t.Fatal(err)
				}
				cCol, err := newCampaign(w, QuickConfig(3))
				if err != nil {
					t.Fatal(err)
				}
				probes := w.Selector.SampleEndpointsInto(cRef.g, round, perCountry, nil)
				want := make([]int32, len(probes))
				for i, p := range probes {
					want[i] = w.Columns.Row(p.ID)
				}
				var scr roundScratch
				got := cCol.draftEndpoints(&scr, round, perCountry)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("round %d: drafted rows diverge from selector walk\n got %v\nwant %v", round, got, want)
				}
			}
		})
	}
}

// TestFastAvailabilityGoldenDigests pins the Config.FastAvailability
// stream the way the exhaustive and sampled suites pin the default
// availability family: SHA-256 over the full emitted stream, across the
// scheduling matrix. The fast coins draw a different sequence than the
// classic rng.Rand family — by design — so these digests differ from
// the classic goldens; what must hold is that they never move with
// scheduling (concurrency) and never drift across refactors. Recorded
// at Concurrency 1; cell names keep their historical -k1 suffix.
func TestFastAvailabilityGoldenDigests(t *testing.T) {
	cases := []struct {
		name       string
		seed       int64
		rounds     int
		budget     int
		perCountry int
		want       string
	}{
		{"seed17-r2-exhaustive", 17, 2, 0, 1,
			"d6e9910d7d86cf86f1b45227e93076c1aee331d5b5b524d65b30c40d893aa7ea"},
		{"seed17-r2-b200-epc4", 17, 2, 200, 4,
			"1038b9b1fd5be1f3e01e85088d392ef9f0ae7e04745661f4074d49e2e81daad0"},
	}
	for _, tc := range cases {
		w, err := sim.Build(sim.SmallWorldParams(tc.seed))
		if err != nil {
			t.Fatal(err)
		}
		for _, conc := range []int{1, 8} {
			t.Run(fmt.Sprintf("%s/c%d-k1", tc.name, conc), func(t *testing.T) {
				cfg := QuickConfig(tc.rounds)
				cfg.Concurrency = conc
				cfg.PairBudget = tc.budget
				cfg.EndpointsPerCountry = tc.perCountry
				cfg.DailyCreditLimit = 0
				cfg.FastAvailability = true
				sink := newDigestSink()
				if err := RunStream(w, cfg, sink); err != nil {
					t.Fatal(err)
				}
				if got := sink.sum(); got != tc.want {
					t.Fatalf("fast-availability stream digest drifted:\n got %s\nwant %s", got, tc.want)
				}
			})
		}
	}
}

// TestUnseenEndpointPricingAllocs pins the sampled-round hot case to
// zero allocations: once an attachment pair is cached, pricing an
// endpoint pair never priced before on it must not touch the heap, nor
// add a cache entry. Each run moves one endpoint's access delay by a
// nanosecond, so every run prices a new endpoint identity, through both
// PingTrainSched and ResolveBatch + PingTrainSchedHandle.
func TestUnseenEndpointPricingAllocs(t *testing.T) {
	w, err := sim.Build(sim.SmallWorldParams(41))
	if err != nil {
		t.Fatal(err)
	}
	probes := w.Atlas.Probes()
	if len(probes) < 2 {
		t.Fatal("world too small")
	}
	// Endpoints from opposite ends of the fleet, so the expansion is a
	// real multi-hop path.
	a, b := probes[0].Endpoint(), probes[len(probes)-1].Endpoint()
	view := w.Engine.View(nil)
	hourFrac := latency.SlotHourFracs(time.Unix(0, 0), time.Minute, 6, nil)
	samples := make([]latency.PingSample, len(hourFrac))
	pairs := make([]latency.EndpointPair, 1)
	handles := make([]latency.PairHandle, 1)
	// Admit the attachment pair.
	if err := view.PingTrainSched(a, b, 0, hourFrac, samples); err != nil {
		t.Fatal(err)
	}
	cached := w.Engine.CachedPairs()
	sched := testing.AllocsPerRun(200, func() {
		a.Access++
		if err := view.PingTrainSched(a, b, 1, hourFrac, samples); err != nil {
			t.Fatal(err)
		}
	})
	batch := testing.AllocsPerRun(200, func() {
		a.Access++
		pairs[0] = latency.EndpointPair{A: a, B: b}
		if err := view.ResolveBatch(pairs, handles); err != nil {
			t.Fatal(err)
		}
		view.PingTrainSchedHandle(&handles[0], 1, hourFrac, samples)
	})
	if sched != 0 || batch != 0 {
		t.Fatalf("unseen endpoint on a cached attachment pair allocates: PingTrainSched %v, ResolveBatch %v allocs/op, want 0", sched, batch)
	}
	if got := w.Engine.CachedPairs(); got != cached {
		t.Fatalf("unseen endpoints on a cached attachment pair grew the cache from %d to %d entries", cached, got)
	}
}

// TestBlockSinkEquivalence pins columnar emission against the classic
// per-observation stream: one campaign aggregated through EmitBlock
// (StreamStats is a BlockSink, so RunStream hands it column blocks) and
// the same campaign aggregated through a Sink-only wrapper (forcing the
// classic Emit path) must fold to byte-identical aggregates.
func TestBlockSinkEquivalence(t *testing.T) {
	w, err := sim.Build(sim.SmallWorldParams(17))
	if err != nil {
		t.Fatal(err)
	}
	for _, budget := range []int{0, 200} {
		t.Run(fmt.Sprintf("budget%d", budget), func(t *testing.T) {
			cfg := QuickConfig(2)
			cfg.PairBudget = budget
			cfg.EndpointsPerCountry = 2
			cfg.DailyCreditLimit = 0

			viaBlock := NewStreamStats()
			if err := RunStream(w, cfg, viaBlock); err != nil {
				t.Fatal(err)
			}
			viaEmit := NewStreamStats()
			if err := RunStream(w, cfg, sinkOnly{viaEmit}); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(viaBlock, viaEmit) {
				t.Fatalf("block-path aggregates diverge from classic Emit path:\nblock %+v\nemit  %+v", viaBlock, viaEmit)
			}
			if viaBlock.Pairs() == 0 {
				t.Fatal("campaign produced no observations; equivalence vacuous")
			}
		})
	}
}

// sinkOnly hides a sink's BlockSink extension, forcing the campaign
// onto the classic per-observation Emit path.
type sinkOnly struct{ s Sink }

func (w sinkOnly) Emit(o Observation)    { w.s.Emit(o) }
func (w sinkOnly) RoundDone(i RoundInfo) { w.s.RoundDone(i) }

// BenchmarkEndpointDraft times one full columnar draft of a scale-tier
// round — every responsive probe of every country, drawn through the
// fast availability coins — and pins its steady-state allocations to
// the O(1)-per-round floor (the permutation and row buffers are
// retained in scratch).
func BenchmarkEndpointDraft(b *testing.B) {
	w, err := sim.BuildWith(sim.ScaleWorldParams(1, 100_000), sim.BuildOptions{WarmRoutes: false})
	if err != nil {
		b.Fatal(err)
	}
	cfg := QuickConfig(2)
	cfg.FastAvailability = true
	cfg.EndpointsPerCountry = 1 << 20
	c, err := newCampaign(w, cfg)
	if err != nil {
		b.Fatal(err)
	}
	var scr roundScratch
	scr.eps = c.draftEndpoints(&scr, 0, 1<<20) // grow buffers once
	endpoints := len(scr.eps)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		scr.eps = c.draftEndpoints(&scr, 1, 1<<20)
	}
	b.StopTimer()
	b.ReportMetric(float64(endpoints), "endpoints")
	b.ReportMetric(float64(endpoints)*float64(b.N)/b.Elapsed().Seconds(), "endpoints/sec")
	allocs := testing.AllocsPerRun(3, func() {
		scr.eps = c.draftEndpoints(&scr, 1, 1<<20)
	})
	// The draft's per-round rng split (SplitN) is its only remaining
	// heap traffic — a constant few allocations per round regardless of
	// endpoint count, not per-row work. Pin that ceiling so any per-row
	// allocation regression (which would scale with the draft) fails.
	if allocs > 3 {
		b.Fatalf("steady-state draft allocates: %v allocs/op, want <= 3 (the per-round rng split)", allocs)
	}
}
