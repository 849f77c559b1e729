package measure

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"shortcuts/internal/latency"
	"shortcuts/internal/sim"
)

// TestDraftEquivalence pins the drafting contract: for every round and
// per-country quota, the campaign's draftEndpoints lands on exactly the
// atlas rows that eyeball.SampleEndpointsInto's walk selects, in the
// same order. The exhaustive golden digests depend on this equivalence;
// this test localizes a violation to the drafting layer instead of a
// whole-stream digest mismatch.
func TestDraftEquivalence(t *testing.T) {
	w, err := sim.Build(sim.SmallWorldParams(17))
	if err != nil {
		t.Fatal(err)
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
				want := w.Selector.SampleEndpointsInto(cRef.g, round, perCountry, nil)
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

// TestShardedFleetGoldenDigests pins the scale tier's fleet generator in
// the module's own test suite: every other golden here runs the
// sequential generator, so without this pin the sharded fleet and the
// fast availability coins it pairs with would be held only by
// perfbench's scale-campaign digests. Two SHA-256 digests over a small
// sharded world: the fleet itself (every probe's fields in registry
// order, then every relay's ID and endpoint), and a 2-round sampled
// FastAvailability campaign's stream at Concurrency 1 and 8.
func TestShardedFleetGoldenDigests(t *testing.T) {
	const (
		wantFleet  = "74b91bf4209c4ac0960b29145308426f46fd6bba4e302b5b8e915c0a047a60ac"
		wantStream = "36cfbbdbb1130bc13eb88c5fe1ea9d6aa612742a9617e2fa904f90295b81f904"
	)
	p := sim.SmallWorldParams(29)
	p.Atlas.ShardedDeployment = true
	w, err := sim.Build(p)
	if err != nil {
		t.Fatal(err)
	}
	fleet := newDigestSink()
	flag := func(b bool) uint64 {
		if b {
			return 1
		}
		return 0
	}
	for row := range int32(w.Atlas.Len()) {
		pr := w.Atlas.Probe(row)
		fleet.word(uint64(pr.ID))
		fleet.word(uint64(pr.AS))
		fleet.h.Write([]byte(pr.CC))
		fleet.word(uint64(pr.City))
		fleet.word(flag(pr.Anchor))
		fleet.word(uint64(pr.Firmware))
		fleet.word(flag(pr.Public))
		fleet.word(flag(pr.Connected))
		fleet.word(flag(pr.GeoTagged))
		fleet.word(uint64(pr.StableDays))
		fleet.word(uint64(pr.Access))
	}
	for i := range w.Catalog.Relays {
		r := &w.Catalog.Relays[i]
		fleet.h.Write([]byte(r.ID))
		fleet.word(uint64(r.Endpoint.AS))
		fleet.word(uint64(r.Endpoint.City))
		fleet.word(uint64(r.Endpoint.Access))
	}
	if got := fleet.sum(); got != wantFleet {
		t.Errorf("sharded fleet digest drifted:\n got %s\nwant %s", got, wantFleet)
	}
	for _, conc := range []int{1, 8} {
		t.Run(fmt.Sprintf("stream/c%d", conc), func(t *testing.T) {
			cfg := QuickConfig(2)
			cfg.Concurrency = conc
			cfg.PairBudget = 200
			cfg.EndpointsPerCountry = 4
			cfg.DailyCreditLimit = 0
			cfg.FastAvailability = true
			sink := newDigestSink()
			if err := RunStream(w, cfg, sink); err != nil {
				t.Fatal(err)
			}
			if got := sink.sum(); got != wantStream {
				t.Fatalf("sharded fast-availability stream digest drifted:\n got %s\nwant %s", got, wantStream)
			}
		})
	}
}

// TestUnseenEndpointPricingAllocs pins the sampled-round hot case to
// zero allocations: once an attachment pair is cached, pricing an
// endpoint pair never priced before on it must not touch the heap, nor
// add a cache entry. Each run moves one endpoint's access delay by a
// nanosecond, so every run prices a new endpoint identity through
// ResolveBatch + PingTrainSchedHandle.
func TestUnseenEndpointPricingAllocs(t *testing.T) {
	w, err := sim.Build(sim.SmallWorldParams(41))
	if err != nil {
		t.Fatal(err)
	}
	n := int32(w.Atlas.Len())
	if n < 2 {
		t.Fatal("world too small")
	}
	// Endpoints from opposite ends of the fleet, so the expansion is a
	// real multi-hop path.
	a, b := w.Atlas.Endpoint(0), w.Atlas.Endpoint(n-1)
	view := w.Engine.View(nil)
	hourFrac := latency.SlotHourFracs(time.Unix(0, 0), time.Minute, 6, nil)
	samples := make([]latency.PingSample, len(hourFrac))
	pairs := []latency.EndpointPair{{A: a, B: b}}
	handles := make([]latency.PairHandle, 1)
	// Admit the attachment pair.
	if err := view.ResolveBatch(pairs, handles); err != nil {
		t.Fatal(err)
	}
	cached := w.Engine.CachedPairs()
	allocs := testing.AllocsPerRun(200, func() {
		a.Access++
		pairs[0] = latency.EndpointPair{A: a, B: b}
		if err := view.ResolveBatch(pairs, handles); err != nil {
			t.Fatal(err)
		}
		view.PingTrainSchedHandle(&handles[0], 1, hourFrac, samples)
	})
	if allocs != 0 {
		t.Fatalf("unseen endpoint on a cached attachment pair allocates %v allocs/op, want 0", allocs)
	}
	if got := w.Engine.CachedPairs(); got != cached {
		t.Fatalf("unseen endpoints on a cached attachment pair grew the cache from %d to %d entries", cached, got)
	}
}

// TestEndpointDraftAllocs pins a warm columnar draft of a scale-tier
// round — every responsive probe of every country, drawn through the
// fast availability coins — to its O(1)-per-round allocation floor: the
// permutation and row buffers are retained in scratch, so the per-round
// rng split (SplitN) is the only heap traffic left, a constant few
// allocations whatever the endpoint count. A per-row allocation would
// scale with the draft and fail here.
func TestEndpointDraftAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; alloc budget is pinned in the plain test run")
	}
	w, err := sim.BuildWith(sim.ScaleWorldParams(1, 20_000), sim.BuildOptions{WarmRoutes: false})
	if err != nil {
		t.Fatal(err)
	}
	cfg := QuickConfig(2)
	cfg.FastAvailability = true
	cfg.EndpointsPerCountry = 1 << 20
	c, err := newCampaign(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var scr roundScratch
	scr.eps = c.draftEndpoints(&scr, 0, 1<<20) // grow buffers once
	allocs := testing.AllocsPerRun(3, func() {
		scr.eps = c.draftEndpoints(&scr, 1, 1<<20)
	})
	t.Logf("warm draft of %d endpoints: %.0f allocs", len(scr.eps), allocs)
	if len(scr.eps) < 10_000 {
		t.Fatalf("drafted %d endpoints from a 20k-endpoint world, want a scale-tier draft", len(scr.eps))
	}
	if allocs > 3 {
		t.Fatalf("steady-state draft allocates %v times, want <= 3 (the per-round rng split)", allocs)
	}
}
