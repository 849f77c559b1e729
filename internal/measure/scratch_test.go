package measure

import (
	"fmt"
	"testing"
	"time"

	"shortcuts/internal/atlas"
	"shortcuts/internal/relays"
	"shortcuts/internal/sim"
)

// collectSink gathers one or more rounds' emissions for comparison.
type collectSink struct {
	obs    []Observation
	rounds []RoundInfo
}

func (s *collectSink) Emit(o Observation)       { s.obs = append(s.obs, o) }
func (s *collectSink) RoundDone(info RoundInfo) { s.rounds = append(s.rounds, info) }
func (s *collectSink) results(cfg Config) *Results {
	return &Results{Config: cfg, Observations: s.obs, Rounds: s.rounds}
}

// discardSink drops everything (alloc-measurement harness).
type discardSink struct{}

func (discardSink) Emit(Observation)    {}
func (discardSink) RoundDone(RoundInfo) {}

// poisonScratch fills a campaign's round scratch with an oversized,
// garbage-valued state — as if the previous round had sampled ne
// endpoints and nr relays, every leg valid, every relay feasible — so
// any buffer the next round fails to size or clear leaks loudly.
func poisonScratch(c *campaign, ne, nr int) {
	scr := &c.scr
	scr.exclude = make(map[atlas.ProbeID]bool, ne)
	for i := 0; i < ne; i++ {
		scr.exclude[atlas.ProbeID(10_000+i)] = true
	}
	nrW := (nr + 63) / 64
	scr.roundRelays = make([]int, nr)
	scr.windowUp = make([]bool, ne)
	scr.relayUp = make([]uint64, nrW)
	scr.relayCity = make([]int32, nr)
	scr.relayType = make([]relays.Type, nr)
	scr.typeBits = make([]uint64, relays.NumTypes*nrW)
	scr.livePos = make([]int32, nr)
	for i := 0; i < nr; i++ {
		scr.roundRelays[i] = i
		scr.relayCity[i] = int32(i % 7)
		scr.relayType[i] = relays.Type(i % relays.NumTypes)
		scr.livePos[i] = int32(i)
	}
	for i := range scr.relayUp {
		scr.relayUp[i] = ^uint64(0)
	}
	for i := range scr.typeBits {
		scr.typeBits[i] = ^uint64(0)
	}
	for i := range scr.windowUp {
		scr.windowUp[i] = true
	}
	np := ne * (ne - 1) / 2
	scr.pairs = make([]pairIdx32, np)
	scr.fwd = make([]float32, np)
	scr.rev = make([]float32, np)
	scr.feas = make([]uint64, np*nrW)
	scr.stitched = make([]pairStitch, np)
	for i := 0; i < np; i++ {
		scr.pairs[i] = pairIdx32{int32(i % ne), int32((i + 1) % ne)}
		scr.fwd[i] = 123.25
		scr.rev[i] = 321.75
		scr.stitched[i] = pairStitch{
			bestMs:    [relays.NumTypes]float32{1, 2, 3, 4},
			bestRelay: [relays.NumTypes]int32{5, 6, 7, 8},
			feasible:  [relays.NumTypes]uint16{9, 9, 9, 9},
			worker:    int32(i % 8), lo: 3, hi: 60,
		}
	}
	for i := range scr.feas {
		scr.feas[i] = ^uint64(0)
	}
	scr.eps = make([]int32, ne)
	scr.activeOf = make([]int32, ne)
	scr.activeList = make([]int32, ne)
	for i := 0; i < ne; i++ {
		scr.eps[i] = int32(i % 3)
		scr.activeOf[i] = int32((i + 1) % ne)
		scr.activeList[i] = int32((i + 2) % ne)
	}
	scr.legBits = make([]uint64, ne*nrW)
	scr.legCum = make([]int32, ne*nrW+1)
	scr.legVals = make([]float32, ne*nr)
	scr.legJobs = make([]int64, ne*nr)
	for i := 0; i < ne*nr; i++ {
		scr.legVals[i] = 77.5
		scr.legJobs[i] = int64(i)
	}
	for i := range scr.legBits {
		scr.legBits[i] = ^uint64(0)
		scr.legCum[i] = int32(i * 13)
	}
	scr.cityCount = make([]int32, 5)
	scr.cityStart = make([]int32, 6)
	scr.cityFill = make([]int32, 5)
	scr.byCity = make([]int32, ne)
	scr.cityList = make([]int32, 5)
	scr.cityWeight = make([]float64, 5)
	scr.strataT = make([]int64, 9)
	scr.sampleSeen = map[sampleKey]bool{{1, 2}: true}
	for i := range scr.cityCount {
		scr.cityCount[i] = 9
		scr.cityFill[i] = 9
		scr.cityList[i] = int32(i)
		scr.cityWeight[i] = 3.5
	}
	scr.workers = make([]scratch, 8)
	for w := range scr.workers {
		scr.workers[w].id = int32(7 - w)
		scr.workers[w].improve = make([]ImproveEntry, 64)
		for i := range scr.workers[w].improve {
			scr.workers[w].improve[i] = ImproveEntry{Relay: int32(i), RelayedMs: 1}
		}
	}
	c.arena.block = make([]ImproveEntry, improveArenaBlock/2, improveArenaBlock)
}

// TestShrinkingWorldNoStaleScratch is the cross-round scratch-hygiene
// regression test: a round following a larger one (fewer endpoints,
// fewer relays, smaller pair and leg universes) runs over arena buffers
// holding the big round's data — any stale feasibility bit, stitch
// record, improving entry, leg median or direct RTT leaking out of the
// shrunk region would perturb the stream. Endpoint counts barely move
// between real rounds (one probe per country), so the test manufactures
// the worst case: a scratch poisoned as if the previous round had been
// far larger than any real one, with every stale value set to leak
// (legs valid, relays feasible). The poisoned campaign's round must be
// bit-identical to a pristine campaign's, and so must a natural
// round-1-after-round-0 run. Several workers write the per-pair
// buffers, so it runs at Concurrency 1 and 4.
func TestShrinkingWorldNoStaleScratch(t *testing.T) {
	w, err := sim.Build(sim.SmallWorldParams(11))
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("c%d", workers), func(t *testing.T) {
			cfg := QuickConfig(2)
			cfg.Concurrency = workers
			roundOne := func(c *campaign) *collectSink {
				t.Helper()
				var out collectSink
				info, err := c.runRound(1, &out)
				if err != nil {
					t.Fatal(err)
				}
				out.RoundDone(info)
				return &out
			}
			same := func(label string, got, want *collectSink) {
				t.Helper()
				observationsEqual(t, label, got.results(cfg), want.results(cfg))
				if got.rounds[0] != want.rounds[0] {
					t.Fatalf("%s: round info %+v, want %+v", label, got.rounds[0], want.rounds[0])
				}
			}

			// Reference: round 1 on a pristine campaign. Round sampling
			// is a pure function of (seed, round), so running round 1
			// alone measures exactly what a sequential campaign's round 1
			// measures.
			fresh, err := newCampaign(w, cfg)
			if err != nil {
				t.Fatal(err)
			}
			freshOut := roundOne(fresh)

			// Poisoned path: the same round over a scratch arena sized
			// for a vastly larger previous round and filled with
			// would-leak values.
			poisoned, err := newCampaign(w, cfg)
			if err != nil {
				t.Fatal(err)
			}
			poisonScratch(poisoned, 160, 700)
			same("poisoned-oversized-scratch", roundOne(poisoned), freshOut)

			// Natural path: round 0 then round 1 on one campaign (relay
			// counts genuinely differ round to round; the arena is warm
			// and possibly larger than round 1 needs).
			warm, err := newCampaign(w, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := warm.runRound(0, discardSink{}); err != nil {
				t.Fatal(err)
			}
			same("warm-round-after-round0", roundOne(warm), freshOut)
		})
	}
}

// TestSteadyStateRoundAllocs pins the allocation budget of a warm
// steady-state round: once the scratch arena and the engine's
// path-state cache have seen a round's shape, re-running it
// must not rebuild any per-round structure. What remains is a few dozen
// allocations — the samplers' per-round result slices and the amortized
// improve-arena blocks — where the pre-arena round cost thousands.
func TestSteadyStateRoundAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; alloc budget is pinned in the plain test run")
	}
	w, err := sim.Build(sim.SmallWorldParams(17))
	if err != nil {
		t.Fatal(err)
	}
	cfg := QuickConfig(8)
	cfg.Concurrency = 1
	cfg.DailyCreditLimit = 0
	c, err := newCampaign(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Warm everything: scratch capacities, engine path-state cache.
	for r := 0; r < 2; r++ {
		if _, err := c.runRound(r, discardSink{}); err != nil {
			t.Fatal(err)
		}
	}
	avg := testing.AllocsPerRun(3, func() {
		if _, err := c.runRound(1, discardSink{}); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("steady-state round: %.0f allocs", avg)
	if avg > 300 {
		t.Fatalf("steady-state round allocates %.0f times, want <= 300 "+
			"(scratch arena regression?)", avg)
	}
}

// TestMarkFeasibleMatchesDirectPredicate proves a round's feasibility
// rows are exactly the arithmetic speed-of-light predicate: for endpoint
// city pairs in both orders, a relay position in every city, and
// thresholds at every exact ideal relayed RTT and one tick either side
// (where <= vs < would differ). Positions outside the live set never get
// a bit.
func TestMarkFeasibleMatchesDirectPredicate(t *testing.T) {
	w, err := sim.Build(sim.SmallWorldParams(17))
	if err != nil {
		t.Fatal(err)
	}
	c, err := newCampaign(w, QuickConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	nc := c.nc
	// One relay position per city; every third position churned out.
	c.scr.relayCity = make([]int32, nc)
	for pos := 0; pos < nc; pos++ {
		c.scr.relayCity[pos] = int32(pos)
		if pos%3 != 2 {
			c.scr.livePos = append(c.scr.livePos, int32(pos))
		}
	}
	row := make([]uint64, (nc+63)/64)
	cities := []int{0, 1, nc / 3, nc / 2, nc - 2, nc - 1}
	for _, a := range cities {
		for _, b := range cities {
			thresholds := []time.Duration{0, time.Hour}
			for rc := 0; rc < nc; rc++ {
				ideal := 2 * (c.prop[a*nc+rc] + c.prop[rc*nc+b])
				thresholds = append(thresholds, ideal-1, ideal, ideal+1)
			}
			for _, th := range thresholds {
				clear(row)
				c.markFeasible(row, a, b, th)
				for pos := 0; pos < nc; pos++ {
					got := row[pos>>6]>>(pos&63)&1 == 1
					want := pos%3 != 2 && c.feasibleDirect(a, pos, b, th)
					if got != want {
						t.Fatalf("cities (%d,%d) relay city %d threshold %v: row bit %v, direct predicate %v",
							a, b, pos, th, got, want)
					}
				}
			}
		}
	}
}
