package measure

import (
	"strings"
	"testing"
	"time"

	"shortcuts/internal/atlas"
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
	scr.roundRelays = make([]int, nr)
	scr.windowUp = make([]bool, ne)
	scr.relayUp = make([]bool, nr)
	scr.relayCity = make([]int32, nr)
	scr.livePos = make([]int32, nr)
	for i := 0; i < nr; i++ {
		scr.roundRelays[i] = i
		scr.relayUp[i] = true
		scr.relayCity[i] = int32(i % 7)
		scr.livePos[i] = int32(i)
	}
	for i := range scr.windowUp {
		scr.windowUp[i] = true
	}
	np := ne * (ne - 1) / 2
	scr.plan = pairPlan{ne: ne, idx: make([]pairIdx32, np)}
	scr.sPairs = scr.plan.idx
	scr.fwd = make([]float32, np)
	scr.rev = make([]float32, np)
	scr.feasOff = make([]int, np+1)
	scr.feasible = make([][]int32, np)
	scr.feasBuf = make([]int32, np)
	for i := 0; i < np; i++ {
		scr.plan.idx[i] = pairIdx32{int32(i % ne), int32((i + 1) % ne)}
		scr.fwd[i] = 123.25
		scr.rev[i] = 321.75
		scr.feasOff[i] = i
		scr.feasBuf[i] = int32(i % nr)
		scr.feasible[i] = scr.feasBuf[i : i+1]
	}
	scr.feasOff[np] = np
	scr.eps = make([]int32, ne)
	scr.activeOf = make([]int32, ne)
	scr.activeList = make([]int32, ne)
	for i := 0; i < ne; i++ {
		scr.eps[i] = int32(i % 3)
		scr.activeOf[i] = int32((i + 1) % ne)
		scr.activeList[i] = int32((i + 2) % ne)
	}
	nrW := (nr + 63) / 64
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
	c.improving = make([]ImproveEntry, 64)
	for i := range c.improving {
		c.improving[i] = ImproveEntry{Relay: int32(i), RelayedMs: 1}
	}
	c.arena.block = make([]ImproveEntry, improveArenaBlock/2, improveArenaBlock)
}

// TestShrinkingWorldNoStaleScratch is the cross-round scratch-hygiene
// regression test: a round following a larger one (fewer endpoints,
// fewer relays, smaller pair and leg universes) runs over arena buffers
// holding the big round's data — any stale feasibility bit, leg median
// or direct RTT leaking out of the shrunk region would perturb the
// stream. Endpoint counts barely move between real rounds (one probe
// per country), so the test manufactures the worst case: a scratch
// poisoned as if the previous round had been far larger than any real
// one, with every stale value set to leak (legs valid, relays feasible).
// The poisoned campaign's round must be bit-identical to a pristine
// campaign's, and so must a natural round-1-after-round-0 run.
func TestShrinkingWorldNoStaleScratch(t *testing.T) {
	w, err := sim.Build(sim.SmallWorldParams(11))
	if err != nil {
		t.Fatal(err)
	}
	cfg := QuickConfig(2)
	cfg.Concurrency = 1

	// Reference: round 1 on a pristine campaign. Round sampling is a
	// pure function of (seed, round), so running round 1 alone measures
	// exactly what a sequential campaign's round 1 measures.
	fresh, err := newCampaign(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var freshOut collectSink
	info, err := fresh.runRound(1, &freshOut)
	if err != nil {
		t.Fatal(err)
	}
	freshOut.RoundDone(info)

	// Poisoned path: the same round over a scratch arena sized for a
	// vastly larger previous round and filled with would-leak values.
	poisoned, err := newCampaign(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	poisonScratch(poisoned, 160, 700)
	var poisonedOut collectSink
	info, err = poisoned.runRound(1, &poisonedOut)
	if err != nil {
		t.Fatal(err)
	}
	poisonedOut.RoundDone(info)
	observationsEqual(t, "poisoned-oversized-scratch",
		poisonedOut.results(cfg), freshOut.results(cfg))

	// Natural path: round 0 then round 1 on one campaign (relay counts
	// genuinely differ round to round; the arena is warm and possibly
	// larger than round 1 needs).
	warm, err := newCampaign(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := warm.runRound(0, discardSink{}); err != nil {
		t.Fatal(err)
	}
	var warmOut collectSink
	info, err = warm.runRound(1, &warmOut)
	if err != nil {
		t.Fatal(err)
	}
	warmOut.RoundDone(info)
	observationsEqual(t, "warm-round-after-round0",
		warmOut.results(cfg), freshOut.results(cfg))
}

// TestSteadyStateRoundAllocs pins the allocation budget of a warm
// steady-state round: once the scratch arena, the feasibility memo and
// the engine's path-state cache have seen a round's shape, re-running it
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
	// Warm everything: scratch capacities, feasibility memo entries,
	// engine path-state cache.
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

// TestFeasMemoMatchesDirectPredicate proves the memoized rank filter is
// exactly the arithmetic speed-of-light predicate, over every relay city
// and a dense sweep of thresholds including the exact ideal values
// (where <= vs < would differ).
func TestFeasMemoMatchesDirectPredicate(t *testing.T) {
	w, err := sim.Build(sim.SmallWorldParams(17))
	if err != nil {
		t.Fatal(err)
	}
	c, err := newCampaign(w, QuickConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	nc := c.nc
	cities := []int{0, 1, nc / 3, nc / 2, nc - 2, nc - 1}
	for _, a := range cities {
		for _, b := range cities {
			cf := c.feas.pairFeas(a, b)
			// Thresholds: every exact ideal, one tick either side, plus
			// extremes.
			var thresholds []time.Duration
			for _, id := range cf.sortedIdeal {
				thresholds = append(thresholds, id-1, id, id+1)
			}
			thresholds = append(thresholds, 0, time.Hour)
			for _, th := range thresholds {
				cut := cf.feasibleRank(th)
				for _, rc := range c.feas.relayCities {
					memo := cf.rank[rc] < cut
					direct := c.feasibleDirect(a, int(rc), b, th)
					if memo != direct {
						t.Fatalf("cities (%d,%d) relay city %d threshold %v: memo=%v direct=%v",
							a, b, rc, th, memo, direct)
					}
				}
			}
		}
	}
	// Non-relay cities must never rank feasible.
	cf := c.feas.pairFeas(0, nc-1)
	isRelay := make([]bool, nc)
	for _, rc := range c.feas.relayCities {
		isRelay[rc] = true
	}
	for city, r := range cf.rank {
		if !isRelay[city] && r != noRelayRank {
			t.Fatalf("city %d hosts no relay but has rank %d", city, r)
		}
	}
}

// TestRelayCityOverflowFailsFast pins the memo's capacity check: a world
// with more relay cities than the uint16 ranks can hold is refused when
// the campaign is built, naming the count, instead of running a round.
func TestRelayCityOverflowFailsFast(t *testing.T) {
	w, err := sim.Build(sim.SmallWorldParams(17))
	if err != nil {
		t.Fatal(err)
	}
	w.SharedCache("measure.feasMemo", func() any {
		return &feasMemo{relayCities: make([]int32, noRelayRank)}
	})
	_, err = newCampaign(w, QuickConfig(1))
	if err == nil || !strings.Contains(err.Error(), "65535 relay cities") {
		t.Fatalf("newCampaign over 65535 relay cities returned %v, want an error naming the count", err)
	}
}
