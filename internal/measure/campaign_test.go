package measure

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"shortcuts/internal/atlas"
	"shortcuts/internal/relays"
	"shortcuts/internal/scenario"
	"shortcuts/internal/sim"
)

var (
	campOnce sync.Once
	campW    *sim.World
	campRes  *Results
	campErr  error
)

func testCampaign(t *testing.T) (*sim.World, *Results) {
	t.Helper()
	campOnce.Do(func() {
		campW, campErr = sim.Build(sim.SmallWorldParams(2))
		if campErr != nil {
			return
		}
		campRes, campErr = Run(campW, QuickConfig(3))
	})
	if campErr != nil {
		t.Fatal(campErr)
	}
	return campW, campRes
}

func TestRunProducesObservations(t *testing.T) {
	_, res := testCampaign(t)
	if len(res.Observations) == 0 {
		t.Fatal("no observations")
	}
	if len(res.Rounds) != 3 {
		t.Fatalf("rounds = %d, want 3", len(res.Rounds))
	}
	if res.TotalPings == 0 {
		t.Fatal("no pings sent")
	}
}

func TestObservationInvariants(t *testing.T) {
	w, res := testCampaign(t)
	for i := range res.Observations {
		o := &res.Observations[i]
		if o.DirectMs <= 0 {
			t.Fatalf("observation %d has non-positive direct RTT", i)
		}
		if o.SrcCC == o.DstCC {
			t.Fatalf("observation %d endpoints share country %s (selection is 1/country)", i, o.SrcCC)
		}
		if o.SrcProbe == o.DstProbe {
			t.Fatalf("observation %d uses the same probe twice", i)
		}
		for ty := 0; ty < relays.NumTypes; ty++ {
			if o.BestRelay[ty] >= 0 {
				r := w.Catalog.Relay(int(o.BestRelay[ty]))
				if int(r.Type) != ty {
					t.Fatalf("observation %d best relay of type %d is actually %v", i, ty, r.Type)
				}
				if o.BestMs[ty] <= 0 {
					t.Fatalf("observation %d has best relay but non-positive RTT", i)
				}
			}
		}
		for _, e := range o.Improving {
			if e.RelayedMs >= o.DirectMs {
				t.Fatalf("observation %d improving entry does not improve: %v >= %v",
					i, e.RelayedMs, o.DirectMs)
			}
		}
	}
}

func TestImprovingConsistentWithBest(t *testing.T) {
	w, res := testCampaign(t)
	for i := range res.Observations {
		o := &res.Observations[i]
		// The best relayed RTT per type must match the minimum over the
		// improving entries of that type whenever an improving entry
		// exists.
		var minByType [relays.NumTypes]float32
		var has [relays.NumTypes]bool
		for _, e := range o.Improving {
			ty := w.Catalog.Type(int(e.Relay))
			if !has[ty] || e.RelayedMs < minByType[ty] {
				minByType[ty] = e.RelayedMs
				has[ty] = true
			}
		}
		for ty := 0; ty < relays.NumTypes; ty++ {
			if has[ty] {
				if o.BestRelay[ty] < 0 {
					t.Fatalf("observation %d: improving %v entries but no best relay", i, relays.Type(ty))
				}
				if o.BestMs[ty] != minByType[ty] {
					t.Fatalf("observation %d: best %v RTT %v != min improving %v",
						i, relays.Type(ty), o.BestMs[ty], minByType[ty])
				}
			}
		}
	}
}

func TestFeasibleCountsBounded(t *testing.T) {
	_, res := testCampaign(t)
	for i := range res.Observations {
		o := &res.Observations[i]
		total := 0
		for ty := 0; ty < relays.NumTypes; ty++ {
			total += int(o.FeasibleCount[ty])
		}
		if len(o.Improving) > total {
			t.Fatalf("observation %d has more improving relays (%d) than feasible (%d)",
				i, len(o.Improving), total)
		}
	}
}

// TestFeasibilityFilterPrunesOnlyLosers holds the Section-2.4 filter to
// what the paper frames it as, an efficiency device: a relay that beats
// the direct path satisfies the speed-of-light bound by definition, so
// switching the filter off must leave every pair's direct medians,
// improving relays and per-type winners as they were, while stitching
// strictly more relayed paths. BestRelay may move only on a type neither
// run improves, where the unfiltered run's least-bad loser can be a
// relay the filter pruned.
func TestFeasibilityFilterPrunesOnlyLosers(t *testing.T) {
	for _, seed := range []int64{1, 2} {
		t.Run(fmt.Sprintf("small%d", seed), func(t *testing.T) {
			w, err := sim.Build(sim.SmallWorldParams(seed))
			if err != nil {
				t.Fatal(err)
			}
			filtered, err := Run(w, QuickConfig(2))
			if err != nil {
				t.Fatal(err)
			}
			cfg := QuickConfig(2)
			cfg.DisableFeasibilityFilter = true
			cfg.DailyCreditLimit = 0 // the unfiltered rounds may exceed the budget
			unfiltered, err := Run(w, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := len(unfiltered.Observations), len(filtered.Observations); got != want {
				t.Fatalf("unfiltered run has %d observations, filtered %d", got, want)
			}
			losersMoved := 0
			for i := range filtered.Observations {
				f, u := &filtered.Observations[i], &unfiltered.Observations[i]
				if f.Round != u.Round || f.SrcProbe != u.SrcProbe || f.DstProbe != u.DstProbe {
					t.Fatalf("observation %d: round %d pair %d-%d filtered, round %d pair %d-%d unfiltered",
						i, f.Round, f.SrcProbe, f.DstProbe, u.Round, u.SrcProbe, u.DstProbe)
				}
				if f.DirectMs != u.DirectMs || f.RevDirectMs != u.RevDirectMs {
					t.Fatalf("observation %d: direct %v/%v ms filtered, %v/%v ms unfiltered",
						i, f.DirectMs, f.RevDirectMs, u.DirectMs, u.RevDirectMs)
				}
				if !slices.Equal(f.Improving, u.Improving) {
					t.Fatalf("observation %d: improving relays %v filtered, %v unfiltered", i, f.Improving, u.Improving)
				}
				for ty := 0; ty < relays.NumTypes; ty++ {
					rt := relays.Type(ty)
					if f.BestRelay[ty] == u.BestRelay[ty] && f.BestMs[ty] == u.BestMs[ty] {
						continue
					}
					if f.ImprovementMs(rt) > 0 || u.ImprovementMs(rt) > 0 {
						t.Fatalf("observation %d: best %v relay %d at %v ms filtered, %d at %v ms unfiltered",
							i, rt, f.BestRelay[ty], f.BestMs[ty], u.BestRelay[ty], u.BestMs[ty])
					}
					losersMoved++
				}
			}
			fp, up := filtered.RelayedPathsStudied(), unfiltered.RelayedPathsStudied()
			if up <= fp {
				t.Fatalf("unfiltered run stitched %d relayed paths, filtered %d: the filter pruned nothing", up, fp)
			}
			t.Logf("%d observations; relayed paths %d filtered, %d unfiltered; best loser moved on %d (observation, type) cells",
				len(filtered.Observations), fp, up, losersMoved)
		})
	}
}

func TestResponsiveFractionBand(t *testing.T) {
	_, res := testCampaign(t)
	rf := res.ResponsiveFraction()
	if rf < 0.7 || rf > 0.95 {
		t.Fatalf("responsive fraction = %.2f, want ~0.84", rf)
	}
}

func TestDeterministicCampaign(t *testing.T) {
	w, res := testCampaign(t)
	res2, err := Run(w, QuickConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	if len(res2.Observations) != len(res.Observations) {
		t.Fatalf("observation counts differ: %d vs %d", len(res2.Observations), len(res.Observations))
	}
	for i := range res.Observations {
		a, b := &res.Observations[i], &res2.Observations[i]
		if a.DirectMs != b.DirectMs || a.SrcProbe != b.SrcProbe || a.DstProbe != b.DstProbe {
			t.Fatalf("observation %d differs between identical runs", i)
		}
		if len(a.Improving) != len(b.Improving) {
			t.Fatalf("observation %d improving sets differ", i)
		}
	}
}

func TestConcurrencyOneMatchesParallel(t *testing.T) {
	w, res := testCampaign(t)
	cfg := QuickConfig(1)
	cfg.Concurrency = 1
	serial, err := Run(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Concurrency = 8
	parallel, err := Run(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(serial.Observations) != len(parallel.Observations) {
		t.Fatalf("serial %d vs parallel %d observations",
			len(serial.Observations), len(parallel.Observations))
	}
	for i := range serial.Observations {
		if serial.Observations[i].DirectMs != parallel.Observations[i].DirectMs {
			t.Fatalf("observation %d differs across concurrency levels", i)
		}
	}
	_ = res
}

func TestConfigValidation(t *testing.T) {
	w, _ := testCampaign(t)
	if _, err := Run(w, Config{Rounds: 0}); err == nil {
		t.Fatal("zero rounds accepted")
	}
	bad := QuickConfig(1)
	bad.PingsPerPair = 2
	bad.MinValidPings = 3
	if _, err := Run(w, bad); err == nil {
		t.Fatal("PingsPerPair < MinValidPings accepted")
	}
	// With no reply required, a train whose pings are all lost would
	// take the median of nothing: the outage scenario loses every ping
	// through a downed city.
	bad = QuickConfig(14)
	bad.MinValidPings = 0
	bad.Scenario = scenario.Outage()
	if _, err := Run(w, bad); err == nil {
		t.Fatal("MinValidPings 0 accepted")
	}
	if _, err := TwoRelayExperiment(w, bad, 0, 10, 5); err == nil {
		t.Fatal("MinValidPings 0 accepted by TwoRelayExperiment")
	}
}

func TestCreditBudgetEnforced(t *testing.T) {
	w, _ := testCampaign(t)
	cfg := QuickConfig(1)
	cfg.DailyCreditLimit = 1000 // absurdly small
	if _, err := Run(w, cfg); err == nil {
		t.Fatal("campaign ran despite a tiny credit budget")
	}
}

// TestCreditExhaustionMidCampaign pins the budget-abort contract: a
// campaign whose Atlas credits run out mid-campaign fails at the
// exhausting round with *atlas.ErrBudget, having emitted every earlier
// round and nothing of the failing one (a round is charged before it
// stitches).
func TestCreditExhaustionMidCampaign(t *testing.T) {
	w, err := sim.Build(sim.SmallWorldParams(17))
	if err != nil {
		t.Fatal(err)
	}
	cfg := QuickConfig(6)
	cfg.Concurrency = 2

	// Discover per-round credit costs under the default budget, then set
	// a daily limit that admits round 0 but not round 1 (both land on
	// day 0 with the 12 h interval).
	var full collectSink
	if err := RunStream(w, cfg, &full); err != nil {
		t.Fatal(err)
	}
	cost := func(r int) int64 { return full.rounds[r].PingsSent * atlas.PingCost }
	cfg.DailyCreditLimit = cost(0) + cost(1)/2

	var got collectSink
	err = RunStream(w, cfg, &got)
	var be *atlas.ErrBudget
	if !errors.As(err, &be) {
		t.Fatalf("error is %T, want *atlas.ErrBudget: %v", err, err)
	}
	if !strings.HasPrefix(err.Error(), "measure: round 1: ") || be.Day != 0 {
		t.Fatalf("campaign aborted with %v (day %d), want round 1 on day 0", err, be.Day)
	}
	if len(got.rounds) != 1 || got.rounds[0] != full.rounds[0] {
		t.Fatalf("emitted rounds %+v before aborting, want round 0 only: %+v", got.rounds, full.rounds[0])
	}
	round0 := collectSink{rounds: full.rounds[:1]}
	for _, o := range full.obs {
		if o.Round == 0 {
			round0.obs = append(round0.obs, o)
		}
	}
	observationsEqual(t, "exhaustion-prefix", got.results(cfg), round0.results(cfg))
}

func TestRoundTiming(t *testing.T) {
	_, res := testCampaign(t)
	for i, ri := range res.Rounds {
		want := res.Config.Start.Add(time.Duration(i) * res.Config.RoundInterval)
		if !ri.Start.Equal(want) {
			t.Fatalf("round %d starts at %v, want %v", i, ri.Start, want)
		}
	}
}

func TestImprovementMsHelper(t *testing.T) {
	o := Observation{DirectMs: 100}
	o.BestRelay[relays.COR] = 5
	o.BestMs[relays.COR] = 80
	if got := o.ImprovementMs(relays.COR); got != 20 {
		t.Fatalf("ImprovementMs = %v, want 20", got)
	}
	o.BestRelay[relays.PLR] = -1
	if got := o.ImprovementMs(relays.PLR); got != 0 {
		t.Fatalf("ImprovementMs without relay = %v, want 0", got)
	}
}

func TestRelayedPathsStudiedCounts(t *testing.T) {
	_, res := testCampaign(t)
	if res.RelayedPathsStudied() <= 0 {
		t.Fatal("no relayed paths studied")
	}
}

func TestMedianHelper(t *testing.T) {
	if Median(nil) != 0 {
		t.Fatal("Median(nil) != 0")
	}
	if got := Median([]float64{3, 1, 2}); got != 2 {
		t.Fatalf("median odd = %v", got)
	}
	if got := Median([]float64{4, 1, 2, 3}); got != 2.5 {
		t.Fatalf("median even = %v", got)
	}
	// Past 16 values Median sorts with sort.Float64s, still in place.
	long := make([]float64, 18)
	for i := range long {
		long[i] = float64(len(long) - i)
	}
	if got := Median(long); got != 9.5 {
		t.Fatalf("median of 18 = %v", got)
	}
	if !slices.IsSorted(long) {
		t.Fatalf("Median left %v unsorted", long)
	}
}
