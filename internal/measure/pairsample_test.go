package measure

import (
	"testing"

	"shortcuts/internal/sim"
)

// samplerHarness builds a campaign with the given pair budget over the
// seed-17 small world and returns it with round 0's endpoint rows,
// drafted into its scratch (which buildPairPlan reads).
func samplerHarness(t *testing.T, budget int) (*campaign, []int32) {
	t.Helper()
	w, err := sim.Build(sim.SmallWorldParams(17))
	if err != nil {
		t.Fatal(err)
	}
	// Four endpoints per country: city strata need interior room (some
	// 0 < quota < universe) for the sampling regime to be non-trivial —
	// at one endpoint per country nearly every stratum is capped.
	cfg := QuickConfig(2)
	cfg.PairBudget = budget
	cfg.EndpointsPerCountry = 4
	c, err := newCampaign(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.scr.eps = c.draftEndpoints(&c.scr, 0, 4)
	return c, c.scr.eps
}

// TestBuildPairPlanDeterministic: two independent campaigns over the
// same seed produce byte-identical plans — the sampler draws only from
// (seed, round, stratum)-keyed streams, never from shared state.
func TestBuildPairPlanDeterministic(t *testing.T) {
	c1, _ := samplerHarness(t, 300)
	c2, _ := samplerHarness(t, 300)
	// buildPairPlan returns a view of the campaign's reused scratch, so
	// snapshot before any further build call on the same campaign.
	p1 := append([]pairIdx32(nil), c1.buildPairPlan(&c1.scr, 0)...)
	p2 := c2.buildPairPlan(&c2.scr, 0)
	if len(p1) != len(p2) {
		t.Fatalf("plan lengths differ: %d vs %d", len(p1), len(p2))
	}
	for k := range p1 {
		if p1[k] != p2[k] {
			t.Fatalf("plans diverge at %d: %v vs %v", k, p1[k], p2[k])
		}
	}
	// And across rounds the plans must differ (fresh draws per round).
	p3 := c1.buildPairPlan(&c1.scr, 1)
	same := len(p3) == len(p1)
	if same {
		for k := range p1 {
			if p1[k] != p3[k] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("round 0 and round 1 produced identical plans")
	}
}

// TestBuildPairPlanWellFormed: every sampled pair is canonical (i < j,
// in range), no pair appears twice, and the realized total respects the
// budget — close to it from below when the universe dwarfs the budget.
func TestBuildPairPlanWellFormed(t *testing.T) {
	const budget = 300
	c, eps := samplerHarness(t, budget)
	ne := len(eps)
	if pairCount(ne) < 10*budget {
		t.Fatalf("universe %d too small to exercise sampling at budget %d", pairCount(ne), budget)
	}
	plan := c.buildPairPlan(&c.scr, 0)
	seen := make(map[pairIdx32]bool, len(plan))
	for _, p := range plan {
		if p.i >= p.j || p.i < 0 || int(p.j) >= ne {
			t.Fatalf("malformed pair %v (ne=%d)", p, ne)
		}
		if seen[p] {
			t.Fatalf("pair %v sampled twice", p)
		}
		seen[p] = true
	}
	if len(plan) > budget {
		t.Fatalf("plan holds %d pairs, budget is %d", len(plan), budget)
	}
	if len(plan) < budget*9/10 {
		t.Fatalf("plan holds %d pairs, want >= 90%% of budget %d", len(plan), budget)
	}
}

// TestBuildPairPlanQuotas is the statistical check that realized
// per-stratum sample counts track the population-weighted quota rule:
// every city-pair stratum's count must sit within the carry-rounding
// tolerance of its target (or at its universe size when capped).
func TestBuildPairPlanQuotas(t *testing.T) {
	const budget = 300
	c, eps := samplerHarness(t, budget)
	fleet := c.w.Atlas
	plan := c.buildPairPlan(&c.scr, 0)

	// Recompute weights and strata independently of the sampler.
	nc := c.nc
	count := make([]int, nc)
	weight := make([]float64, nc)
	mass := 0.0
	for i, r := range eps {
		w := float32(c.w.Selector.PopulationWeight(fleet.AS(r), fleet.CC(r)))
		if w != c.scr.epWeight[i] {
			t.Fatalf("endpoint %d: drafted weight %v, selector says %v", i, c.scr.epWeight[i], w)
		}
		count[fleet.City(r)]++
		weight[fleet.City(r)] += float64(w)
		mass += float64(w)
	}
	if mass == 0 {
		t.Fatal("world has no eyeball population mass; quota test needs weights")
	}
	strat := func(a, b int) (m int, w float64) {
		if a == b {
			return pairCount(count[a]), weight[a] * weight[a] / 2
		}
		return count[a] * count[b], weight[a] * weight[b]
	}
	totalW := 0.0
	for a := 0; a < nc; a++ {
		if count[a] == 0 {
			continue
		}
		for b := a; b < nc; b++ {
			if count[b] == 0 || (a == b && count[a] < 2) {
				continue
			}
			_, w := strat(a, b)
			totalW += w
		}
	}

	// Realized counts per stratum.
	realized := make(map[[2]int]int)
	for _, p := range plan {
		a, b := fleet.City(eps[p.i]), fleet.City(eps[p.j])
		if a > b {
			a, b = b, a
		}
		realized[[2]int{a, b}]++
	}

	checked := 0
	for a := 0; a < nc; a++ {
		if count[a] == 0 {
			continue
		}
		for b := a; b < nc; b++ {
			if count[b] == 0 || (a == b && count[a] < 2) {
				continue
			}
			m, w := strat(a, b)
			if m == 0 || w <= 0 {
				continue
			}
			target := stratumQuota(budget, w, totalW)
			got := float64(realized[[2]int{a, b}])
			// Carry rounding keeps each stratum within ~2 of target;
			// capped strata sit exactly at their universe size's reach.
			upper := target + 2
			if upper > float64(m) {
				upper = float64(m) + 0.5
			}
			lower := target - 2
			if lower > float64(m) {
				lower = float64(m) - 0.5
			}
			if got > upper || (lower > 0 && got < lower) {
				t.Fatalf("stratum (%d,%d): %v pairs, target %.2f, universe %d",
					a, b, got, target, m)
			}
			checked++
		}
	}
	if checked < 10 {
		t.Fatalf("only %d strata checked; world too degenerate for the quota test", checked)
	}
}
