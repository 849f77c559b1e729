package measure

import (
	"testing"

	"shortcuts/internal/sim"
)

// sampledCampaign builds a warm sampled-mode campaign: budget-capped
// pairs, perCountry endpoints per country, credits off, two rounds
// already executed so every scratch buffer has seen the round shape.
func sampledCampaign(t *testing.T, perCountry int) *campaign {
	t.Helper()
	w, err := sim.Build(sim.SmallWorldParams(17))
	if err != nil {
		t.Fatal(err)
	}
	cfg := QuickConfig(8)
	cfg.Concurrency = 1
	cfg.DailyCreditLimit = 0
	cfg.PairBudget = 400
	cfg.EndpointsPerCountry = perCountry
	c, err := newCampaign(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 2; r++ {
		if _, err := c.runRound(r, discardSink{}); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

// TestSampledRoundAllocs pins the steady-state allocation budget of a
// sampled round at the same ceiling as the exhaustive round, and — the
// point of the columnar + sampled design — shows the budget does not
// grow with the endpoint population: quadrupling endpoints under a
// fixed pair budget must not move the steady-state allocation count
// beyond noise.
func TestSampledRoundAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; alloc budget is pinned in the plain test run")
	}
	measure := func(perCountry int) float64 {
		c := sampledCampaign(t, perCountry)
		return testing.AllocsPerRun(3, func() {
			if _, err := c.runRound(1, discardSink{}); err != nil {
				t.Fatal(err)
			}
		})
	}
	a2 := measure(2)
	a4 := measure(4)
	t.Logf("sampled steady-state round: %.0f allocs at 2/country, %.0f at 4/country", a2, a4)
	for _, a := range []float64{a2, a4} {
		if a > 300 {
			t.Fatalf("sampled steady-state round allocates %.0f times, want <= 300", a)
		}
	}
	diff := a4 - a2
	if diff < 0 {
		diff = -diff
	}
	if diff > 64 {
		t.Fatalf("allocation count scales with endpoint population: %.0f at 2/country vs %.0f at 4/country", a2, a4)
	}
}
