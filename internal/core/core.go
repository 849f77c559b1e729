// Package core is the one place a world selection is checked and
// mapped. The public shortcuts API and the relayserve service pick the
// default, small or scale world from the same settings, so both apply
// CheckTier, and both build through WorldParams and CampaignConfig.
package core

import (
	"fmt"

	"shortcuts/internal/measure"
	"shortcuts/internal/sim"
)

// CheckTier validates a world-tier selection: small picks the reduced
// world, a positive scaleEndpoints the scale tier, and pairBudget caps
// the pairs measured per round (0 measures them all). A scale world must
// set a pair budget: its exhaustive pair universe is quadratic.
func CheckTier(small bool, scaleEndpoints, pairBudget int) error {
	if pairBudget < 0 {
		return fmt.Errorf("PairBudget must be >= 0 (0 = exhaustive), got %d", pairBudget)
	}
	if err := checkWorld(small, scaleEndpoints); err != nil {
		return err
	}
	if scaleEndpoints > 0 && pairBudget == 0 {
		return fmt.Errorf("ScaleEndpoints %d requires PairBudget: the exhaustive pair universe is quadratic in the population and unmeasurable at scale", scaleEndpoints)
	}
	return nil
}

// checkWorld rejects the selections that name no single world.
func checkWorld(small bool, scaleEndpoints int) error {
	if scaleEndpoints < 0 {
		return fmt.Errorf("ScaleEndpoints must be >= 0 (0 = no scale tier), got %d", scaleEndpoints)
	}
	if scaleEndpoints > 0 && small {
		return fmt.Errorf("ScaleEndpoints and SmallWorld select conflicting worlds")
	}
	return nil
}

// WorldParams maps a world selection onto the parameters of the world
// built from seed: the scale tier grown to roughly scaleEndpoints
// responsive endpoints when it is positive, else the small or the
// default world. It rejects a negative scaleEndpoints and a scale world
// that is also small; it does not look at the pair budget.
func WorldParams(seed int64, small bool, scaleEndpoints int) (sim.WorldParams, error) {
	if err := checkWorld(small, scaleEndpoints); err != nil {
		return sim.WorldParams{}, err
	}
	switch {
	case scaleEndpoints > 0:
		return sim.ScaleWorldParams(seed, scaleEndpoints), nil
	case small:
		return sim.SmallWorldParams(seed), nil
	}
	return sim.DefaultWorldParams(seed), nil
}

// CampaignConfig returns the campaign schedule of a world tier:
// measure.QuickConfig(rounds), plus three changes on the scale tier
// (scaleEndpoints positive). Every responsive probe is drafted; the
// availability coins run the fast family the scale-tier digests were
// recorded with (measure.Config.FastAvailability); and the credit cap,
// calibrated to the paper's ~500 endpoints, is lifted. Callers set the
// per-campaign fields (seed, concurrency, pair budget, scenario,
// self-heal) on the result.
func CampaignConfig(rounds, scaleEndpoints int) measure.Config {
	mc := measure.QuickConfig(rounds)
	if scaleEndpoints > 0 {
		mc.EndpointsPerCountry = 1 << 20
		mc.FastAvailability = true
		mc.DailyCreditLimit = 0
	}
	return mc
}
