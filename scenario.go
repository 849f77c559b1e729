package shortcuts

import "shortcuts/internal/scenario"

// Scenario is a deterministic timeline of network disruptions a
// campaign runs under: IXP/link failure windows, regional congestion
// waves, diurnal load cycles and relay churn. The world itself is never
// mutated — scenarios overlay the latency pricing and prune the relay
// sample per round — so calm and disrupted campaigns can share one
// built World, concurrently.
//
// Build one with NewScenario and the chainable With* methods, or pick a
// preset with ScenarioByName. Windows are given as campaign fractions
// in [0, 1], so a scenario scales to any Rounds setting. Everything is
// deterministic: equal (world seed, scenario, rounds) reproduce the
// same disruptions bit-for-bit for any concurrency, and a nil or
// event-free scenario is bit-identical to no scenario at all.
//
//	sc := shortcuts.NewScenario("frankfurt-down").
//		WithHubOutage(0, 0.3, 0.7, 1.8, 0.1).
//		WithRelayChurn(0.3, 0.7, 0.25, shortcuts.COR)
//	c, err := shortcuts.NewCampaignWith(world, shortcuts.Config{
//		Seed: 1, Rounds: 12, Scenario: sc,
//	})
type Scenario struct {
	inner *scenario.Scenario
}

// NewScenario returns an empty (calm) scenario with the given name. The
// name keys the scenario's stochastic draws: equal names reproduce the
// same churn, distinct names churn independently.
func NewScenario(name string) *Scenario {
	return &Scenario{inner: scenario.New(name)}
}

// ScenarioByName returns a built-in scenario: "calm" (no events, the
// control arm), "outage" (colo-hub IXP failures plus a congestion
// wave), "diurnal" (a longitude-swept evening-peak load cycle), or
// "churn" (a third of the relay inventory flapping).
func ScenarioByName(name string) (*Scenario, error) {
	sc, err := scenario.ByName(name)
	if err != nil {
		return nil, err
	}
	return &Scenario{inner: sc}, nil
}

// ScenarioNames lists the built-in scenario names.
func ScenarioNames() []string { return scenario.PresetNames() }

// Name returns the scenario's name.
func (s *Scenario) Name() string { return s.inner.Name }

// WithIXPOutage degrades every path touching the named city for the
// fractional window [fromFrac, toFrac): RTTs multiply by rerouteFactor
// and pings suffer extraLoss additional loss probability.
func (s *Scenario) WithIXPOutage(city string, fromFrac, toFrac, rerouteFactor, extraLoss float64) *Scenario {
	s.inner.Add(scenario.IXPOutage{
		City:          scenario.CityRef{Name: city},
		Window:        scenario.Rounds(fromFrac, toFrac),
		RerouteFactor: rerouteFactor,
		ExtraLoss:     extraLoss,
	})
	return s
}

// WithHubOutage is WithIXPOutage addressed by colo-hub rank instead of
// name: rank 0 is the city hosting the most facilities in the world the
// scenario is compiled against.
func (s *Scenario) WithHubOutage(rank int, fromFrac, toFrac, rerouteFactor, extraLoss float64) *Scenario {
	s.inner.Add(scenario.IXPOutage{
		City:          scenario.CityRef{HubRank: rank},
		Window:        scenario.Rounds(fromFrac, toFrac),
		RerouteFactor: rerouteFactor,
		ExtraLoss:     extraLoss,
	})
	return s
}

// WithBlackhole downs every path touching the named city for the
// window: pings are lost outright.
func (s *Scenario) WithBlackhole(city string, fromFrac, toFrac float64) *Scenario {
	s.inner.Add(scenario.IXPOutage{
		City:      scenario.CityRef{Name: city},
		Window:    scenario.Rounds(fromFrac, toFrac),
		Blackhole: true,
	})
	return s
}

// WithCongestionWave ramps every city on the continent (all cities when
// continent is empty) up to peak RTT multiplier and back down across
// the window, with rampRounds rounds of rise and fall.
func (s *Scenario) WithCongestionWave(continent string, fromFrac, toFrac, peak float64, rampRounds int) *Scenario {
	s.inner.Add(scenario.CongestionWave{
		Continent:  continent,
		Window:     scenario.Rounds(fromFrac, toFrac),
		Peak:       peak,
		RampRounds: rampRounds,
	})
	return s
}

// WithDiurnalLoad adds a sinusoidal load cycle of the given fractional
// amplitude, cycling every periodRounds rounds and phase-shifted by
// longitude so the peak sweeps the globe like local evening does.
func (s *Scenario) WithDiurnalLoad(amplitude float64, periodRounds int) *Scenario {
	s.inner.Add(scenario.DiurnalLoad{Amplitude: amplitude, PeriodRounds: periodRounds})
	return s
}

// WithRelayChurn removes a deterministic random fraction of the
// candidate relays (of the listed types; all types when none are given)
// for contiguous stretches of the window: churned-out relays are
// skipped by the feasibility filter, as if liveness checks had dropped
// them. A fraction of 0 churns nothing (the control arm of a churn
// sweep).
func (s *Scenario) WithRelayChurn(fromFrac, toFrac, fraction float64, types ...RelayType) *Scenario {
	s.inner.Add(scenario.RelayChurn{
		Window:   scenario.Rounds(fromFrac, toFrac),
		Fraction: fraction,
		Types:    append([]RelayType(nil), types...),
	})
	return s
}

// innerScenario unwraps for campaign construction; nil-safe.
func (s *Scenario) innerScenario() *scenario.Scenario {
	if s == nil {
		return nil
	}
	return s.inner
}
