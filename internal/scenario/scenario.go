// Package scenario makes the synthetic world misbehave on a schedule.
//
// A Scenario is a deterministic, timeline-driven set of typed events —
// IXP/link failure windows, regional congestion waves with ramp
// profiles, diurnal load cycles, and relay churn — compiled against a
// built world into one Snapshot per measurement round. A Snapshot is a
// plain table of per-city RTT multipliers, extra loss probabilities and
// availability masks plus a per-relay churn mask; it implements
// latency.Overlay, so the campaign threads it through the ping hot path
// with two array loads per train and zero allocations.
//
// The world itself is never mutated: scenarios perturb pricing, not
// state, so one shared world can serve calm and disrupted campaigns
// concurrently. All stochastic choices (which relays churn, when their
// outages start) derive from named rng streams keyed by (world seed,
// scenario name, event, entity) — never from call order — so a scenario
// reproduces bit-for-bit across any concurrency, and a campaign with no
// scenario (or an event-free one) is bit-identical to one that predates
// this package.
package scenario

import (
	"fmt"
	"math"
	"sort"

	"shortcuts/internal/relays"
	"shortcuts/internal/rng"
	"shortcuts/internal/sim"
)

// Scenario is a named set of timeline events. The zero value (and an
// event-free scenario) is the calm timeline: compiling it yields only
// neutral snapshots.
type Scenario struct {
	// Name keys the scenario's stochastic draws: two scenarios with the
	// same events but different names churn different relays.
	Name string
	// Events are applied in order; overlapping windows compose (factors
	// multiply, losses add, masks union).
	Events []Event
}

// New returns a scenario with the given name and events.
func New(name string, events ...Event) *Scenario {
	return &Scenario{Name: name, Events: events}
}

// Add appends events, returning the scenario for chaining.
func (s *Scenario) Add(events ...Event) *Scenario {
	s.Events = append(s.Events, events...)
	return s
}

// Window selects the rounds [From, To) an event is active in. Two
// addressing modes:
//
//   - absolute rounds via FromRound/ToRound (used when either is set);
//   - campaign fractions via FromFrac/ToFrac in [0, 1] (used when
//     neither round field is set and either fraction is), so one
//     scenario definition scales to any campaign length.
//
// In both modes an unset To edge means "until the end of the
// campaign", so Window{FromFrac: 0.5} is the second half. The zero
// Window spans the whole campaign.
type Window struct {
	FromRound, ToRound int
	FromFrac, ToFrac   float64
}

// Rounds returns a fractional window over [fromFrac, toFrac).
func Rounds(fromFrac, toFrac float64) Window {
	return Window{FromFrac: fromFrac, ToFrac: toFrac}
}

// resolve maps the window onto [0, rounds), clamping both edges.
func (w Window) resolve(rounds int) (lo, hi int) {
	switch {
	case w.ToRound > 0 || w.FromRound > 0:
		lo, hi = w.FromRound, w.ToRound
		if w.ToRound <= 0 {
			hi = rounds
		}
	case w.ToFrac > 0 || w.FromFrac > 0:
		// Both edges use the same rounding so adjacent fractional
		// windows tile without overlap: Rounds(0, 0.5) and
		// Rounds(0.5, 1) partition any campaign cleanly.
		lo = int(math.Round(w.FromFrac * float64(rounds)))
		hi = rounds
		if w.ToFrac > 0 {
			hi = int(math.Round(w.ToFrac * float64(rounds)))
		}
	default:
		lo, hi = 0, rounds
	}
	if lo < 0 {
		lo = 0
	}
	if hi > rounds {
		hi = rounds
	}
	return lo, hi
}

// CityRef addresses a city either by explicit name or — when Name is
// empty — by colocation-hub rank: HubRank 0 is the city hosting the
// most facilities, 1 the next, and so on. Hub ranking lets presets name
// "the busiest colo metro" without knowing which world they will run
// against.
type CityRef struct {
	Name    string
	HubRank int
}

// Event is one typed timeline entry. Events write their per-round
// perturbations into the compile context; they are applied in order and
// compose.
type Event interface {
	apply(c *compileCtx) error
}

// IXPOutage models a disruption at a colocation/IXP metro (the
// time-localized colo-centric events of Giotsas et al.): every path
// with an endpoint attached in the city pays a reroute penalty and
// extra loss for the window, or — when Blackhole is set — loses all
// connectivity outright.
type IXPOutage struct {
	City   CityRef
	Window Window
	// RerouteFactor multiplies RTTs touching the city (default 1.6:
	// traffic detours around the failed fabric).
	RerouteFactor float64
	// ExtraLoss is added per-ping loss probability; 0 means a pure
	// reroute penalty with no added loss.
	ExtraLoss float64
	// Blackhole drops every ping touching the city instead of pricing a
	// detour.
	Blackhole bool
}

func (ev IXPOutage) apply(c *compileCtx) error {
	city, err := c.resolveCity(ev.City)
	if err != nil {
		return fmt.Errorf("IXPOutage: %w", err)
	}
	factor := ev.RerouteFactor
	if factor <= 0 {
		factor = 1.6
	}
	loss := ev.ExtraLoss
	if loss < 0 {
		loss = 0
	}
	lo, hi := ev.Window.resolve(c.rounds)
	for r := lo; r < hi; r++ {
		s := c.snap(r)
		if ev.Blackhole {
			s.ensureDown(c.nc)[city] = true
			continue
		}
		s.mulFactor(c.nc, city, factor)
		s.addLoss(c.nc, city, loss)
	}
	return nil
}

// CongestionWave models a regional load surge: every city on the
// selected continent (all cities when Continent is empty) ramps up to a
// peak RTT multiplier and back down across the window — a trapezoid
// profile with RampRounds rounds of rise and fall.
type CongestionWave struct {
	Continent string
	Window    Window
	// Peak is the RTT multiplier at full intensity (default 1.5).
	Peak float64
	// RampRounds is the length of the rising and falling edges; 0 makes
	// the wave a step function.
	RampRounds int
	// ExtraLossAtPeak is added per-ping loss probability at full
	// intensity, scaled down along the ramps.
	ExtraLossAtPeak float64
}

func (ev CongestionWave) apply(c *compileCtx) error {
	peak := ev.Peak
	if peak <= 0 {
		peak = 1.5
	}
	cities := c.citiesOn(ev.Continent)
	if len(cities) == 0 {
		return fmt.Errorf("CongestionWave: no cities on continent %q", ev.Continent)
	}
	lo, hi := ev.Window.resolve(c.rounds)
	for r := lo; r < hi; r++ {
		v := rampValue(r, lo, hi, ev.RampRounds)
		factor := 1 + (peak-1)*v
		loss := ev.ExtraLossAtPeak * v
		s := c.snap(r)
		for _, city := range cities {
			s.mulFactor(c.nc, city, factor)
			if loss > 0 {
				s.addLoss(c.nc, city, loss)
			}
		}
	}
	return nil
}

// rampValue returns the trapezoid intensity in [0, 1] for round r of
// window [lo, hi) with the given ramp length.
func rampValue(r, lo, hi, ramp int) float64 {
	if ramp <= 0 {
		return 1
	}
	v := 1.0
	if up := r - lo + 1; up <= ramp {
		v = float64(up) / float64(ramp)
	}
	if down := hi - r; down <= ramp {
		if d := float64(down) / float64(ramp); d < v {
			v = d
		}
	}
	return v
}

// DiurnalLoad models the evening-peak load cycle on top of the latency
// engine's intrinsic diurnal term: every city's RTTs swell and relax
// sinusoidally with the round index, phase-shifted by longitude so the
// wave sweeps the globe like local time does.
type DiurnalLoad struct {
	Window Window
	// Amplitude is the fractional RTT increase at the peak (default
	// 0.25).
	Amplitude float64
	// PeriodRounds is the cycle length in rounds (default 2: a 24 h
	// cycle over the paper's 12 h rounds).
	PeriodRounds int
}

func (ev DiurnalLoad) apply(c *compileCtx) error {
	amp := ev.Amplitude
	if amp <= 0 {
		amp = 0.25
	}
	period := ev.PeriodRounds
	if period <= 0 {
		period = 2
	}
	lo, hi := ev.Window.resolve(c.rounds)
	topo := c.w.Topo
	for r := lo; r < hi; r++ {
		s := c.snap(r)
		frac := float64(r%period) / float64(period)
		for city := 0; city < c.nc; city++ {
			phase := 2*math.Pi*frac + topo.Cities[city].Loc.Lon*math.Pi/180
			load := 0.5 + 0.5*math.Cos(phase-math.Pi)
			s.mulFactor(c.nc, city, 1+amp*load)
		}
	}
	return nil
}

// RelayChurn removes and restores candidate relays over the window:
// each matching relay independently churns with probability Fraction,
// drawing one contiguous outage inside the window from its own named
// stream. Churned-out relays are skipped by the campaign's feasibility
// filter for the outage rounds, exactly as if the paper's liveness
// checks had dropped them.
type RelayChurn struct {
	Window Window
	// Fraction is each relay's probability of churning at all. 0 (or
	// negative) churns nothing — a meaningful control arm, not a
	// default.
	Fraction float64
	// Types restricts churn to the listed populations; empty churns all
	// four.
	Types []relays.Type
	// MinOutageRounds/MaxOutageRounds bound the outage length (defaults
	// 1 and the window length).
	MinOutageRounds, MaxOutageRounds int
}

func (ev RelayChurn) apply(c *compileCtx) error {
	frac := ev.Fraction
	if frac <= 0 {
		return nil
	}
	lo, hi := ev.Window.resolve(c.rounds)
	if hi <= lo {
		return nil
	}
	minOut := ev.MinOutageRounds
	if minOut <= 0 {
		minOut = 1
	}
	maxOut := ev.MaxOutageRounds
	if maxOut <= 0 || maxOut > hi-lo {
		maxOut = hi - lo
	}
	if minOut > maxOut {
		minOut = maxOut
	}
	match := func(t relays.Type) bool {
		if len(ev.Types) == 0 {
			return true
		}
		for _, want := range ev.Types {
			if t == want {
				return true
			}
		}
		return false
	}
	g := c.eventStream("relay-churn")
	nr := c.w.Catalog.Len()
	for idx := 0; idx < nr; idx++ {
		if !match(c.w.Catalog.Type(idx)) {
			continue
		}
		gr := g.Derive("relay", uint64(idx))
		if !gr.Bool(frac) {
			continue
		}
		dur := gr.IntBetween(minOut, maxOut)
		start := lo + gr.IntBetween(0, hi-lo-dur)
		for r := start; r < start+dur && r < hi; r++ {
			c.snap(r).ensureRelayOut(nr)[idx] = true
		}
	}
	return nil
}

// compileCtx carries the world-resolved state events write into.
type compileCtx struct {
	w      *sim.World
	rounds int
	nc     int
	base   rng.Stream // (world seed, "scenario", name)-keyed
	eventN int        // index of the event being applied
	snaps  []*Snapshot

	hubCities []int // cities by descending facility count, lazily built
}

// snap returns round r's snapshot, allocating it on first touch so
// quiet rounds stay nil (and therefore bit-identical to no scenario).
func (c *compileCtx) snap(r int) *Snapshot {
	if c.snaps[r] == nil {
		c.snaps[r] = &Snapshot{Round: r}
	}
	return c.snaps[r]
}

// eventStream returns the named stream for the current event: a pure
// function of (world seed, scenario name, event kind, event index).
func (c *compileCtx) eventStream(kind string) rng.Stream {
	return c.base.Named(kind).Derive("event", uint64(c.eventN))
}

func (c *compileCtx) resolveCity(ref CityRef) (int, error) {
	if ref.Name != "" {
		if i := c.w.Topo.CityIndex(ref.Name); i >= 0 {
			return i, nil
		}
		return 0, fmt.Errorf("unknown city %q", ref.Name)
	}
	if c.hubCities == nil {
		c.hubCities = HubCities(c.w)
	}
	if ref.HubRank < 0 || ref.HubRank >= len(c.hubCities) {
		return 0, fmt.Errorf("hub rank %d out of range (have %d cities)", ref.HubRank, len(c.hubCities))
	}
	return c.hubCities[ref.HubRank], nil
}

// HubCities ranks the world's cities by colocation-hub weight —
// descending facility count, ascending city index breaking ties — the
// exact order CityRef.HubRank indexes. Exported so consumers that need
// the same ground truth (the disruption detector's round-trip tests
// localize injected hub outages against it) cannot drift from the
// compiler's ranking.
func HubCities(w *sim.World) []int {
	nc := len(w.Topo.Cities)
	type hub struct{ city, facs int }
	hubs := make([]hub, 0, nc)
	for i := 0; i < nc; i++ {
		hubs = append(hubs, hub{city: i, facs: len(w.Topo.FacilitiesIn(i))})
	}
	sort.Slice(hubs, func(a, b int) bool {
		if hubs[a].facs != hubs[b].facs {
			return hubs[a].facs > hubs[b].facs
		}
		return hubs[a].city < hubs[b].city
	})
	out := make([]int, len(hubs))
	for i, h := range hubs {
		out[i] = h.city
	}
	return out
}

func (c *compileCtx) citiesOn(continent string) []int {
	out := make([]int, 0, c.nc)
	for i := 0; i < c.nc; i++ {
		if continent == "" || c.w.Topo.Cities[i].Continent == continent {
			out = append(out, i)
		}
	}
	return out
}

// Compile resolves the scenario against a built world and a campaign
// length into one immutable Snapshot per round. Compilation is
// deterministic: equal (world seed, scenario, rounds) triples yield
// identical snapshot tables. A nil scenario compiles to nil; an
// event-free scenario compiles to all-neutral snapshots.
func (s *Scenario) Compile(w *sim.World, rounds int) (*Compiled, error) {
	if s == nil {
		return nil, nil
	}
	if rounds <= 0 {
		return nil, fmt.Errorf("scenario %q: rounds must be positive, got %d", s.Name, rounds)
	}
	ctx := &compileCtx{
		w:      w,
		rounds: rounds,
		nc:     len(w.Topo.Cities),
		base:   rng.New(w.Params.Seed).Stream("scenario").Named(s.Name),
		snaps:  make([]*Snapshot, rounds),
	}
	for i, ev := range s.Events {
		ctx.eventN = i
		if err := ev.apply(ctx); err != nil {
			return nil, fmt.Errorf("scenario %q: event %d: %w", s.Name, i, err)
		}
	}
	return &Compiled{Name: s.Name, snaps: ctx.snaps}, nil
}
