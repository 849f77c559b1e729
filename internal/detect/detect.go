// Package detect turns a measurement campaign's observation stream into
// an online disruption monitor — the program of "Detecting Network
// Disruptions At Colocation Facilities" run over this repo's synthetic
// campaigns. A Detector is a measure.Sink: it maintains per-corridor
// and per-facility/per-city rolling baselines (round-mean RTT via a P²
// quantile sketch, responsiveness rates, best-relay win counts) in O(1)
// memory per tracked key and flags sustained deviations as typed
// events.
//
// Localization works by shared-facility voting: every relay that wins a
// best-relay slot implicitly vouches for its colocation city, so the
// per-city win counts form a high-signal baseline — when a facility hub
// is disrupted, ALL relays colocated there stop winning at once, and
// the city's win rate collapses far below anything endpoint-sampling
// noise produces. Corridor-level deviations (slow or dark rounds
// against the P² baseline) are too noisy to localize on their own —
// endpoints resample every round — so they instead supply the event's
// affected-corridor payload, its severity, and the continent-scoped
// congestion fallback for broad slowdowns with no single culprit.
//
// With Options.SelfHeal the detector also closes the loop: it keeps a
// per-corridor relay plan, and on a confirmed event excludes the
// suspect city's relays from the campaign's feasibility filter
// (measure.Config.SelfHeal) and re-plans corridors onto their best
// surviving candidate. Hysteresis comes in three parts: baselines
// freeze while their key deviates (they never chase an outage down),
// a recovered city re-triggers only after a cooldown, and masked
// cities are re-probed on a fixed cadence so recovery is observable at
// all while the mask is in force.
//
// Determinism: the Sink contract delivers observations and round
// boundaries from a single goroutine, in deterministic order, for any
// Concurrency or engine shard count — so equal streams produce
// bit-identical events and plans with no locking and no tie-breaking
// on schedule. The detector never reads scenario ground truth;
// everything derives from the emitted stream.
package detect

import (
	"fmt"
	"sort"

	"shortcuts/internal/measure"
	"shortcuts/internal/relays"
	"shortcuts/internal/sim"
)

// Kind classifies a disruption event.
type Kind uint8

const (
	// RTTSpike is a localized latency inflation: corridors through one
	// city got sustainably slower but still answer.
	RTTSpike Kind = iota
	// Blackhole is a localized reachability loss: corridors through one
	// city stopped producing usable observations.
	Blackhole
	// Congestion is a wide, continent-scoped slowdown with no single
	// culprit city.
	Congestion
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case RTTSpike:
		return "rtt-spike"
	case Blackhole:
		return "blackhole"
	case Congestion:
		return "congestion"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Event is one detected disruption. OnsetRound is the first round of
// the sustained deviation; ConfirmedRound is when the sustain threshold
// fired; EndRound is -1 while the event is active. City/Facility name
// the localized culprit (empty for continent-scoped Congestion events).
type Event struct {
	ID             int
	Kind           Kind
	OnsetRound     int
	ConfirmedRound int
	EndRound       int
	City           string
	CC             string
	Continent      string
	Facility       string
	FacilityPDB    int
	// Corridors are the deviating corridors attributed to the event at
	// confirmation time, sorted.
	Corridors []measure.Corridor
	// Severity is the mean deviation ratio (round mean / baseline
	// median) across the event's slow corridors; 0 when all corridors
	// went dark.
	Severity float64
	// DarkCorridors counts attributed corridors that stopped producing
	// observations entirely (the blackhole signature).
	DarkCorridors int

	cityIdx  int32   // culprit city, -1 for continent scope
	contIdx  int32   // continent table index, -1 for city scope
	corrIdxs []int32 // indices into the detector's corridor table
}

// Active reports whether the event has not ended yet.
func (e *Event) Active() bool { return e.EndRound < 0 }

// Options configure a detector. SelfHeal is the one switch; every
// threshold is a fixed constant below.
type Options struct {
	// SelfHeal enables the re-plan loop: suspect-city relays are
	// excluded via ExcludedRelays and corridor plans re-pick their best
	// surviving candidate on event confirmation and release on event
	// end. Off, the detector is a pure monitor and plans stay frozen
	// after initialization.
	SelfHeal bool
}

// Detection thresholds.
const (
	// warmupRounds is the number of rounds every baseline absorbs before
	// deviation checks arm.
	warmupRounds = 3
	// rttFactor flags a corridor round whose mean direct RTT reaches
	// this multiple of the baseline median.
	rttFactor = 1.25
	// sustainRounds is how many consecutive collapsed rounds confirm a
	// city as a culprit — the hysteresis against one-round noise.
	sustainRounds = 2
	// minCorridors scopes the congestion fallback: a continent-wide
	// event needs at least 2x this many sustained-slow corridors.
	minCorridors = 4
	// collapseFactor is the win-collapse threshold: a city whose count
	// of distinct winning relays this round is at or below this
	// fraction of its rolling baseline counts as collapsed. A true
	// facility outage zeroes the count; calm sampling noise never drops
	// a diverse city near zero.
	collapseFactor = 0.15
	// minCityDiversity is the baseline floor: cities whose rolling
	// distinct-winner count never reaches it are dominated by one or
	// two relays — a zero round there is routine sampling noise, so
	// they are never flagged (3 distinct winning relays per round).
	minCityDiversity = 3
	// recoverFactor closes an active event once the city's distinct
	// winners climb back to this fraction of the frozen baseline.
	recoverFactor = 0.5
	// cooldownRounds suppresses a new event for a city this many rounds
	// after its previous event ended.
	cooldownRounds = 2
	// healProbeInterval re-admits a masked city's relays every this
	// many rounds while its event is active, so the detector can
	// observe recovery at all under self-healing.
	healProbeInterval = 3
)

// maxCandidates bounds the per-corridor relay-candidate set: the best
// known relay per distinct city, capped. O(1) memory per corridor.
const maxCandidates = 6

// candidate is one remembered relay option for a corridor.
type candidate struct {
	relay     int32   // catalog index, -1 empty
	city      int32   // relay home city
	gain      float32 // rolling improvement over direct, ms
	lastRound int32   // round the relay last appeared as a best
}

// corridorState is the O(1) per-corridor tracking record.
type corridorState struct {
	// Round accumulator, lazily reset when a new round's first
	// observation arrives (rndRound tags ownership).
	rndRound   int32
	rndCount   int32
	rndSum     float64
	rndDeliver float64 // improvement delivered by the planned relay
	rndPlanObs int32   // observations while a plan was in effect
	srcCity    int32   // endpoint cities of the latest observation
	dstCity    int32
	haveCities bool

	base    p2Median // rolling median of per-round mean direct RTT
	seenObs float32  // EWMA of "corridor observed this round" (0..1)
	warm    int32    // rounds folded into the baseline
	streak  int32    // consecutive deviating rounds
	devNow  bool     // deviating this round (slow or dark)
	dark    bool     // current deviation is an observation blackout
	ratio   float32  // latest deviation ratio (slow deviations)

	plan int32 // planned relay catalog index, -1 unset
	cand [maxCandidates]candidate
}

// RoundPlanStats summarises, per round, what the detector's corridor
// plans delivered — the series the self-heal round-trip is measured on.
type RoundPlanStats struct {
	Round int
	// Planned counts corridors holding a relay plan this round.
	Planned int
	// DeliveredMs sums, over this round's observations on planned
	// corridors, the improvement the planned relay actually delivered
	// (0 when the planned relay did not beat the direct path).
	DeliveredMs float64
	// PlanObservations counts those observations.
	PlanObservations int
	// ActiveEvents and ExcludedRelays snapshot the healing state after
	// the round's detection pass.
	ActiveEvents   int
	ExcludedRelays int
}

// Detector is the streaming disruption monitor. Wire it as a campaign
// Sink (or as measure.Config.SelfHeal to close the healing loop); it is
// not safe for concurrent use while the campaign runs — read Events,
// ActiveEvents and PlanHistory after RunStream returns, exactly like a
// Results sink.
type Detector struct {
	opts Options
	w    *sim.World

	relayCity []int32 // catalog index -> home city
	relayFac  []int32 // catalog index -> facility table index, -1 none
	facCity   []int32 // facility table index -> city
	cityCont  []int32 // city -> continent table index
	contNames []string

	corr   map[measure.Corridor]*corridorState
	order  []measure.Corridor // first-emission order (deterministic)
	states []*corridorState   // parallel to order

	cityDivBase  []float64 // EWMA of distinct winning relays per relay city
	cityDivRound []int32
	cityStreak   []int32 // consecutive collapsed rounds per city
	lastWin      []int32 // per relay: round+1 of the last best-relay win
	facWinBase   []float64
	facWinRound  []int32
	winWarm      int

	contDev     []int32 // per-continent sustained-slow corridors, scratch
	contPresent []int32 // per-continent present corridors, scratch

	cooldownUntil []int32 // per-city: no new event before this round
	severScratch  []float64

	events      []Event
	healMask    []bool // catalog-indexed exclusion mask, nil when empty
	cullSet     []bool // per-city: currently an active culprit
	lastCullLen int
	planStats   []RoundPlanStats
}

// New builds a detector over the campaign's world (the world supplies
// the probe→city and relay→facility attribution the stream omits).
func New(w *sim.World, opts Options) *Detector {
	nc := len(w.Topo.Cities)
	d := &Detector{
		opts:          opts,
		w:             w,
		corr:          make(map[measure.Corridor]*corridorState),
		cityDivBase:   make([]float64, nc),
		cityDivRound:  make([]int32, nc),
		cityStreak:    make([]int32, nc),
		cooldownUntil: make([]int32, nc),
		cityCont:      make([]int32, nc),
	}
	contIdx := make(map[string]int32)
	for i := range w.Topo.Cities {
		cont := w.Topo.Cities[i].Continent
		ci, ok := contIdx[cont]
		if !ok {
			ci = int32(len(d.contNames))
			contIdx[cont] = ci
			d.contNames = append(d.contNames, cont)
		}
		d.cityCont[i] = ci
	}
	d.contDev = make([]int32, len(d.contNames))
	d.contPresent = make([]int32, len(d.contNames))

	facs := w.Registry.Facilities()
	d.facCity = make([]int32, len(facs))
	facByPDB := make(map[int]int32, len(facs))
	for i, f := range facs {
		d.facCity[i] = int32(f.City)
		facByPDB[f.PDBID] = int32(i)
	}
	d.facWinBase = make([]float64, len(facs))
	d.facWinRound = make([]int32, len(facs))

	d.relayCity = make([]int32, len(w.Catalog.Relays))
	d.relayFac = make([]int32, len(w.Catalog.Relays))
	d.lastWin = make([]int32, len(w.Catalog.Relays))
	for i := range w.Catalog.Relays {
		r := &w.Catalog.Relays[i]
		d.relayCity[i] = int32(r.City)
		d.relayFac[i] = -1
		if r.Type == relays.COR {
			if fi, ok := facByPDB[r.FacilityPDB]; ok {
				d.relayFac[i] = fi
			}
		}
	}
	return d
}

// Emit implements measure.Sink. Steady state it allocates nothing: the
// only allocation is a corridor's tracking record on first sight.
func (d *Detector) Emit(o measure.Observation) {
	key := measure.CorridorOf(o.SrcCC, o.DstCC)
	st := d.corr[key]
	if st == nil {
		st = &corridorState{rndRound: -1, plan: -1}
		for i := range st.cand {
			st.cand[i].relay = -1
		}
		d.corr[key] = st
		d.order = append(d.order, key)
		d.states = append(d.states, st)
	}
	if st.rndRound != int32(o.Round) {
		st.rndRound = int32(o.Round)
		st.rndCount = 0
		st.rndSum = 0
		st.rndDeliver = 0
		st.rndPlanObs = 0
	}
	st.rndCount++
	st.rndSum += float64(o.DirectMs)
	if sr, dr := d.w.Atlas.Row(o.SrcProbe), d.w.Atlas.Row(o.DstProbe); sr >= 0 && dr >= 0 {
		st.srcCity = int32(d.w.Atlas.City(sr))
		st.dstCity = int32(d.w.Atlas.City(dr))
		st.haveCities = true
	}
	// Candidate upkeep and win counts ride the per-type best relays — a
	// fixed amount of work per observation, independent of how many
	// relays improved. lastWin tags the first win of the round so each
	// relay contributes once to its city's distinct-winner count.
	for t := 0; t < relays.NumTypes; t++ {
		ri := o.BestRelay[t]
		if ri < 0 {
			continue
		}
		if d.lastWin[ri] != int32(o.Round)+1 {
			d.lastWin[ri] = int32(o.Round) + 1
			d.cityDivRound[d.relayCity[ri]]++
		}
		if fi := d.relayFac[ri]; fi >= 0 {
			d.facWinRound[fi]++
		}
		if gain := o.DirectMs - o.BestMs[t]; gain > 0 {
			d.noteCandidate(st, ri, gain, int32(o.Round))
		}
	}
	if st.plan >= 0 {
		st.rndPlanObs++
		// Improving is sorted by catalog index, so the planned relay's
		// delivered improvement is one binary search away; absence means
		// the plan delivered nothing this observation.
		if g := deliveredGain(o.Improving, st.plan, o.DirectMs); g > 0 {
			st.rndDeliver += float64(g)
		}
	}
}

// deliveredGain binary-searches the (catalog-ordered) improving list
// for the planned relay and returns its improvement, 0 if absent.
func deliveredGain(imp []measure.ImproveEntry, relay int32, directMs float32) float32 {
	lo, hi := 0, len(imp)
	for lo < hi {
		mid := (lo + hi) / 2
		if imp[mid].Relay < relay {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(imp) && imp[lo].Relay == relay {
		return directMs - imp[lo].RelayedMs
	}
	return 0
}

// noteCandidate folds one best-relay sighting into the corridor's
// candidate set: per distinct relay city the best known option, rolling
// its gain, evicting the weakest city when the set is full.
func (d *Detector) noteCandidate(st *corridorState, relay int32, gain float32, round int32) {
	city := d.relayCity[relay]
	weakest, weakGain := -1, float32(0)
	for i := range st.cand {
		c := &st.cand[i]
		if c.relay < 0 {
			if weakest == -1 || weakGain > 0 {
				weakest, weakGain = i, 0
			}
			continue
		}
		if c.city == city {
			if c.relay == relay {
				c.gain = 0.5*c.gain + 0.5*gain
			} else if gain > c.gain {
				c.relay = relay
				c.gain = gain
			}
			c.lastRound = round
			return
		}
		if weakest == -1 || c.gain < weakGain {
			weakest, weakGain = i, c.gain
		}
	}
	if weakest >= 0 && (st.cand[weakest].relay < 0 || gain > weakGain) {
		st.cand[weakest] = candidate{relay: relay, city: city, gain: gain, lastRound: round}
	}
}

// RoundDone implements measure.Sink: fold the round into every
// baseline, run the collapse/deviation pass, update events, and (in
// self-heal mode) refresh the exclusion mask and the corridor plans.
func (d *Detector) RoundDone(info measure.RoundInfo) {
	r := int32(info.Round)

	// 1. Per-corridor fold: deviation flags against the P² baseline.
	// These never open localized events on their own (endpoint
	// resampling makes single corridors noisy); they feed the event
	// payload and the congestion fallback. Baselines freeze while
	// deviating so an outage cannot become its own baseline.
	for i := range d.contDev {
		d.contDev[i] = 0
		d.contPresent[i] = 0
	}
	for _, st := range d.states {
		present := st.rndRound == r && st.rndCount > 0
		if present && st.haveCities {
			if c := d.cityCont[st.srcCity]; c == d.cityCont[st.dstCity] {
				d.contPresent[c]++
			}
		}
		if st.warm < warmupRounds {
			if present {
				st.base.add(st.rndSum / float64(st.rndCount))
				st.warm++
				st.seenObs = 0.7*st.seenObs + 0.3
			} else {
				st.seenObs = 0.7 * st.seenObs
			}
			st.streak = 0
			st.devNow = false
			continue
		}
		base := st.base.value()
		var val float64
		if present {
			val = st.rndSum / float64(st.rndCount)
		}
		switch {
		case present && base > 0 && val >= base*rttFactor:
			st.streak++
			st.devNow, st.dark = true, false
			st.ratio = float32(val / base)
		case !present && st.seenObs >= 0.7:
			st.streak++
			st.devNow, st.dark = true, true
			st.ratio = 0
		default:
			st.streak = 0
			st.devNow = false
			if present {
				st.base.add(val)
				st.warm++
				st.seenObs = 0.7*st.seenObs + 0.3
			} else {
				st.seenObs = 0.7 * st.seenObs
			}
		}
		if st.devNow && !st.dark && st.streak >= sustainRounds && st.haveCities {
			if c := d.cityCont[st.srcCity]; c == d.cityCont[st.dstCity] {
				d.contDev[c]++
			}
		}
	}

	// 2. Per-city diversity fold: the localization signal. Every
	// best-relay slot win vouches for the relay's home city; a
	// disrupted facility hub drags all its colocated relays out of
	// contention at once, so the number of DISTINCT relays winning for
	// the city collapses to zero — something calm relay-sampling noise
	// never does to a city with a diverse winner population.
	for c := range d.cityDivRound {
		div := float64(d.cityDivRound[c])
		d.cityDivRound[c] = 0
		base := d.cityDivBase[c]
		if d.winWarm < warmupRounds {
			if d.winWarm == 0 {
				d.cityDivBase[c] = div
			} else {
				d.cityDivBase[c] = 0.7*base + 0.3*div
			}
			continue
		}
		if ei := d.activeEventFor(int32(c)); ei >= 0 {
			// Baseline and streak stay frozen while the city's event is
			// active; recovery is only judged on rounds the city was
			// actually observable (every round in monitor mode, probe
			// rounds under an exclusion mask).
			if d.cityObservable(&d.events[ei], int(r)) && base > 0 && div >= recoverFactor*base {
				d.events[ei].EndRound = int(r)
				d.cooldownUntil[c] = r + cooldownRounds
				d.cityStreak[c] = 0
			}
			continue
		}
		if base >= minCityDiversity && div <= collapseFactor*base {
			d.cityStreak[c]++
			if d.cityStreak[c] >= sustainRounds && r >= d.cooldownUntil[c] {
				d.openEvent(int(r), int32(c), int(d.cityStreak[c]))
			}
		} else {
			d.cityStreak[c] = 0
			d.cityDivBase[c] = 0.7*base + 0.3*div
		}
	}
	// Facility win fold (attribution only: the culprit facility within
	// a flagged city is the one whose relays were winning the most).
	for f := range d.facWinRound {
		wins := float64(d.facWinRound[f])
		d.facWinRound[f] = 0
		if d.winWarm == 0 {
			d.facWinBase[f] = wins
		} else {
			d.facWinBase[f] = 0.7*d.facWinBase[f] + 0.3*wins
		}
	}
	if d.winWarm < warmupRounds {
		d.winWarm++
	}

	// 3. Continent-scoped congestion fallback: a broad sustained
	// slowdown with no collapsed city.
	d.updateCongestion(int(r))

	// 4. Healing: refresh the exclusion mask from the active culprits
	// and re-plan corridors; plans initialize here either way.
	excluded := d.refreshHealing(int(r))

	// 5. Plan delivery series for this round (plans as they stood while
	// the round measured, i.e. before step 4's re-plan).
	ps := RoundPlanStats{Round: int(r), ExcludedRelays: excluded}
	for _, st := range d.states {
		if st.plan >= 0 {
			ps.Planned++
		}
		if st.rndRound == r {
			ps.DeliveredMs += st.rndDeliver
			ps.PlanObservations += int(st.rndPlanObs)
		}
	}
	for i := range d.events {
		if d.events[i].Active() {
			ps.ActiveEvents++
		}
	}
	d.planStats = append(d.planStats, ps)
}

// activeEventFor returns the index of the open event naming the city,
// -1 if none.
func (d *Detector) activeEventFor(city int32) int {
	for i := range d.events {
		if d.events[i].Active() && d.events[i].cityIdx == city {
			return i
		}
	}
	return -1
}

// cityObservable reports whether the event's city was measurable during
// the given round: always in monitor mode; under self-healing only on
// the probe rounds the mask periodically re-admits.
func (d *Detector) cityObservable(ev *Event, round int) bool {
	if !d.opts.SelfHeal {
		return true
	}
	return d.probeDue(ev, round)
}

// probeDue reports whether the given round is a probe round for the
// event: every healProbeInterval rounds after confirmation the masked
// city's relays are re-admitted for one round.
func (d *Detector) probeDue(ev *Event, round int) bool {
	if round <= ev.ConfirmedRound {
		return false
	}
	return (round-ev.ConfirmedRound)%healProbeInterval == 0
}

// updateCongestion opens and closes continent-scoped events from the
// sustained-slow corridor counts of step 1.
func (d *Detector) updateCongestion(round int) {
	// Close active congestion events whose footprint shrank.
	for i := range d.events {
		ev := &d.events[i]
		if !ev.Active() || ev.contIdx < 0 {
			continue
		}
		if int(d.contDev[ev.contIdx]) < minCorridors {
			ev.EndRound = round
		}
	}
	if d.winWarm < warmupRounds {
		return
	}
	for ci := range d.contDev {
		dev, present := int(d.contDev[ci]), int(d.contPresent[ci])
		if dev < 2*minCorridors || present == 0 || float64(dev) < 0.6*float64(present) {
			continue
		}
		open := false
		for i := range d.events {
			if d.events[i].Active() && d.events[i].contIdx == int32(ci) {
				open = true
				break
			}
		}
		if open {
			continue
		}
		ev := Event{
			ID:             len(d.events),
			Kind:           Congestion,
			OnsetRound:     round - sustainRounds + 1,
			ConfirmedRound: round,
			EndRound:       -1,
			Continent:      d.contNames[ci],
			cityIdx:        -1,
			contIdx:        int32(ci),
		}
		for i, st := range d.states {
			if st.devNow && !st.dark && st.streak >= sustainRounds && st.haveCities &&
				d.cityCont[st.srcCity] == int32(ci) && d.cityCont[st.dstCity] == int32(ci) {
				ev.corrIdxs = append(ev.corrIdxs, int32(i))
			}
		}
		d.events = append(d.events, ev)
		d.fillEventCorridors(&d.events[len(d.events)-1])
	}
}

// openEvent records a localized event for the collapsed city. streak is
// the collapse streak length at confirmation (onset = round-streak+1).
func (d *Detector) openEvent(round int, city int32, streak int) {
	// The event's corridors: everything deviating this round that
	// touches the culprit city on either end.
	var idxs []int32
	dark := 0
	for i, st := range d.states {
		if !st.devNow || !st.haveCities {
			continue
		}
		if st.srcCity == city || st.dstCity == city {
			idxs = append(idxs, int32(i))
			if st.dark {
				dark++
			}
		}
	}
	kind := RTTSpike
	if len(idxs) > 0 && dark*2 >= len(idxs) {
		kind = Blackhole
	}
	c := &d.w.Topo.Cities[city]
	ev := Event{
		ID:             len(d.events),
		Kind:           kind,
		OnsetRound:     round - streak + 1,
		ConfirmedRound: round,
		EndRound:       -1,
		City:           c.Name,
		CC:             c.CC,
		Continent:      c.Continent,
		DarkCorridors:  dark,
		cityIdx:        city,
		contIdx:        -1,
		corrIdxs:       idxs,
	}
	ev.Facility, ev.FacilityPDB = d.culpritFacility(city)
	d.events = append(d.events, ev)
	d.fillEventCorridors(&d.events[len(d.events)-1])
}

// fillEventCorridors renders the event's corridor keys and severity
// from its corridor indices.
func (d *Detector) fillEventCorridors(ev *Event) {
	d.severScratch = d.severScratch[:0]
	ev.Corridors = make([]measure.Corridor, 0, len(ev.corrIdxs))
	for _, ci := range ev.corrIdxs {
		ev.Corridors = append(ev.Corridors, d.order[ci])
		if ratio := d.states[ci].ratio; ratio > 0 {
			d.severScratch = append(d.severScratch, float64(ratio))
		}
	}
	sort.Slice(ev.Corridors, func(a, b int) bool {
		ca, cb := ev.Corridors[a], ev.Corridors[b]
		if ca.A != cb.A {
			return ca.A < cb.A
		}
		return ca.B < cb.B
	})
	if len(d.severScratch) > 0 {
		sum := 0.0
		for _, v := range d.severScratch {
			sum += v
		}
		ev.Severity = sum / float64(len(d.severScratch))
	}
}

// culpritFacility names the flagged city's most likely culprit
// facility: the one whose relays were winning the most before the
// collapse (highest win baseline), falling back to the city's flagship
// facility by PeeringDB-listed networks when no colocated relay ever
// won.
func (d *Detector) culpritFacility(city int32) (string, int) {
	bestFac, bestBase := -1, 0.0
	for f := range d.facWinBase {
		if d.facCity[f] != city {
			continue
		}
		if b := d.facWinBase[f]; b > bestBase {
			bestFac, bestBase = f, b
		}
	}
	if bestFac >= 0 {
		facs := d.w.Registry.Facilities()
		return facs[bestFac].Name, facs[bestFac].PDBID
	}
	name, pdb, nets := "", 0, -1
	for _, f := range d.w.Topo.FacilitiesIn(int(city)) {
		if f.ListedNets > nets || (f.ListedNets == nets && f.PDBID < pdb) {
			name, pdb, nets = f.Name, f.PDBID, f.ListedNets
		}
	}
	return name, pdb
}

// refreshHealing recomputes the relay exclusion mask from the active
// culprit cities and re-plans corridors when the culprit set changed;
// it also initializes plans for corridors that just produced their
// first candidates. round is the round that just completed — the mask
// is built for round+1, honoring that round's probe cadence. Returns
// the number of excluded relays for round+1.
func (d *Detector) refreshHealing(round int) int {
	if !d.opts.SelfHeal {
		// Monitor mode: plans still initialize (once) so the delivery
		// series exists to compare against, but never change after.
		for _, st := range d.states {
			if st.plan < 0 {
				st.plan = d.bestCandidate(st, nil, round)
			}
		}
		return 0
	}
	// Active culprit cities, in event order (deterministic).
	var cull []int32
	for i := range d.events {
		ev := &d.events[i]
		if ev.Active() && ev.cityIdx >= 0 {
			cull = append(cull, ev.cityIdx)
		}
	}
	changed := len(cull) != d.lastCullLen
	if !changed {
		for _, c := range cull {
			if !d.cullSet[c] {
				changed = true
				break
			}
		}
	}
	if changed {
		if d.cullSet == nil {
			d.cullSet = make([]bool, len(d.w.Topo.Cities))
		}
		for i := range d.cullSet {
			d.cullSet[i] = false
		}
		for _, c := range cull {
			d.cullSet[c] = true
		}
		d.lastCullLen = len(cull)
		// Re-plan every corridor against the new culprit set: corridors
		// whose plan sits in a culled city move to their best surviving
		// candidate; released corridors may move back.
		mask := d.cullSet
		if len(cull) == 0 {
			mask = nil
		}
		for _, st := range d.states {
			if best := d.bestCandidate(st, mask, round); best >= 0 {
				st.plan = best
			}
		}
	} else {
		for _, st := range d.states {
			if st.plan < 0 {
				var mask []bool
				if d.lastCullLen > 0 {
					mask = d.cullSet
				}
				st.plan = d.bestCandidate(st, mask, round)
			}
		}
	}
	// The mask for the NEXT round: culled cities minus those whose
	// probe cadence re-admits them for one round. Plans keep avoiding
	// probed cities — the probe is observation-only.
	if len(cull) == 0 {
		d.healMask = nil
		return 0
	}
	if d.healMask == nil {
		d.healMask = make([]bool, len(d.relayCity))
	}
	next := round + 1
	probe := make([]bool, 0) // lazily sized only if some city probes
	for i := range d.events {
		ev := &d.events[i]
		if ev.Active() && ev.cityIdx >= 0 && d.probeDue(ev, next) {
			if len(probe) == 0 {
				probe = make([]bool, len(d.w.Topo.Cities))
			}
			probe[ev.cityIdx] = true
		}
	}
	n := 0
	for i, c := range d.relayCity {
		x := d.cullSet[c] && !(len(probe) > 0 && probe[c])
		d.healMask[i] = x
		if x {
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return n
}

// bestCandidate picks the corridor's highest-gain candidate whose city
// is not masked and that has been sighted recently; -1 when none.
func (d *Detector) bestCandidate(st *corridorState, cityMask []bool, round int) int32 {
	best, bestGain := int32(-1), float32(0)
	for i := range st.cand {
		c := &st.cand[i]
		if c.relay < 0 || (cityMask != nil && cityMask[c.city]) {
			continue
		}
		if round-int(c.lastRound) > candidateTTL {
			continue
		}
		if best < 0 || c.gain > bestGain || (c.gain == bestGain && c.relay < best) {
			best, bestGain = c.relay, c.gain
		}
	}
	return best
}

// candidateTTL is how many rounds a candidate sighting stays eligible
// for (re-)planning.
const candidateTTL = 8

// ExcludedRelays implements measure.SelfHealController: the
// catalog-indexed relay exclusion mask the campaign applies to the
// round about to execute (nil = none). The mask reflects events
// confirmed in earlier rounds — the Sink contract guarantees RoundDone
// for round r-1 completes before the campaign plans round r.
func (d *Detector) ExcludedRelays(round int) []bool { return d.healMask }

// Events returns every event detected so far, confirmed order.
func (d *Detector) Events() []Event {
	out := make([]Event, len(d.events))
	copy(out, d.events)
	return out
}

// ActiveEvents returns the events still open.
func (d *Detector) ActiveEvents() []Event {
	var out []Event
	for i := range d.events {
		if d.events[i].Active() {
			out = append(out, d.events[i])
		}
	}
	return out
}

// PlanHistory returns the per-round plan delivery series.
func (d *Detector) PlanHistory() []RoundPlanStats {
	out := make([]RoundPlanStats, len(d.planStats))
	copy(out, d.planStats)
	return out
}

// Corridors returns the number of corridors tracked.
func (d *Detector) Corridors() int { return len(d.order) }
