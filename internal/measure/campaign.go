// Package measure executes the paper's measurement campaign (Section
// 2.5) over a synthetic world: every 12 hours it samples endpoints at
// eyeballs, measures direct paths pairwise, selects feasible relays per
// pair, measures endpoint-relay legs, and stitches single-relay overlay
// paths — all with 6 pings per pair per 30-minute window and
// median-of-at-least-3 validity, under the Atlas credit budget.
//
// The campaign is a streaming producer: RunStream pushes each
// Observation into a Sink the moment its round is stitched, so the
// campaign's own memory is bounded by one round regardless of campaign
// length; what a sink keeps is its own. Run is the batch wrapper that
// collects the stream into a Results, and Stats folds either form into
// the paper's statistics.
//
// The round loop pays for pair and relay structure once per world or
// campaign, not once per round: the feasibility filter reads a shared
// city-pair propagation-delay matrix, and every per-round buffer lives
// in a reused scratch arena with capacity-retaining resets, so
// steady-state rounds stay off the allocator.
//
// Rounds run one at a time; parallelism lives inside a round
// (Config.Concurrency workers). A round drafts its endpoints and relays,
// then runs three worker passes: direct pricing, which also writes each
// pair's row of a feasibility bitset over the round's relays; leg
// pricing; and, once the round's Atlas credits are charged, stitching
// into per-pair records. A serial loop then emits the observations in
// pair order. Every stochastic draw is keyed by (seed, round, slot) —
// never by call order — so the stream is the same for any worker count.
//
// Every median is taken by one helper, medians: direct pairs (both
// directions as one batch), endpoint-relay legs (legChunk per batch)
// and the two-relay experiment's legs all resolve a batch of line pairs
// with latency's ResolveBatch and price each train off its handle, on
// the round's slot schedule. A round binds each active endpoint and
// each sampled relay to its line once, and a campaign tables the
// diurnal load once per UTC time of day its rounds start at.
package measure

import (
	"fmt"
	"math/bits"
	"runtime"
	"sort"
	"time"

	"shortcuts/internal/atlas"
	"shortcuts/internal/geo"
	"shortcuts/internal/latency"
	"shortcuts/internal/par"
	"shortcuts/internal/relays"
	"shortcuts/internal/rng"
	"shortcuts/internal/scenario"
	"shortcuts/internal/sim"
)

// Run executes the campaign and materializes the full observation
// stream in memory.
func Run(w *sim.World, cfg Config) (*Results, error) {
	res := NewResults(cfg, w)
	if err := RunStream(w, cfg, res); err != nil {
		return nil, err
	}
	return res, nil
}

// RunStream executes the campaign, pushing observations and per-round
// summaries into sink as each round completes. Equal seeds produce
// bit-for-bit identical streams for any Concurrency and any engine
// shard count: every stochastic draw derives from (seed, path
// identity, round, slot), never from scheduling.
func RunStream(w *sim.World, cfg Config, sink Sink) error {
	c, err := newCampaign(w, cfg)
	if err != nil {
		return err
	}
	if cfg.SelfHeal != nil {
		// The controller sees each round before the caller's sink does,
		// so by the time external observers learn round r finished, the
		// exclusions for round r+1 are already decided.
		sink = MultiSink(cfg.SelfHeal, sink)
	}
	for round := 0; round < cfg.Rounds; round++ {
		info, err := c.runRound(round, sink)
		if err != nil {
			return fmt.Errorf("measure: round %d: %w", round, err)
		}
		sink.RoundDone(info)
	}
	return nil
}

// newCampaign validates the configuration and builds the campaign
// executor: compiled scenario, propagation matrix, and the (initially
// empty) round scratch arena.
func newCampaign(w *sim.World, cfg Config) (*campaign, error) {
	if cfg.Rounds <= 0 {
		return nil, fmt.Errorf("measure: Rounds must be positive")
	}
	if err := checkPings(cfg); err != nil {
		return nil, err
	}
	compiled, err := cfg.Scenario.Compile(w, cfg.Rounds)
	if err != nil {
		return nil, fmt.Errorf("measure: %w", err)
	}
	if cfg.PairBudget < 0 {
		return nil, fmt.Errorf("measure: PairBudget must be >= 0, got %d", cfg.PairBudget)
	}
	if cfg.EndpointsPerCountry < 0 {
		return nil, fmt.Errorf("measure: EndpointsPerCountry must be >= 0, got %d", cfg.EndpointsPerCountry)
	}
	// The propagation matrix derives purely from the world, so every
	// campaign over one world — and a sweep runs many, concurrently —
	// shares a single instance.
	prop := w.SharedCache("measure.propDelays", func() any {
		return cityPropDelays(w)
	}).([]time.Duration)
	workers := cfg.Concurrency
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	g := rng.New(campaignSeed(cfg, w)).Split("campaign")
	return &campaign{
		w:         w,
		cfg:       cfg,
		g:         g,
		pairBase:  g.Stream("pairs"),
		ledger:    atlas.NewLedger(cfg.DailyCreditLimit),
		nc:        len(w.Topo.Cities),
		prop:      prop,
		scenario:  compiled,
		workers:   workers,
		schedules: make(map[time.Duration]*latency.Schedule),
	}, nil
}

// checkPings rejects ping settings under which a median could be taken
// over no replies at all.
func checkPings(cfg Config) error {
	if cfg.MinValidPings < 1 {
		return fmt.Errorf("measure: MinValidPings must be >= 1, got %d", cfg.MinValidPings)
	}
	if cfg.PingsPerPair < cfg.MinValidPings {
		return fmt.Errorf("measure: PingsPerPair (%d) below MinValidPings (%d)",
			cfg.PingsPerPair, cfg.MinValidPings)
	}
	return nil
}

// campaignSeed resolves the seed the campaign's draws derive from: an
// explicit Config.CampaignSeed, or the world seed when unset.
func campaignSeed(cfg Config, w *sim.World) int64 {
	if cfg.CampaignSeed != 0 {
		return cfg.CampaignSeed
	}
	return w.Params.Seed
}

type campaign struct {
	w      *sim.World
	cfg    Config
	g      *rng.Rand
	ledger *atlas.Ledger
	nc     int             // city count (side of the prop matrix)
	prop   []time.Duration // flat nc x nc one-way propagation delays

	// pairBase seeds the stratified pair sampler. Every sampling draw
	// derives from (campaign seed, "pairs", round, stratum) — never from
	// call order — so sampled plans are schedule-independent.
	pairBase rng.Stream

	// scenario is the compiled dynamic-world timeline (nil when none is
	// configured); each round binds its snapshot to view.
	scenario *scenario.Compiled

	// workers is the per-round worker-pool size (resolved once: explicit
	// Concurrency, or GOMAXPROCS).
	workers int

	// view is the engine bound to the current round's scenario snapshot.
	// It is rebound at the start of the round, before the worker pool
	// spawns, and only read by workers.
	view latency.View

	// schedules holds the slot schedules of the campaign's rounds, keyed
	// by the round start's UTC time of day: the ping interval and count
	// are fixed per campaign, so the key determines the schedule, and
	// 12-hour rounds need two.
	schedules map[time.Duration]*latency.Schedule

	// scr holds every per-round buffer, reused across rounds (only the
	// worker pool inside a round is parallel).
	scr roundScratch

	// arena amortizes the exact-size copies of emitted Improving lists.
	arena improveArena
}

// roundScratch is the arena of per-round buffers. Every field is either
// fully overwritten each round or explicitly cleared by reset, so a
// round following a larger one can never observe stale values
// (regression-tested by the shrinking-world test).
type roundScratch struct {
	exclude     map[atlas.ProbeID]bool
	eps         []int32   // per endpoint: its atlas row
	epWeight    []float32 // per endpoint: its (country, AS) group's eyeball population weight
	asPerm      []int     // drafting: per-country AS-group permutation
	probePerm   []int     // drafting: per-group row permutation
	roundRelays []int
	windowUp    []bool         // per endpoint: answers through the window
	relayUp     []uint64       // relay-position bitset: alive through the window
	relayCity   []int32        // per relay position: home city
	relayType   []relays.Type  // per relay position: population
	relayLine   []latency.Line // per relay position: bound to its line
	typeBits    []uint64       // per relay type, a relay-position bitset (nrW words each)
	livePos     []int32        // relay positions not churned out this round
	pairs       []pairIdx32    // the round's pairs: every pair, or the stratified sample
	fwd, rev    []float32      // per pair: direct medians, both directions
	workers     []scratch      // per-worker pricing and stitching scratch

	// feas is the per-pair feasibility bitset over relay positions, nrW
	// words per pair: a bit is set when the relay is live and passes the
	// pair's speed-of-light filter. The direct-pricing worker that owns
	// the pair writes its row; unresponsive pairs' rows stay zero.
	feas []uint64
	// stitched holds each usable pair's stitch result, written by the
	// stitch pass and read by the serial emission loop.
	stitched []pairStitch

	// Leg demand over (active endpoint x relay position), as a bitset
	// plus a prefix-popcount rank so measured medians pack into a
	// compact array: memory scales with legs actually measured, not with
	// the dense ne x nr grid (ruinous at sampled million-endpoint scale).
	activeOf   []int32        // per endpoint: dense active index, -1 if inactive
	activeList []int32        // active endpoint positions, ascending
	lines      []latency.Line // per active endpoint: bound to its line
	legBits    []uint64       // (active x relay) demand bitset, nrW words per row
	legCum     []int32        // per word: set bits before it (rank directory)
	legVals    []float32      // compact leg medians, one per set bit, bit order
	legJobs    []int64        // flat active*nr+pos of legs to measure, ascending

	// Stratified pair-sampling scratch (buildPairPlan).
	cityCount  []int32   // per city: endpoints this round
	cityStart  []int32   // per city: extent starts into byCity
	cityFill   []int32   // counting-sort cursor
	byCity     []int32   // endpoint positions grouped by city, ascending
	cityList   []int32   // occupied cities, ascending
	cityWeight []float64 // per city: summed eyeball population weight
	strataT    []int64   // one stratum's sampled ordinals, sort buffer
	sampleSeen map[sampleKey]bool
}

// grown returns s resized to n, reusing capacity when it suffices. The
// returned slice's contents are whatever the previous round left there —
// callers either overwrite every element or clear it explicitly.
func grown[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// pairStitch is one usable pair's stitch result: per relay type the
// feasible count and the best relay, and where the pair's improving
// entries sit — an extent of one worker's improve buffer. It holds no
// pointers, so a round's records cost the collector nothing.
type pairStitch struct {
	bestMs    [relays.NumTypes]float32
	bestRelay [relays.NumTypes]int32
	feasible  [relays.NumTypes]uint16
	worker    int32 // the scratch whose improve buffer holds the entries
	lo, hi    int32 // the entries' extent in that buffer
}

// improveArena carves exact-size ImproveEntry slices out of large shared
// blocks, replacing one heap allocation per emitted observation with one
// per thousands of entries. Emitted slices have their capacity clamped,
// so a sink appending to one copies instead of clobbering a neighbour.
// Retention note: a sink that holds any observation of a block keeps the
// whole block alive; the two usual sinks sit at the harmless extremes
// (Results retains every observation, a StatsSink retains none).
type improveArena struct {
	block []ImproveEntry
}

// improveArenaBlock is the block granularity, in entries (8 bytes each).
const improveArenaBlock = 4096

func (a *improveArena) alloc(n int) []ImproveEntry {
	if len(a.block)+n > cap(a.block) {
		size := improveArenaBlock
		if n > size {
			size = n
		}
		a.block = make([]ImproveEntry, 0, size)
	}
	start := len(a.block)
	a.block = a.block[:start+n]
	return a.block[start : start+n : start+n]
}

// cityPropDelays precomputes the flat city-pair propagation-delay matrix
// the feasibility filter reads. The filter runs per (pair x relay) —
// tens of millions of checks per paper campaign — so it must be two
// array loads, not two great-circle PropDelay computations.
func cityPropDelays(w *sim.World) []time.Duration {
	n := len(w.Topo.Cities)
	m := make([]time.Duration, n*n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			d := geo.PropDelay(geo.Distance(w.Topo.Cities[i].Loc, w.Topo.Cities[j].Loc))
			m[i*n+j], m[j*n+i] = d, d
		}
	}
	return m
}

// runRound executes one round: it runs every measurement phase,
// charges the round's credits against the ledger, stitches the round's
// observations and emits them into sink in pair order. The caller
// reports RoundDone.
func (c *campaign) runRound(round int, sink Sink) (RoundInfo, error) {
	start := c.cfg.Start.Add(time.Duration(round) * c.cfg.RoundInterval)
	info := RoundInfo{Round: round, Start: start}
	scr := &c.scr

	// Every train of the round pings on the same slot schedule, tabled
	// once per UTC time of day a round starts at.
	sched := c.schedule(start)

	// Bind this round's scenario snapshot to the engine view. The
	// branch avoids wrapping a typed-nil *Snapshot in the Overlay
	// interface: a nil interface selects the bare-engine fast path for
	// quiet rounds, bit-identical to a scenario-free campaign.
	snap := c.scenario.Snapshot(round)
	if snap != nil {
		c.view = c.w.Engine.View(snap)
	} else {
		c.view = c.w.Engine.View(nil)
	}

	// Step 1: endpoint selection, drafted as atlas rows — draw-for-draw
	// what the selector's walk draws; everything downstream reads
	// endpoint attributes from the atlas columns.
	perCountry := c.cfg.EndpointsPerCountry
	if perCountry < 1 {
		perCountry = 1
	}
	scr.eps = c.draftEndpoints(scr, round, perCountry)
	eps := scr.eps
	ne := len(eps)
	info.Endpoints = ne
	fleet := c.w.Atlas
	if scr.exclude == nil {
		scr.exclude = make(map[atlas.ProbeID]bool, ne)
	} else {
		clear(scr.exclude)
	}
	for _, row := range eps {
		scr.exclude[fleet.ID(row)] = true
	}

	// Step 3 (selection half): relay sampling. Sampled before leg
	// measurement so feasibility can prune the leg set.
	relaySet := c.w.Sampler.SampleRound(c.g, round, scr.exclude)
	scr.roundRelays = scr.roundRelays[:0]
	for t := 0; t < relays.NumTypes; t++ {
		info.RelayCounts[t] = len(relaySet.ByType[t])
		scr.roundRelays = append(scr.roundRelays, relaySet.ByType[t]...)
	}
	sort.Ints(scr.roundRelays)
	roundRelays := scr.roundRelays
	nr := len(roundRelays)

	// Mid-window outages: probes were selected as responsive, but some
	// stop answering during the 30-minute window. Pairs (and legs)
	// touching such probes yield no valid medians this round.
	scr.windowUp = grown(scr.windowUp, ne)
	windowUp := scr.windowUp
	for i := 0; i < ne; i++ {
		windowUp[i] = c.windowUpAt(fleet.ID(eps[i]), round)
	}
	nrW := (nr + 63) / 64 // words per relay-position bitset row
	scr.relayUp = grown(scr.relayUp, nrW)
	relayUp := scr.relayUp
	clear(relayUp)
	scr.relayCity = grown(scr.relayCity, nr)
	scr.relayType = grown(scr.relayType, nr)
	scr.relayLine = grown(scr.relayLine, nr)
	scr.typeBits = grown(scr.typeBits, relays.NumTypes*nrW)
	clear(scr.typeBits)
	for pos, ri := range roundRelays {
		r := c.w.Catalog.Relay(ri)
		// RAR relays are probes with the same outage process; COR router
		// interfaces and PLR nodes were liveness-checked at sampling.
		if r.ProbeID == 0 || c.windowUpAt(r.ProbeID, round) {
			relayUp[pos>>6] |= 1 << (uint(pos) & 63)
		}
		scr.relayCity[pos] = int32(r.City)
		scr.relayType[pos] = r.Type
		scr.relayLine[pos] = c.w.Engine.Line(r.Endpoint)
		scr.typeBits[int(r.Type)*nrW+pos>>6] |= 1 << (uint(pos) & 63)
	}

	// Scenario relay churn: churned-out relays are invisible to the
	// feasibility filter this round — they neither count as feasible nor
	// get legs measured, exactly as if the liveness checks had dropped
	// them from the sample. livePos is the churn-mask intersection the
	// filter iterates, in ascending (catalog) order.
	// Self-heal exclusions ride the same masking: relays at a suspect
	// facility's city are dropped from this round exactly like churned
	// relays, per the controller's verdict on the rounds already seen.
	var heal []bool
	if c.cfg.SelfHeal != nil {
		heal = c.cfg.SelfHeal.ExcludedRelays(round)
	}
	scr.livePos = scr.livePos[:0]
	for pos, ri := range roundRelays {
		switch {
		case snap.RelayOut(ri):
			info.RelaysChurned++
		case ri < len(heal) && heal[ri]:
			info.RelaysHealed++
		default:
			scr.livePos = append(scr.livePos, int32(pos))
		}
	}

	// Step 2: direct paths, both directions, and step 3's feasibility
	// half. The round's pairs are every pair in the canonical
	// `for i { for j := i+1 }` order, or, under a PairBudget below that
	// count, the stratified sample. fwd/rev are zeroed because
	// unresponsive pairs must read as "no valid median" (0), not as last
	// round's value.
	if c.cfg.PairBudget > 0 && c.cfg.PairBudget < pairCount(ne) {
		c.buildPairPlan(scr, round)
	} else {
		scr.pairs = scr.pairs[:0]
		for i := range int32(ne) {
			for j := i + 1; j < int32(ne); j++ {
				scr.pairs = append(scr.pairs, pairIdx32{i, j})
			}
		}
	}
	pairs := scr.pairs
	np := len(pairs)
	info.PairsAttempted = np

	// The active endpoint set: every endpoint some pair touches, in
	// ascending position order. An exhaustive round with two or more
	// endpoints touches every endpoint, so the map is the identity;
	// a sampled round compacts to the touched subset, which is what
	// keeps the leg bitset's row count at O(sampled endpoints).
	scr.activeOf = grown(scr.activeOf, ne)
	activeOf := scr.activeOf
	for i := range activeOf {
		activeOf[i] = -1
	}
	for _, p := range pairs {
		activeOf[p.i] = 0
		activeOf[p.j] = 0
	}
	scr.activeList = scr.activeList[:0]
	for i := range activeOf {
		if activeOf[i] == 0 {
			activeOf[i] = int32(len(scr.activeList))
			scr.activeList = append(scr.activeList, int32(i))
		} else {
			activeOf[i] = -1
		}
	}
	nA := len(scr.activeList)
	// Each active endpoint is bound to its line once per round: one
	// line-quality draw, whatever number of trains it terminates.
	scr.lines = grown(scr.lines, nA)
	lines := scr.lines
	for a, i := range scr.activeList {
		lines[a] = c.w.Engine.Line(fleet.Endpoint(eps[i]))
	}

	scr.fwd = grown(scr.fwd, np)
	scr.rev = grown(scr.rev, np)
	fwd, rev := scr.fwd, scr.rev
	clear(fwd)
	clear(rev)
	scr.feas = grown(scr.feas, np*nrW)
	feas := scr.feas
	// Each direct pair prices as one two-entry batch, a->b and b->a,
	// through the shared path-state cache. It is keyed by attachment
	// pair, so a sampled round's fresh endpoint pairs mostly land on
	// entries earlier rounds admitted. The worker that prices a pair also
	// writes the pair's feasibility row.
	err := c.parallel(scr, np, func(s *scratch, k int) error {
		row := feas[k*nrW : (k+1)*nrW]
		clear(row)
		i, j := pairs[k].i, pairs[k].j
		if !windowUp[i] || !windowUp[j] {
			s.pings += int64(2 * c.cfg.PingsPerPair) // pings sent, unanswered
			return nil
		}
		a, b := lines[activeOf[i]], lines[activeOf[j]]
		s.pairs = append(s.pairs[:0], latency.LinePair{A: a, B: b}, latency.LinePair{A: b, B: a})
		var m [2]float32
		if err := c.medians(c.view, s, s.pairs, round, sched, m[:]); err != nil {
			return err
		}
		fwd[k], rev[k] = m[0], m[1]
		if m[0] != 0 { // unresponsive pair: no relay measurements either
			directRTT := time.Duration(float64(m[0]) * float64(time.Millisecond))
			c.markFeasible(row, fleet.City(eps[i]), fleet.City(eps[j]), directRTT)
		}
		return nil
	})
	pings := c.flushPings(scr)
	if err != nil {
		return info, err
	}

	// Leg demand as a bitset over (active endpoint x relay position),
	// nrW words per active row: each pair's feasible relays that stay up
	// through the window, ORed word by word into both endpoints' rows.
	scr.legBits = grown(scr.legBits, nA*nrW)
	legBits := scr.legBits
	clear(legBits)
	for k, p := range pairs {
		row := feas[k*nrW : (k+1)*nrW]
		ra := legBits[int(activeOf[p.i])*nrW:][:nrW]
		rb := legBits[int(activeOf[p.j])*nrW:][:nrW]
		for w, f := range row {
			f &= relayUp[w]
			ra[w] |= f
			rb[w] |= f
		}
	}

	// Step 4 (legs): measure each needed endpoint-relay leg once. Jobs
	// walk the bitset in ascending flat (active x relay) order — in
	// exhaustive mode the identical deterministic order the historical
	// dense layout produced — and job ordinal k IS the leg's bitset rank,
	// so the k-th median lands directly in the compact value slot the
	// stitch lookup rank-addresses. While the jobs are enumerated, the
	// per-word running rank is recorded as the legCum directory.
	scr.legCum = grown(scr.legCum, nA*nrW+1)
	legCum := scr.legCum
	scr.legJobs = scr.legJobs[:0]
	for gw := 0; gw < nA*nrW; gw++ {
		legCum[gw] = int32(len(scr.legJobs))
		word := legBits[gw]
		ai, wi := gw/nrW, gw%nrW
		for word != 0 {
			pos := wi*64 + bits.TrailingZeros64(word)
			scr.legJobs = append(scr.legJobs, int64(ai)*int64(nr)+int64(pos))
			word &= word - 1
		}
	}
	legCum[nA*nrW] = int32(len(scr.legJobs))
	legJobs := scr.legJobs
	scr.legVals = grown(scr.legVals, len(legJobs))
	legVals := scr.legVals
	relayLine := scr.relayLine
	// Legs are priced in chunks: each worker gathers legChunk endpoint-
	// relay pairs, so one memory-parallel ResolveBatch overlaps the
	// chunk's cache misses instead of serializing them train by train.
	nChunks := (len(legJobs) + legChunk - 1) / legChunk
	err = c.parallel(scr, nChunks, func(s *scratch, ck int) error {
		lo := ck * legChunk
		hi := lo + legChunk
		if hi > len(legJobs) {
			hi = len(legJobs)
		}
		s.pairs = s.pairs[:0]
		for _, idx := range legJobs[lo:hi] {
			s.pairs = append(s.pairs, latency.LinePair{A: lines[int(idx/int64(nr))], B: relayLine[int(idx%int64(nr))]})
		}
		return c.medians(c.view, s, s.pairs, round, sched, legVals[lo:hi])
	})
	pings += c.flushPings(scr)
	if err != nil {
		return info, err
	}

	// Credits: all pings of this round land on its calendar day, charged
	// before stitching, so an exhausted budget emits nothing of the round.
	day := int(start.Sub(c.cfg.Start).Hours() / 24)
	if err := c.ledger.Spend(day, pings*atlas.PingCost); err != nil {
		return info, err
	}
	info.PingsSent = pings

	// Step 4 (stitching): every usable pair is stitched off the leg
	// medians on the worker pool, each worker appending improving entries
	// to its own buffer.
	scr.stitched = grown(scr.stitched, np)
	stitched := scr.stitched
	for w := range scr.workers {
		scr.workers[w].improve = scr.workers[w].improve[:0]
	}
	err = c.parallel(scr, np, func(s *scratch, k int) error {
		if fwd[k] != 0 {
			p := pairs[k]
			c.stitchPair(s, &stitched[k], feas[k*nrW:(k+1)*nrW], int(activeOf[p.i]), int(activeOf[p.j]), fwd[k])
		}
		return nil
	})
	if err != nil {
		return info, err
	}

	// Emission: one serial loop in pair order. Every observation field is
	// an atlas column read, its city's continent, or a stitch record field.
	cities := c.w.Topo.Cities
	for k, p := range pairs {
		if fwd[k] == 0 {
			continue
		}
		st := &stitched[k]
		ra, rb := eps[p.i], eps[p.j]
		o := Observation{
			Round:    round,
			SrcProbe: fleet.ID(ra), DstProbe: fleet.ID(rb),
			SrcAS: fleet.AS(ra), DstAS: fleet.AS(rb),
			SrcCC: fleet.CC(ra), DstCC: fleet.CC(rb),
			SrcCont: cities[fleet.City(ra)].Continent, DstCont: cities[fleet.City(rb)].Continent,
			DirectMs: fwd[k], RevDirectMs: rev[k],
			BestMs: st.bestMs, BestRelay: st.bestRelay, FeasibleCount: st.feasible,
		}
		// Improving entries escape into the sink, so they get an
		// exact-size arena copy: the observation retains not an entry
		// more than it owns.
		if improving := scr.workers[st.worker].improve[st.lo:st.hi]; len(improving) > 0 {
			o.Improving = c.arena.alloc(len(improving))
			copy(o.Improving, improving)
		}
		sink.Emit(o)
		info.PairsUsable++
	}
	return info, nil
}

// markFeasible writes a responsive pair's row of the feasibility bitset:
// one bit per live relay position that passes the Section-2.4 filter for
// the pair's cities and direct RTT, or every live relay when the filter
// is disabled (the ablation). The filter is feasibleDirect read off the
// two endpoint cities' rows of the symmetric propagation matrix, so each
// check is two contiguous loads, an add and a compare.
func (c *campaign) markFeasible(row []uint64, aCity, bCity int, directRTT time.Duration) {
	livePos := c.scr.livePos
	if c.cfg.DisableFeasibilityFilter {
		for _, pos := range livePos {
			row[pos>>6] |= 1 << (uint(pos) & 63)
		}
		return
	}
	pa, pb := c.prop[aCity*c.nc:][:c.nc], c.prop[bCity*c.nc:][:c.nc]
	relayCity := c.scr.relayCity
	for _, pos := range livePos {
		if rc := relayCity[pos]; 2*(pa[rc]+pb[rc]) <= directRTT {
			row[pos>>6] |= 1 << (uint(pos) & 63)
		}
	}
}

// stitchPair stitches one usable pair from its feasibility row (active
// endpoints ai and aj) into st, appending the relays that beat the
// direct median to the worker's improve buffer. Feasible counts are
// popcounts against the per-type bitsets; the stitch walks the feasible
// relays that stay up in ascending position — catalog order — which
// fixes BestRelay's tie-break and the Improving order.
func (c *campaign) stitchPair(s *scratch, st *pairStitch, row []uint64, ai, aj int, directMs float32) {
	scr := &c.scr
	nrW := len(row)
	rec := pairStitch{worker: s.id, lo: int32(len(s.improve))}
	for t := range rec.bestRelay {
		rec.bestRelay[t] = -1
	}
	for w, word := range row {
		for t := range rec.feasible {
			rec.feasible[t] += uint16(bits.OnesCount64(word & scr.typeBits[t*nrW+w]))
		}
		word &= scr.relayUp[w]
		// Leg demand holds every feasible relay that stays up in both
		// endpoints' rows, so such a relay's leg median sits at its bit's
		// rank in the compact value array: the word's rank-directory entry
		// plus the set bits below it in the word.
		ga, gb := ai*nrW+w, aj*nrW+w
		legA, legB := scr.legBits[ga], scr.legBits[gb]
		valA, valB := scr.legVals[scr.legCum[ga]:], scr.legVals[scr.legCum[gb]:]
		for word != 0 {
			b := bits.TrailingZeros64(word)
			word &= word - 1
			pos := w*64 + b
			t := scr.relayType[pos]
			below := uint64(1)<<b - 1
			la := valA[bits.OnesCount64(legA&below)]
			lb := valB[bits.OnesCount64(legB&below)]
			if la == 0 || lb == 0 {
				continue // a leg had too few valid replies
			}
			stitched := la + lb
			ri := int32(scr.roundRelays[pos])
			if rec.bestRelay[t] == -1 || stitched < rec.bestMs[t] {
				rec.bestMs[t] = stitched
				rec.bestRelay[t] = ri
			}
			if stitched < directMs {
				s.improve = append(s.improve, ImproveEntry{Relay: ri, RelayedMs: stitched})
			}
		}
	}
	rec.hi = int32(len(s.improve))
	*st = rec
}

// draftEndpoints draws the round's endpoint rows: per country (the
// selector's sorted order) a permutation of its verified AS groups, per
// group a permutation of its eligible atlas rows, taking responsive rows
// until the per-country quota — the exact draw sequence of
// eyeball.SampleEndpointsInto (pinned by the draw-equivalence test),
// under the campaign's availability coins. Each drafted endpoint's group
// population weight lands in scr.epWeight, position for position.
func (c *campaign) draftEndpoints(scr *roundScratch, round, perCountry int) []int32 {
	sel, fleet := c.w.Selector, c.w.Atlas
	g := c.g.SplitN("endpoints", round)
	eps, weights := scr.eps[:0], scr.epWeight[:0]
	for _, cc := range sel.Countries() {
		asns := sel.ASNsIn(cc)
		took := 0
		scr.asPerm = g.PermInto(scr.asPerm, len(asns))
		for _, ai := range scr.asPerm {
			rows := fleet.EligibleIn(asns[ai], cc)
			weight := float32(sel.PopulationWeight(asns[ai], cc))
			scr.probePerm = g.PermInto(scr.probePerm, len(rows))
			for _, pi := range scr.probePerm {
				row := rows[pi]
				if c.responsiveAt(fleet.ID(row), round) {
					eps = append(eps, row)
					weights = append(weights, weight)
					took++
					if took == perCountry {
						break
					}
				}
			}
			if took == perCountry {
				break
			}
		}
	}
	scr.epWeight = weights
	return eps
}

// responsiveAt and windowUpAt are the campaign's availability coins,
// selecting the historical rng.Rand family or the fast value-type
// family per Config.FastAvailability (the two draw different, equally
// deterministic sequences; see the Config field).
func (c *campaign) responsiveAt(id atlas.ProbeID, round int) bool {
	if c.cfg.FastAvailability {
		return c.w.Atlas.ResponsiveFast(id, round)
	}
	return c.w.Atlas.Responsive(id, round)
}

func (c *campaign) windowUpAt(id atlas.ProbeID, round int) bool {
	if c.cfg.FastAvailability {
		return c.w.Atlas.WindowUpFast(id, round)
	}
	return c.w.Atlas.WindowUp(id, round)
}

// feasibleDirect applies the Section-2.4 speed-of-light filter by direct
// arithmetic over the precomputed flat propagation-delay matrix: the
// executable specification markFeasible is tested against.
func (c *campaign) feasibleDirect(srcCity, relayCity, dstCity int, directRTT time.Duration) bool {
	ideal := 2 * (c.prop[srcCity*c.nc+relayCity] + c.prop[relayCity*c.nc+dstCity])
	return ideal <= directRTT
}

// scratch is per-worker reusable state: medians prices millions of
// trains per campaign, so none of its buffers may be reallocated per
// batch.
type scratch struct {
	id      int32 // this worker's index in roundScratch.workers
	train   []latency.PingSample
	vals    []float64
	pairs   []latency.LinePair   // the batch medians resolves
	handles []latency.PairHandle // medians' resolved batch
	improve []ImproveEntry       // the round's improving entries of the pairs this worker stitched
	pings   int64                // pings sent by this worker since the last flush
}

// flushPings returns the ping count every worker accumulated since the
// last flush and zeroes it. The hot loops count into their scratch —
// one plain add per train instead of one atomic RMW — and the round
// body flushes between passes, when no worker runs.
func (c *campaign) flushPings(scr *roundScratch) int64 {
	var sum int64
	for i := range scr.workers {
		sum += scr.workers[i].pings
		scr.workers[i].pings = 0
	}
	return sum
}

// medians prices the round's ping train for every pair: it resolves
// pairs in one ResolveBatch, prices each handle's train on the slot
// schedule sched, and writes each train's median in milliseconds to
// out (0 when fewer than MinValidPings replies arrived). It counts
// every ping sent in s.pings.
func (c *campaign) medians(view latency.View, s *scratch, pairs []latency.LinePair, round int, sched *latency.Schedule, out []float32) error {
	n := c.cfg.PingsPerPair
	s.train = grown(s.train, n)
	s.vals = grown(s.vals, n)
	s.handles = grown(s.handles, len(pairs))
	train, handles := s.train, s.handles
	if err := view.ResolveBatch(pairs, handles); err != nil {
		return err
	}
	for j := range handles {
		view.PingTrainSchedHandle(&handles[j], round, sched, train)
		vals := s.vals[:0]
		for _, p := range train {
			if p.OK {
				vals = append(vals, float64(p.RTT)/float64(time.Millisecond))
			}
		}
		out[j] = 0
		if len(vals) >= c.cfg.MinValidPings {
			out[j] = float32(Median(vals))
		}
	}
	s.pings += int64(len(pairs) * n)
	return nil
}

// schedule returns the slot schedule of a round starting at start,
// tabling it on the first round that starts at its UTC time of day.
func (c *campaign) schedule(start time.Time) *latency.Schedule {
	u := start.UTC()
	tod := u.Sub(u.Truncate(24 * time.Hour))
	sched, ok := c.schedules[tod]
	if !ok {
		sched = c.w.Engine.Schedule(start, c.cfg.PingInterval, c.cfg.PingsPerPair)
		c.schedules[tod] = sched
	}
	return sched
}

// legChunk is how many leg jobs a worker gathers per batch resolve —
// sized to keep several independent cache misses in flight (see
// latency.ResolveBatch) while staying far below a round's job count, so
// the work-stealing dispatch stays balanced.
const legChunk = 16

// Median returns the exact median of vals, sorting vals in place; it is
// 0 for no values. Ping trains are tiny (6 by default), where insertion
// sort beats sort.Float64s; the generic sort takes longer inputs.
func Median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	if len(vals) <= 16 {
		for i := 1; i < len(vals); i++ {
			for j := i; j > 0 && vals[j] < vals[j-1]; j-- {
				vals[j], vals[j-1] = vals[j-1], vals[j]
			}
		}
	} else {
		sort.Float64s(vals)
	}
	mid := len(vals) / 2
	if len(vals)%2 == 1 {
		return vals[mid]
	}
	return (vals[mid-1] + vals[mid]) / 2
}

// parallel runs fn over [0, n) on par.For with the campaign's per-round
// worker count, each worker carrying its own scratch (retained across
// rounds in the round arena), and returns the first error.
func (c *campaign) parallel(scr *roundScratch, n int, fn func(s *scratch, i int) error) error {
	workers := max(min(c.workers, n), 1)
	if cap(scr.workers) < workers {
		scr.workers = make([]scratch, workers)
	}
	scr.workers = scr.workers[:cap(scr.workers)]
	for w := range scr.workers {
		scr.workers[w].id = int32(w)
	}
	return par.For(n, workers, func(w, i int) error { return fn(&scr.workers[w], i) })
}
