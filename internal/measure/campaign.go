// Package measure executes the paper's measurement campaign (Section
// 2.5) over a synthetic world: every 12 hours it samples endpoints at
// eyeballs, measures direct paths pairwise, selects feasible relays per
// pair, measures endpoint-relay legs, and stitches single-relay overlay
// paths — all with 6 pings per pair per 30-minute window and
// median-of-at-least-3 validity, under the Atlas credit budget.
//
// The campaign is a streaming producer: RunStream pushes each
// Observation into a Sink the moment its round is stitched, so peak
// memory is bounded by one round regardless of campaign length. Run is
// the batch wrapper that collects the stream into a Results.
//
// The round loop pays for pair and relay structure once per campaign,
// not once per round: the feasibility filter runs against a per-city-pair
// ranking memo (feasmemo.go), and every per-round buffer lives in a
// reused scratch arena with capacity-retaining resets, so steady-state
// rounds stay off the allocator.
//
// # Executor stages
//
// Rounds are independent snapshots 12 hours apart, and every stochastic
// draw is keyed by (seed, round, slot) — never by call order — so rounds
// may execute out of order as long as they are emitted in order. The
// executor exploits that in three stages:
//
//   - execute: a round runs all its measurement phases and stitches its
//     observations into a per-slot buffer. Each in-flight round owns one
//     roundSlot — a full scratch arena, improve arena, and engine view —
//     drawn from a fixed set of Config.RoundPipeline slots, so concurrent
//     rounds never share mutable state.
//   - settle: the round's Atlas credits are only *reserved* during
//     execution (atlas.Reserve); the emitter commits reservations in
//     round order (atlas.Ledger.Settle), recreating the exact
//     day-sequential spend sequence of a sequential campaign, so budget
//     exhaustion aborts at the identical round.
//   - emit: completed rounds are released to the Sink strictly in round
//     order. Workers hand their slot to the emitter and block until it
//     has been flushed, which bounds buffered output at RoundPipeline
//     rounds — a slow Sink throttles execution instead of growing a
//     reorder buffer.
//
// With RoundPipeline <= 1 (the default) the executor degenerates to the
// classic sequential loop over a single slot; the emitted stream is
// bit-identical for every pipeline depth.
package measure

import (
	"fmt"
	"math/bits"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"shortcuts/internal/atlas"
	"shortcuts/internal/geo"
	"shortcuts/internal/latency"
	"shortcuts/internal/relays"
	"shortcuts/internal/rng"
	"shortcuts/internal/scenario"
	"shortcuts/internal/sim"
	"shortcuts/internal/topology"
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
// bit-for-bit identical streams for any Concurrency, any engine shard
// count, and any RoundPipeline depth: every stochastic draw derives
// from (seed, path identity, round, slot), never from scheduling.
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
	if len(c.slots) > 1 {
		return c.runPipelined(sink)
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
// executor: compiled scenario, propagation matrix, city-pair feasibility
// memo, and the (initially empty) per-slot round scratch arenas.
func newCampaign(w *sim.World, cfg Config) (*campaign, error) {
	if cfg.Rounds <= 0 {
		return nil, fmt.Errorf("measure: Rounds must be positive")
	}
	if cfg.PingsPerPair < cfg.MinValidPings {
		return nil, fmt.Errorf("measure: PingsPerPair (%d) below MinValidPings (%d)",
			cfg.PingsPerPair, cfg.MinValidPings)
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
	// The propagation matrix and the feasibility memo derive purely from
	// the world, so every campaign over one world — and a sweep runs
	// many, concurrently — shares a single instance.
	feas := w.SharedCache("measure.feasMemo", func() any {
		nc := len(w.Topo.Cities)
		return newFeasMemo(w, nc, cityPropDelays(w))
	}).(*feasMemo)
	depth := cfg.RoundPipeline
	if depth < 1 {
		depth = 1
	}
	if depth > cfg.Rounds {
		depth = cfg.Rounds
	}
	if cfg.SelfHeal != nil {
		// Self-healing adds a feedback edge — round r's detections shape
		// round r+1's feasibility — so rounds are no longer independent.
		// Collapsing the pipeline keeps the stream identical at any
		// requested depth instead of deadlocking on the dependency.
		depth = 1
	}
	// One worker budget: an explicit Concurrency is per round, as ever;
	// the GOMAXPROCS default is divided across the concurrent rounds so
	// pipelining changes the schedule, never the total parallelism.
	workers := cfg.Concurrency
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0) / depth
		if workers < 1 {
			workers = 1
		}
	}
	g := rng.New(campaignSeed(cfg, w)).Split("campaign")
	return &campaign{
		w:        w,
		cfg:      cfg,
		g:        g,
		pairBase: g.Stream("pairs"),
		cols:     w.Columns,
		ledger:   atlas.NewLedger(cfg.DailyCreditLimit),
		nc:       feas.nc,
		prop:     feas.prop,
		feas:     feas,
		scenario: compiled,
		workers:  workers,
		slots:    make([]roundSlot, depth),
	}, nil
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
	feas   *feasMemo       // per-city-pair feasibility rankings

	// cols is the world's columnar endpoint layout: the round loop reads
	// endpoint attributes (AS, city, access delay, strings) as flat array
	// loads instead of chasing *atlas.Probe pointers.
	cols *sim.EndpointColumns
	// pairBase seeds the stratified pair sampler. Every sampling draw
	// derives from (campaign seed, "pairs", round, stratum) — never from
	// call order — so sampled plans are schedule-independent.
	pairBase rng.Stream

	// scenario is the compiled dynamic-world timeline (nil when none is
	// configured); each slot binds its round's snapshot to its own view.
	scenario *scenario.Compiled

	// workers is the per-round worker-pool size (resolved once: explicit
	// Concurrency, or the GOMAXPROCS budget split across pipeline slots).
	workers int

	// slots hold every piece of per-round mutable state, one slot per
	// concurrently executing round. Sequential campaigns use slots[0]
	// only; the pipelined executor statically assigns round r to slot
	// r % len(slots), so a slot is always reused by one goroutine with
	// the same capacity-retaining resets as the sequential loop.
	slots []roundSlot

	// executed counts rounds whose execution has finished (emitted or
	// not). The pipelined back-pressure contract — at most len(slots)
	// rounds past the emission frontier — is asserted against it.
	executed atomic.Int64
}

// roundSlot owns the mutable state of one in-flight round: the engine
// view bound to the round's scenario snapshot, the scratch arena, the
// improve arena, and (in pipelined mode) the buffered emissions and the
// round's pending ledger reservation.
type roundSlot struct {
	// view is the engine bound to the round's scenario snapshot. It is
	// rebound at the start of the round, before the worker pool spawns,
	// and only read by workers.
	view latency.View

	// scr holds every per-round buffer, reused across the slot's rounds
	// (a slot runs one round at a time; only the worker pool inside a
	// round is parallel, and workers never write these concurrently with
	// each other's slots).
	scr roundScratch

	// improving collects one pair's improving relays before the
	// exact-size arena copy; arena amortizes the escaping copies.
	improving []ImproveEntry
	arena     improveArena

	// block is the reused columnar round buffer handed to BlockSinks.
	block ObsBlock

	// obs buffers the round's stitched observations in pipelined mode,
	// flushed to the real sink by the emitter in round order. Sequential
	// rounds emit directly and leave it empty.
	obs obsBuffer
	// info and resv carry the round summary and the pending credit
	// reservation from execution to ordered emission; err carries an
	// execution failure to the emitter, which reports it at the round's
	// in-order position.
	info RoundInfo
	resv atlas.Reservation
	err  error
}

// obsBuffer is a Sink that builds the slot's in-memory round: the
// pipelined executor stitches into it during execution and the emitter
// flushes it once the round's turn comes.
type obsBuffer []Observation

func (b *obsBuffer) Emit(o Observation)  { *b = append(*b, o) }
func (b *obsBuffer) RoundDone(RoundInfo) {}

// roundScratch is the arena of per-round buffers. Every field is either
// fully overwritten each round or explicitly cleared by reset, so a
// round following a larger one can never observe stale values
// (regression-tested by the shrinking-world test).
type roundScratch struct {
	exclude     map[atlas.ProbeID]bool
	probes      []*atlas.Probe // endpoint sample buffer (draft-less fallback)
	eps         []int32        // per endpoint: row in the world's columns
	asPerm      []int          // drafting: per-country AS-group permutation
	probePerm   []int          // drafting: per-group row permutation
	roundRelays []int
	hourFrac    []float64 // per ping slot: UTC hour fraction of the round's schedule
	windowUp    []bool    // per endpoint: answers through the window
	relayUp     []bool    // per relay position: alive through the window
	relayCity   []int32   // per relay position: home city
	livePos     []int32   // relay positions not churned out this round
	plan        pairPlan  // the round's pair universe (closed-form or sampled)
	fwd, rev    []float32 // per pair: direct medians, both directions
	workers     []scratch // per-worker medianRTT scratch

	// Leg demand over (active endpoint x relay position), as a bitset
	// plus a prefix-popcount rank so measured medians pack into a
	// compact array: memory scales with legs actually measured, not with
	// the dense ne x nr grid (ruinous at sampled million-endpoint scale).
	activeOf   []int32   // per endpoint: dense active index, -1 if inactive
	activeList []int32   // active endpoint positions, ascending
	legBits    []uint64  // (active x relay) demand bitset, nrW words per row
	legCum     []int32   // per word: set bits before it (rank directory)
	legVals    []float32 // compact leg medians, one per set bit, bit order
	legJobs    []int64   // flat active*nr+pos of legs to measure, ascending

	feasBuf  []int32   // feasible relay positions, all pairs back to back
	feasOff  []int     // per-pair extents into feasBuf
	feasible [][]int32 // per-pair views into feasBuf

	// Stratified pair-sampling scratch (buildPairPlan).
	sPairs     []pairIdx32 // the sampled plan, stratum-major
	cityCount  []int32     // per city: endpoints this round
	cityStart  []int32     // per city: extent starts into byCity
	cityFill   []int32     // counting-sort cursor
	byCity     []int32     // endpoint positions grouped by city, ascending
	cityList   []int32     // occupied cities, ascending
	cityWeight []float64   // per city: summed eyeball population weight
	strataT    []int64     // one stratum's sampled ordinals, sort buffer
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

// improveArena carves exact-size ImproveEntry slices out of large shared
// blocks, replacing one heap allocation per emitted observation with one
// per thousands of entries. Emitted slices have their capacity clamped,
// so a sink appending to one copies instead of clobbering a neighbour.
// Retention note: a sink that holds any observation of a block keeps the
// whole block alive; the two usual sinks sit at the harmless extremes
// (Results retains every observation, StreamStats retains none).
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
// hundreds of millions of checks per campaign — so it must be two array
// loads, not two great-circle PropDelay computations.
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

// runRound executes one round sequentially on slot 0, settling the
// round's credits inline and emitting straight into sink — the classic
// single-slot path RunStream takes when RoundPipeline <= 1.
func (c *campaign) runRound(round int, sink Sink) (RoundInfo, error) {
	info, _, err := c.roundExec(&c.slots[0], round, sink, true)
	return info, err
}

// roundExec is the round body shared by the sequential and pipelined
// executors. It runs every measurement phase of the round on the given
// slot and stitches the round's observations into emit. With
// settleInline the round's credits are charged against the ledger
// between measurement and stitching (sequential semantics); otherwise
// the charge is only recorded as a reservation for the emitter to
// settle in round order.
func (c *campaign) roundExec(slot *roundSlot, round int, emit Sink, settleInline bool) (RoundInfo, atlas.Reservation, error) {
	start := c.cfg.Start.Add(time.Duration(round) * c.cfg.RoundInterval)
	info := RoundInfo{Round: round, Start: start}
	scr := &slot.scr

	// Every train of the round pings on the same slot schedule; the
	// wall-time decomposition the diurnal factor needs is hoisted here —
	// once per round instead of once per ping.
	scr.hourFrac = latency.SlotHourFracs(start, c.cfg.PingInterval, c.cfg.PingsPerPair, scr.hourFrac[:0])
	hourFrac := scr.hourFrac

	// Bind this round's scenario snapshot to the engine view. The
	// branch avoids wrapping a typed-nil *Snapshot in the Overlay
	// interface: a nil interface selects the bare-engine fast path for
	// quiet rounds, bit-identical to a scenario-free campaign.
	snap := c.scenario.Snapshot(round)
	if snap != nil {
		slot.view = c.w.Engine.View(snap)
	} else {
		slot.view = c.w.Engine.View(nil)
	}

	// Step 1: endpoint selection, drafted over the world's columnar
	// (country, AS) row index — draw-for-draw what the selector's probe
	// walk draws, but landing directly on column rows; everything
	// downstream reads endpoint attributes from the columns.
	perCountry := c.cfg.EndpointsPerCountry
	if perCountry < 1 {
		perCountry = 1
	}
	scr.eps = c.draftEndpoints(scr, round, perCountry)
	eps := scr.eps
	ne := len(eps)
	info.Endpoints = ne
	cols := c.cols
	if scr.exclude == nil {
		scr.exclude = make(map[atlas.ProbeID]bool, ne)
	} else {
		clear(scr.exclude)
	}
	for _, row := range eps {
		scr.exclude[atlas.ProbeID(cols.ProbeID[row])] = true
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
		windowUp[i] = c.windowUpAt(atlas.ProbeID(cols.ProbeID[eps[i]]), round)
	}
	scr.relayUp = grown(scr.relayUp, nr)
	relayUp := scr.relayUp
	for pos, ri := range roundRelays {
		r := &c.w.Catalog.Relays[ri]
		// RAR relays are probes with the same outage process; COR router
		// interfaces and PLR nodes were liveness-checked at sampling.
		relayUp[pos] = r.ProbeID == 0 || c.windowUpAt(r.ProbeID, round)
	}

	// Step 2: direct paths, both directions. The pair universe is never
	// materialized: the exhaustive plan addresses the triangular space in
	// closed form (pairAt inverts ordinal -> (i, j)); a PairBudget below
	// the universe size switches to the stratified sample, whose index
	// list is the only per-pair slice the round ever builds. fwd/rev are
	// zeroed because unresponsive pairs must read as "no valid median"
	// (0), not as last round's value.
	plan := &scr.plan
	plan.ne = ne
	plan.idx = nil
	if c.cfg.PairBudget > 0 && c.cfg.PairBudget < pairCount(ne) {
		plan.idx = c.buildPairPlan(scr, eps, round)
	}
	np := plan.count()
	info.PairsAttempted = np

	scr.fwd = grown(scr.fwd, np)
	scr.rev = grown(scr.rev, np)
	fwd, rev := scr.fwd, scr.rev
	clear(fwd)
	clear(rev)
	// Direct pairs price through the shared path-state cache in every
	// round. It is keyed by attachment pair, so a sampled round's fresh
	// endpoint pairs mostly land on entries earlier rounds admitted.
	var pings atomic.Int64
	err := c.parallel(scr, np, func(s *scratch, k int) error {
		i, j := plan.at(k)
		if !windowUp[i] || !windowUp[j] {
			s.pings += int64(2 * c.cfg.PingsPerPair) // pings sent, unanswered
			return nil
		}
		a, b := cols.Endpoint(eps[i]), cols.Endpoint(eps[j])
		mf, nf, err := c.medianRTTIn(slot.view, s, a, b, round, hourFrac)
		if err != nil {
			return err
		}
		mr, nrev, err := c.medianRTTIn(slot.view, s, b, a, round, hourFrac)
		if err != nil {
			return err
		}
		fwd[k], rev[k] = mf, mr
		s.pings += int64(nf + nrev)
		return nil
	})
	c.flushPings(scr, &pings)
	if err != nil {
		return info, atlas.Reservation{}, err
	}

	// Step 3 (feasibility half): relays worth measuring per pair, and
	// the union of endpoint-relay legs needed. Legs are tracked in a
	// flat (endpoint index x relay position) array instead of a keyed
	// map: the round's leg universe is dense and small, and index math
	// is contention-free for the worker pool below. Feasible positions
	// append into one flat backing buffer (reused across rounds) with
	// per-pair extents recorded as offsets; the extents become slices
	// only after the loop, once the buffer has stopped moving.
	scr.relayCity = grown(scr.relayCity, nr)
	relayCity := scr.relayCity
	for pos, ri := range roundRelays {
		relayCity[pos] = int32(c.w.Catalog.Relays[ri].City)
	}
	// Scenario relay churn: churned-out relays are invisible to the
	// feasibility filter this round — they neither count as feasible nor
	// get legs measured, exactly as if the liveness checks had dropped
	// them from the sample. livePos is the churn-mask intersection the
	// per-pair loop iterates, in ascending (catalog) order.
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
	livePos := scr.livePos

	// The active endpoint set: every endpoint some plan pair touches, in
	// ascending position order. Exhaustive plans activate everything (the
	// identity mapping, so leg indices match the historical dense layout
	// order); sampled plans compact to the touched subset, which is what
	// keeps the leg bitset's row count at O(sampled endpoints).
	scr.activeOf = grown(scr.activeOf, ne)
	activeOf := scr.activeOf
	scr.activeList = scr.activeList[:0]
	if plan.idx == nil {
		for i := 0; i < ne; i++ {
			activeOf[i] = int32(i)
			scr.activeList = append(scr.activeList, int32(i))
		}
	} else {
		for i := range activeOf {
			activeOf[i] = -1
		}
		for _, p := range plan.idx {
			activeOf[p.i] = 0
			activeOf[p.j] = 0
		}
		for i := 0; i < ne; i++ {
			if activeOf[i] == 0 {
				activeOf[i] = int32(len(scr.activeList))
				scr.activeList = append(scr.activeList, int32(i))
			} else {
				activeOf[i] = -1
			}
		}
	}
	activeList := scr.activeList
	nA := len(activeList)

	// Leg demand as a bitset over (active endpoint x relay position):
	// nrW words per active row, cleared up front so a bit reads true only
	// when this round set it.
	nrW := (nr + 63) / 64
	scr.legBits = grown(scr.legBits, nA*nrW)
	legBits := scr.legBits
	clear(legBits)
	markLeg := func(e int, pos int32) {
		legBits[int(activeOf[e])*nrW+int(pos)>>6] |= 1 << (uint(pos) & 63)
	}

	scr.feasOff = grown(scr.feasOff, np+1)
	feasOff := scr.feasOff
	feasBuf := scr.feasBuf[:0]
	for it := newPairIter(plan); it.next(); {
		k := it.k
		feasOff[k] = len(feasBuf)
		if fwd[k] == 0 {
			continue // unresponsive pair: no relay measurements either
		}
		aCity, bCity := int(cols.City[eps[it.i]]), int(cols.City[eps[it.j]])
		directRTT := time.Duration(float64(fwd[k]) * float64(time.Millisecond))
		if c.cfg.DisableFeasibilityFilter {
			// Ablation: every live relay is feasible.
			for _, pos := range livePos {
				feasBuf = append(feasBuf, pos)
				if relayUp[pos] {
					markLeg(it.i, pos)
					markLeg(it.j, pos)
				}
			}
			continue
		}
		if c.feas.slow {
			// Overflow fallback: the direct arithmetic predicate.
			for _, pos := range livePos {
				if c.feasibleDirect(aCity, int(relayCity[pos]), bCity, directRTT) {
					feasBuf = append(feasBuf, pos)
					if relayUp[pos] {
						markLeg(it.i, pos)
						markLeg(it.j, pos)
					}
				}
			}
			continue
		}
		// Memoized filter: one binary search per pair, then one rank
		// compare per live relay — exactly equivalent to the direct
		// arithmetic predicate (see feasMemo).
		cf := c.feas.pairFeas(aCity, bCity)
		cut := cf.feasibleRank(directRTT)
		rank := cf.rank
		for _, pos := range livePos {
			if rank[relayCity[pos]] < cut {
				feasBuf = append(feasBuf, pos)
				if relayUp[pos] {
					markLeg(it.i, pos)
					markLeg(it.j, pos)
				}
			}
		}
	}
	feasOff[np] = len(feasBuf)
	scr.feasBuf = feasBuf
	scr.feasible = grown(scr.feasible, np)
	feasible := scr.feasible // relay positions per pair
	for k := 0; k < np; k++ {
		feasible[k] = feasBuf[feasOff[k]:feasOff[k+1]:feasOff[k+1]]
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
	// Legs are priced in chunks: each worker gathers legChunk endpoint-
	// relay pairs, batch-resolves their cached path states in one
	// memory-parallel pass (latency.ResolveBatch — on a warm round this
	// is where most of the round's DRAM stalls used to serialize), then
	// prices each train off its resolved handle.
	nChunks := (len(legJobs) + legChunk - 1) / legChunk
	err = c.parallel(scr, nChunks, func(s *scratch, ck int) error {
		lo := ck * legChunk
		hi := lo + legChunk
		if hi > len(legJobs) {
			hi = len(legJobs)
		}
		if cap(s.pairs) < legChunk {
			s.pairs = make([]latency.EndpointPair, legChunk)
			s.handles = make([]latency.PairHandle, legChunk)
		}
		pairs := s.pairs[:hi-lo]
		handles := s.handles[:hi-lo]
		for k := lo; k < hi; k++ {
			idx := legJobs[k]
			e := int(activeList[int(idx/int64(nr))])
			relay := &c.w.Catalog.Relays[roundRelays[int(idx%int64(nr))]]
			pairs[k-lo] = latency.EndpointPair{A: cols.Endpoint(eps[e]), B: relay.Endpoint}
		}
		if err := slot.view.ResolveBatch(pairs, handles); err != nil {
			return err
		}
		for j := range handles {
			m, n := c.medianFromHandle(slot.view, s, &handles[j], round, hourFrac)
			legVals[lo+j] = m
			s.pings += int64(n)
		}
		return nil
	})
	c.flushPings(scr, &pings)
	if err != nil {
		return info, atlas.Reservation{}, err
	}

	// Credits: all pings of this round land on its calendar day. The
	// sequential path settles the charge here, before stitching, exactly
	// as it always has; the pipelined path records a reservation for the
	// emitter to settle at the round's in-order emission, so out-of-order
	// execution can never consume budget ahead of an earlier round.
	day := int(start.Sub(c.cfg.Start).Hours() / 24)
	resv := atlas.Reserve(day, pings.Load()*atlas.PingCost)
	if settleInline {
		if err := c.ledger.Settle(resv); err != nil {
			return info, resv, err
		}
	}
	info.PingsSent = pings.Load()

	// Step 4 (stitching): build observations in pair order, into the
	// real sink (sequential) or the slot's buffer (pipelined). Every
	// observation field is a column read; leg medians come back through
	// the bitset rank lookup. Sinks that understand columnar delivery
	// (BlockSink) receive the round as one reused column block instead
	// of per-observation Emit calls — same values, no per-observation
	// arena copy or interface dispatch. The pipelined executor buffers
	// through obsBuffer (not a BlockSink), so blocks flow on the
	// sequential path.
	blockSink, _ := emit.(BlockSink)
	if blockSink != nil {
		slot.block.reset(round)
	}
	for it := newPairIter(plan); it.next(); {
		k := it.k
		if fwd[k] == 0 {
			continue
		}
		ra, rb := eps[it.i], eps[it.j]
		o := Observation{
			Round:    round,
			SrcProbe: atlas.ProbeID(cols.ProbeID[ra]), DstProbe: atlas.ProbeID(cols.ProbeID[rb]),
			SrcAS: topology.ASN(cols.AS[ra]), DstAS: topology.ASN(cols.AS[rb]),
			SrcCC: cols.CCString(ra), DstCC: cols.CCString(rb),
			SrcCont: cols.ContString(ra), DstCont: cols.ContString(rb),
			DirectMs: fwd[k], RevDirectMs: rev[k],
		}
		for t := 0; t < relays.NumTypes; t++ {
			o.BestRelay[t] = -1
		}
		ai, aj := int(activeOf[it.i]), int(activeOf[it.j])
		slot.improving = slot.improving[:0]
		for _, pos := range feasible[k] {
			ri := roundRelays[pos]
			r := &c.w.Catalog.Relays[ri]
			o.FeasibleCount[r.Type]++
			if !relayUp[pos] {
				continue
			}
			la := scr.legVal(nrW, ai, int(pos))
			lb := scr.legVal(nrW, aj, int(pos))
			if la == 0 || lb == 0 {
				continue // a leg had too few valid replies
			}
			stitched := la + lb
			t := r.Type
			if o.BestRelay[t] == -1 || stitched < o.BestMs[t] {
				o.BestMs[t] = stitched
				o.BestRelay[t] = int32(ri)
			}
			if stitched < o.DirectMs {
				slot.improving = append(slot.improving, ImproveEntry{Relay: int32(ri), RelayedMs: stitched})
			}
		}
		if blockSink != nil {
			// Columnar delivery: the improving entries copy straight into
			// the block's flat buffer (the block is reused per slot, so no
			// arena escape bookkeeping is needed).
			slot.block.append(&o, slot.improving)
		} else {
			// Improving entries escape into the sink, so they get an
			// exact-size arena copy: the scratch absorbs the append growth,
			// the observation retains not an entry more than it owns.
			if len(slot.improving) > 0 {
				o.Improving = slot.arena.alloc(len(slot.improving))
				copy(o.Improving, slot.improving)
			}
			emit.Emit(o)
		}
		info.PairsUsable++
	}
	if blockSink != nil {
		blockSink.EmitBlock(&slot.block)
	}
	c.executed.Add(1)
	return info, resv, nil
}

// draftEndpoints draws the round's endpoint rows over the world's draft
// index: per country (the selector's sorted order) a permutation of its
// verified AS groups, per group a permutation of its eligible rows,
// taking responsive rows until the per-country quota — the exact draw
// sequence of eyeball.SampleEndpointsInto (pinned by the
// draw-equivalence test), over int32 column rows instead of
// *atlas.Probe pointers. Hand-assembled worlds without a draft index
// fall back to the selector walk and keep the classic availability
// coins.
func (c *campaign) draftEndpoints(scr *roundScratch, round, perCountry int) []int32 {
	d := c.w.Draft
	if d == nil {
		scr.probes = c.w.Selector.SampleEndpointsInto(c.g, round, perCountry, scr.probes)
		eps := grown(scr.eps, len(scr.probes))
		for i, p := range scr.probes {
			eps[i] = c.cols.Row(p.ID)
		}
		return eps
	}
	cols := c.cols
	g := c.g.SplitN("endpoints", round)
	eps := scr.eps[:0]
	for ci := 0; ci < d.NumCountries(); ci++ {
		took := 0
		scr.asPerm = g.PermInto(scr.asPerm, d.NumGroups(ci))
		for _, gi := range scr.asPerm {
			rows := d.Rows(ci, gi)
			scr.probePerm = g.PermInto(scr.probePerm, len(rows))
			for _, pi := range scr.probePerm {
				row := rows[pi]
				if c.responsiveAt(atlas.ProbeID(cols.ProbeID[row]), round) {
					eps = append(eps, row)
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
// arithmetic over the precomputed flat propagation-delay matrix. The
// round loop uses the per-city-pair ranking memo instead; this form is
// the executable specification the memo is tested (and benchmarked)
// against.
func (c *campaign) feasibleDirect(srcCity, relayCity, dstCity int, directRTT time.Duration) bool {
	ideal := 2 * (c.prop[srcCity*c.nc+relayCity] + c.prop[relayCity*c.nc+dstCity])
	return ideal <= directRTT
}

// legVal returns the measured leg median for (active endpoint ai, relay
// position pos), or 0 when that leg was not measured this round: the
// bitset word answers "measured?", and the rank directory plus an
// in-word popcount addresses the compact value array.
func (scr *roundScratch) legVal(nrW, ai, pos int) float32 {
	gw := ai*nrW + pos>>6
	word := scr.legBits[gw]
	bit := uint64(1) << (uint(pos) & 63)
	if word&bit == 0 {
		return 0
	}
	return scr.legVals[int(scr.legCum[gw])+bits.OnesCount64(word&(bit-1))]
}

// scratch is per-worker reusable state: medianRTT is called millions of
// times per campaign, so neither its train buffer nor its sample buffer
// may be reallocated per pair.
type scratch struct {
	train   []latency.PingSample
	vals    []float64
	hf      []float64              // slot schedule buffer for windowStart-based callers
	pairs   []latency.EndpointPair // leg-chunk batch resolve input
	handles []latency.PairHandle   // leg-chunk batch resolve output
	pings   int64                  // pings sent by this worker since the last flush
}

// flushPings folds every worker's locally accumulated ping count into
// the round total. The hot loops count into their scratch — one plain
// add per train instead of one atomic RMW — and the round body flushes
// after each parallel section.
func (c *campaign) flushPings(scr *roundScratch, pings *atomic.Int64) {
	for i := range scr.workers {
		pings.Add(scr.workers[i].pings)
		scr.workers[i].pings = 0
	}
}

// medianRTT sends the round's ping train from a to b as one batched
// PingTrain call and returns the median in milliseconds (0 when fewer
// than MinValidPings replies arrived) plus the number of pings sent.
func (c *campaign) medianRTT(view latency.View, s *scratch, a, b latency.Endpoint, round int, windowStart time.Time) (float32, int, error) {
	s.hf = latency.SlotHourFracs(windowStart, c.cfg.PingInterval, c.cfg.PingsPerPair, s.hf[:0])
	return c.medianRTTIn(view, s, a, b, round, s.hf)
}

// medianRTTIn is medianRTT on the round's precomputed slot schedule
// (roundScratch.hourFrac): the direct-pair path of every round.
func (c *campaign) medianRTTIn(view latency.View, s *scratch, a, b latency.Endpoint, round int, hourFrac []float64) (float32, int, error) {
	n := c.cfg.PingsPerPair
	if cap(s.train) < n {
		s.train = make([]latency.PingSample, n)
		s.vals = make([]float64, 0, n)
	}
	train := s.train[:n]
	if err := view.PingTrainSched(a, b, round, hourFrac, train); err != nil {
		return 0, 0, err
	}
	vals := s.vals[:0]
	for i := range train {
		if train[i].OK {
			vals = append(vals, float64(train[i].RTT)/float64(time.Millisecond))
		}
	}
	if len(vals) < c.cfg.MinValidPings {
		return 0, n, nil
	}
	return float32(median(vals)), n, nil
}

// legChunk is how many leg jobs a worker gathers per batch resolve —
// sized to keep several independent cache misses in flight (see
// latency.ResolveBatch) while staying far below a round's job count, so
// the work-stealing dispatch stays balanced.
const legChunk = 16

// medianFromHandle is medianRTTIn for a batch-resolved pair: the train
// is priced off the PairHandle, so no per-pair cache traffic remains.
func (c *campaign) medianFromHandle(view latency.View, s *scratch, h *latency.PairHandle, round int, hourFrac []float64) (float32, int) {
	n := c.cfg.PingsPerPair
	if cap(s.train) < n {
		s.train = make([]latency.PingSample, n)
		s.vals = make([]float64, 0, n)
	}
	train := s.train[:n]
	view.PingTrainSchedHandle(h, round, hourFrac, train)
	vals := s.vals[:0]
	for i := range train {
		if train[i].OK {
			vals = append(vals, float64(train[i].RTT)/float64(time.Millisecond))
		}
	}
	if len(vals) < c.cfg.MinValidPings {
		return 0, n
	}
	return float32(median(vals)), n
}

// median returns the exact median of vals, sorting in place. Ping trains
// are tiny (6 by default), where insertion sort beats sort.Float64s; the
// generic sort remains the fallback for unusually long trains.
func median(vals []float64) float64 {
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

// parallel runs fn over [0, n) with the campaign's per-round worker
// count, each worker carrying its own scratch (retained across rounds
// in the slot's arena), propagating the first error.
func (c *campaign) parallel(scr *roundScratch, n int, fn func(s *scratch, i int) error) error {
	workers := c.workers
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	if cap(scr.workers) < workers {
		scr.workers = make([]scratch, workers)
	}
	scr.workers = scr.workers[:cap(scr.workers)]
	if workers <= 1 {
		s := &scr.workers[0]
		for i := 0; i < n; i++ {
			if err := fn(s, i); err != nil {
				return err
			}
		}
		return nil
	}
	var (
		wg    sync.WaitGroup
		next  atomic.Int64
		errMu sync.Mutex
		first error
	)
	fail := func(err error) {
		errMu.Lock()
		if first == nil {
			first = err
			next.Store(int64(n)) // stop dispatching
		}
		errMu.Unlock()
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(s *scratch) {
			defer wg.Done()
			for {
				i := next.Add(1) - 1
				if i >= int64(n) {
					return
				}
				if err := fn(s, int(i)); err != nil {
					fail(err)
					return
				}
			}
		}(&scr.workers[w])
	}
	wg.Wait()
	return first
}
