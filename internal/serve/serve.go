// Package serve is the relay-planning service: a long-running HTTP/JSON
// server that holds one or more built worlds resident, answers
// "best relay for (src, dst) under current conditions" queries from a
// warm campaign's cached results, and exposes list/show/filter resource
// endpoints for facilities, relays and corridor plans.
//
// The serving substrate is one immutable servingState — world,
// corridor plans precomputed from the warm campaign (whose observations
// are dropped once the plans exist), and a per-corridor
// rendered-response cache — published through an atomic.Pointer. Every request loads the
// pointer exactly once and derives its whole response from that one
// state, so requests never observe a mix of two worlds. Hot swap
// (Server.Swap, POST /v1/admin/swap) builds the next state in the
// background while the old one keeps serving, then publishes it with a
// single atomic store: in-flight requests finish on the state they
// loaded, new requests see the new world, and nothing ever blocks on a
// build. The query cache lives on the state itself — keyed by
// (corridor, scenario) since a state serves exactly one scenario — so
// a swap invalidates it wholesale by construction.
package serve

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"shortcuts/internal/core"
	"shortcuts/internal/detect"
	"shortcuts/internal/measure"
	"shortcuts/internal/relays"
	"shortcuts/internal/scenario"
	"shortcuts/internal/sim"
)

// Options shape the worlds and warm campaigns the server builds. The
// world-selection knobs (SmallWorld, ScaleEndpoints, PairBudget,
// Rounds, Concurrency) are fixed for the server's lifetime, and New
// checks the tier they select by the rules of shortcuts.Config.Validate
// (core.CheckTier); Seed and Scenario are only the initial pair — POST
// /v1/admin/swap moves them.
type Options struct {
	// Seed is the initial world + campaign seed (default 1).
	Seed int64
	// Rounds is the warm campaign length per state (default 4).
	Rounds int
	// Scenario is the initial scenario preset name; "" means calm (the
	// static world — calm campaigns are bit-identical to scenario-off).
	Scenario string
	// SmallWorld selects the reduced topology (tests, CI smoke).
	SmallWorld bool
	// ScaleEndpoints, when positive, grows worlds to roughly this many
	// responsive endpoints and runs the scale-tier campaign path;
	// requires PairBudget, exclusive with SmallWorld.
	ScaleEndpoints int
	// PairBudget caps endpoint pairs measured per warm-campaign round
	// (0 = exhaustive).
	PairBudget int
	// Concurrency bounds the warm campaign's per-round worker pool
	// (0 = GOMAXPROCS-derived).
	Concurrency int
	// SelfHeal closes the healing loop in warm campaigns: confirmed
	// disruptions exclude the suspect city's relays and re-plan mid-
	// campaign. Detection itself is always on — every state watches its
	// warm campaign and serves the events on GET /v1/disruptions; this
	// knob only controls whether plans route around them.
	SelfHeal bool
	// Logf, when set, receives one-line progress messages (world built,
	// campaign done, swap published). Nil discards them.
	Logf func(format string, args ...any)
}

func (o Options) withDefaults() (Options, error) {
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Rounds <= 0 {
		o.Rounds = 4
	}
	if o.Scenario == "" {
		o.Scenario = scenario.PresetCalm
	}
	if _, err := scenario.ByName(o.Scenario); err != nil {
		return o, err
	}
	if err := core.CheckTier(o.SmallWorld, o.ScaleEndpoints, o.PairBudget); err != nil {
		return o, fmt.Errorf("serve: %w", err)
	}
	return o, nil
}

// RelayRef identifies one relay in API responses.
type RelayRef struct {
	ID          string `json:"id"`
	Type        string `json:"type"`
	CC          string `json:"cc"`
	City        string `json:"city"`
	Facility    string `json:"facility,omitempty"`
	FacilityPDB int    `json:"facility_pdb,omitempty"`
}

// Plan is the served decision for one corridor: what the warm campaign
// measured between the two countries and which relay improves it most.
type Plan struct {
	Src           string    `json:"src"` // corridor-normalized: Src <= Dst
	Dst           string    `json:"dst"`
	Observations  int       `json:"observations"`
	Improved      int       `json:"improved"`                  // observations some relay improved
	DirectMs      float64   `json:"direct_ms"`                 // median direct RTT
	BestRelayedMs float64   `json:"best_relayed_ms,omitempty"` // via Relay, its best observation
	ImprovementMs float64   `json:"improvement_ms,omitempty"`
	Relay         *RelayRef `json:"relay,omitempty"` // nil: no relay ever improved
}

// servingState is one immutable serving generation: everything a
// request needs, derived from one (seed, scenario) world + warm
// campaign. Fields are never mutated after build; bestCache is
// internally synchronized.
type servingState struct {
	seed     int64
	scenName string
	world    *sim.World

	// disruptions are the warm campaign's detected events (confirmation
	// order); active counts those still active when the campaign ended,
	// which marks the state degraded: served while a disruption persists.
	disruptions  []detect.Event
	active       int
	selfHeal     bool
	relaysHealed int // total relay-round exclusions the healer applied

	plans   []Plan                   // sorted by corridor (Src, Dst)
	planIdx map[measure.Corridor]int // corridor -> index into plans
	resolve map[string]string        // lowercased city name / country code -> CC
	facPDB  map[int]int              // facility PDB id -> index into world.Registry.Facilities()

	builtAt     time.Time
	buildDur    time.Duration
	campaignDur time.Duration
	rounds      int

	// bestCache memoizes rendered /v1/relays/best bodies per corridor.
	// The state serves exactly one scenario, so the effective cache key
	// is (corridor, scenario); publishing a new state drops the whole
	// cache at once — the swap-time invalidation.
	bestCache sync.Map // measure.Corridor -> []byte
}

// Server is the relay-planning service. Zero value is not usable; call
// New, then Warm (or let the HTTP layer answer 503 until it runs).
type Server struct {
	opts     Options
	state    atomic.Pointer[servingState]
	building atomic.Bool // serializes builds
}

// New validates opts and returns a server with no serving state yet:
// Handler answers /healthz immediately and everything else 503 until
// Warm publishes the first state.
func New(opts Options) (*Server, error) {
	o, err := opts.withDefaults()
	if err != nil {
		return nil, err
	}
	return &Server{opts: o}, nil
}

func (s *Server) logf(format string, args ...any) {
	if s.opts.Logf != nil {
		s.opts.Logf(format, args...)
	}
}

// Warm builds the initial world + warm campaign and publishes it: the
// first Swap, onto Options.Seed and Options.Scenario. Call it once,
// typically in a goroutine beside ListenAndServe, and poll /readyz.
func (s *Server) Warm() error {
	_, err := s.Swap(s.opts.Seed, s.opts.Scenario)
	return err
}

// Swap builds a fresh (seed, scenario) state in the background of the
// currently served one and atomically publishes it. Requests in flight
// keep the state they loaded; no request ever blocks on the build. Only
// one build runs at a time — a concurrent Swap returns ErrSwapInFlight.
func (s *Server) Swap(seed int64, scenName string) (*SwapInfo, error) {
	sc, err := scenario.ByName(scenName)
	if err != nil {
		return nil, err
	}
	if !s.building.CompareAndSwap(false, true) {
		return nil, ErrSwapInFlight
	}
	defer s.building.Store(false)
	st, err := s.buildState(seed, sc)
	if err != nil {
		return nil, err
	}
	s.state.Store(st)
	s.logf("serving seed %d scenario %s: %d corridors (world %v, campaign %v)",
		st.seed, st.scenName, len(st.plans), st.buildDur.Round(time.Millisecond),
		st.campaignDur.Round(time.Millisecond))
	return &SwapInfo{
		Seed:       st.seed,
		Scenario:   st.scenName,
		Corridors:  len(st.plans),
		WorldMs:    st.buildDur.Milliseconds(),
		CampaignMs: st.campaignDur.Milliseconds(),
	}, nil
}

// ErrSwapInFlight reports a build already running; the caller should
// retry after it publishes.
var ErrSwapInFlight = fmt.Errorf("serve: swap already in progress")

// SwapInfo summarises a published swap.
type SwapInfo struct {
	Seed       int64  `json:"seed"`
	Scenario   string `json:"scenario"`
	Corridors  int    `json:"corridors"`
	WorldMs    int64  `json:"world_build_ms"`
	CampaignMs int64  `json:"campaign_ms"`
}

// buildState constructs one serving generation: world, warm campaign,
// plans, and the lookup tables the handlers read. The campaign's
// observations and their corridor catalog live only until the plans are
// built; the state keeps the plans, not the campaign.
// Equal (seed, scenario) under equal Options build bit-identical states
// — the campaign substrate's determinism guarantee — so a swapped-in
// state serves byte-identical responses to a fresh server's.
func (s *Server) buildState(seed int64, sc *scenario.Scenario) (*servingState, error) {
	wp, err := core.WorldParams(seed, s.opts.SmallWorld, s.opts.ScaleEndpoints)
	if err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	t0 := time.Now()
	w, err := sim.Build(wp)
	if err != nil {
		return nil, fmt.Errorf("serve: building world seed %d: %w", seed, err)
	}
	buildDur := time.Since(t0)
	s.logf("world seed %d built in %v; running %d-round warm campaign (scenario %s)",
		seed, buildDur.Round(time.Millisecond), s.opts.Rounds, sc.Name)

	mc := core.CampaignConfig(s.opts.Rounds, s.opts.ScaleEndpoints)
	mc.Concurrency = s.opts.Concurrency
	mc.PairBudget = s.opts.PairBudget
	mc.CampaignSeed = seed
	mc.Scenario = sc
	// Every state watches its warm campaign with an online disruption
	// detector; Options.SelfHeal additionally lets the detector exclude
	// suspect relays and re-plan mid-campaign. In monitor mode the
	// exclusion mask stays nil, so the observation stream is untouched.
	det := detect.New(w, detect.Options{SelfHeal: s.opts.SelfHeal})
	mc.SelfHeal = det
	t1 := time.Now()
	res := measure.NewResults(mc, w)
	if err := measure.RunStream(w, mc, res); err != nil {
		return nil, fmt.Errorf("serve: warm campaign seed %d: %w", seed, err)
	}
	campaignDur := time.Since(t1)

	st := &servingState{
		seed:        seed,
		scenName:    sc.Name,
		world:       w,
		disruptions: det.Events(),
		selfHeal:    s.opts.SelfHeal,
		builtAt:     time.Now(),
		buildDur:    buildDur,
		campaignDur: campaignDur,
		rounds:      s.opts.Rounds,
	}
	for _, ev := range st.disruptions {
		if ev.Active() {
			st.active++
		}
	}
	for _, ps := range det.PlanHistory() {
		st.relaysHealed += ps.ExcludedRelays
	}
	if n := len(st.disruptions); n > 0 {
		s.logf("warm campaign seed %d detected %d disruption(s), degraded=%v healed=%d relay-rounds",
			seed, n, st.active > 0, st.relaysHealed)
	}
	st.buildPlans(measure.NewResultCatalog(res))
	st.buildLookups()
	return st, nil
}

// buildPlans aggregates the warm campaign per corridor: observation and
// improvement counts, the median direct RTT, and the single relay with
// the largest observed improvement (ties break toward the earlier
// observation, which is deterministic emission order).
func (st *servingState) buildPlans(cat *measure.ResultCatalog) {
	corridors := cat.Corridors()
	st.plans = make([]Plan, 0, len(corridors))
	st.planIdx = make(map[measure.Corridor]int, len(corridors))
	directs := make([]float64, 0, 64)
	for _, key := range corridors {
		idxs := cat.Indices(key.A, key.B)
		p := Plan{Src: key.A, Dst: key.B, Observations: len(idxs)}
		directs = directs[:0]
		bestGain := 0.0
		bestRelay := int32(-1)
		bestRelayed := 0.0
		for _, i := range idxs {
			o := cat.Observation(i)
			directs = append(directs, float64(o.DirectMs))
			improved := false
			for t := 0; t < relays.NumTypes; t++ {
				if o.BestRelay[t] < 0 {
					continue
				}
				gain := float64(o.DirectMs) - float64(o.BestMs[t])
				if gain <= 0 {
					continue
				}
				improved = true
				if gain > bestGain {
					bestGain = gain
					bestRelay = o.BestRelay[t]
					bestRelayed = float64(o.BestMs[t])
				}
			}
			if improved {
				p.Improved++
			}
		}
		p.DirectMs = measure.Median(directs)
		if bestRelay >= 0 {
			ref := st.relayRef(int(bestRelay))
			p.BestRelayedMs = bestRelayed
			p.ImprovementMs = bestGain
			p.Relay = &ref
		}
		st.planIdx[key] = len(st.plans)
		st.plans = append(st.plans, p)
	}
}

// relayRef renders catalog relay i.
func (st *servingState) relayRef(i int) RelayRef {
	r := st.world.Catalog.Relay(i)
	return RelayRef{
		ID:          r.ID(),
		Type:        r.Type.String(),
		CC:          r.CC,
		City:        st.world.Topo.Cities[r.City].Name,
		Facility:    r.FacilityName,
		FacilityPDB: r.FacilityPDB,
	}
}

// buildLookups precomputes the request-path tables: location resolution
// (city name or country code -> CC) and the facility index.
func (st *servingState) buildLookups() {
	st.resolve = make(map[string]string, 2*len(st.world.Topo.Cities))
	for i := range st.world.Topo.Cities {
		c := &st.world.Topo.Cities[i]
		name := strings.ToLower(c.Name)
		if _, ok := st.resolve[name]; !ok {
			st.resolve[name] = c.CC
		}
		st.resolve[strings.ToLower(c.CC)] = c.CC
	}
	facs := st.world.Registry.Facilities()
	st.facPDB = make(map[int]int, len(facs))
	for i, f := range facs {
		st.facPDB[f.PDBID] = i
	}
}
