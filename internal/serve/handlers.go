package serve

import (
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"shortcuts/internal/measure"
	"shortcuts/internal/relays"
	"shortcuts/internal/scenario"
	"shortcuts/internal/topology"
)

// route is one entry of the service's surface: the method and path the
// mux registers, the query string GET / lists after it, and its handler.
// Until a state publishes, a route answers 503 unless it is cold, in
// which case its handler runs with a nil state.
type route struct {
	pattern, query string
	cold           bool
	handle         func(w http.ResponseWriter, r *http.Request, st *servingState)
}

// routes is the service's surface, in the order GET / lists it.
func (s *Server) routes() []route {
	return []route{
		{"GET /healthz", "", true, handleHealthz},
		{"GET /readyz", "", true, handleReadyz},
		{"GET /v1/relays/best", "?src=<city|cc>&dst=<city|cc>", false, handleBest},
		{"GET /v1/relays", "?type=&cc=&facility=&limit=&offset=", false, handleRelays},
		{"GET /v1/relays/{id}", "", false, handleRelayShow},
		{"GET /v1/facilities", "?cc=&city=&name=&cloud=&top10=&limit=&offset=", false, handleFacilities},
		{"GET /v1/facilities/{id}", "", false, handleFacilityShow},
		{"GET /v1/plans", "?src=&dst=&improved=&limit=&offset=", false, handlePlans},
		{"GET /v1/disruptions", "?active=", false, handleDisruptions},
		{"POST /v1/admin/swap", "?seed=N&scenario=<name>", false, s.handleSwap},
	}
}

// Handler returns the service's HTTP handler. Every request loads the
// serving state exactly once and answers wholly from it, so responses
// are never a mix of two worlds even while a swap publishes.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	var endpoints []string
	for _, rt := range s.routes() {
		endpoints = append(endpoints, rt.pattern+rt.query)
		mux.HandleFunc(rt.pattern, func(w http.ResponseWriter, r *http.Request) {
			st := s.st()
			if st == nil && !rt.cold {
				writeErr(w, http.StatusServiceUnavailable, "no serving state yet; poll /readyz")
				return
			}
			rt.handle(w, r, st)
		})
	}
	index := map[string]any{"service": "relayserve", "endpoints": endpoints}
	mux.HandleFunc("GET /{$}", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, http.StatusOK, index)
	})
	return mux
}

// st returns the current serving state (nil before Warm publishes).
func (s *Server) st() *servingState { return s.state.Load() }

func writeJSON(w http.ResponseWriter, code int, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		// Structs marshalled here contain no unmarshalable types; this
		// is unreachable short of a programming error.
		http.Error(w, `{"error":"encoding response"}`, http.StatusInternalServerError)
		return
	}
	writeBody(w, code, append(b, '\n'))
}

func writeBody(w http.ResponseWriter, code int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	// A failed write means the client went away; there is no one left
	// to report it to.
	_, _ = w.Write(body)
}

func writeErr(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// query reads one request's query parameters against a serving state.
// The first parameter that fails to parse or resolve sets the one error
// the request answers; later failures are dropped.
type query struct {
	st   *servingState
	v    url.Values
	code int // status of the first failure; 0 while none
	msg  string
}

func (st *servingState) query(r *http.Request) *query { return &query{st: st, v: r.URL.Query()} }

func (q *query) fail(code int, format string, args ...any) {
	if q.code == 0 {
		q.code, q.msg = code, fmt.Sprintf(format, args...)
	}
}

// answered writes the first failure, if any, and reports whether it did.
func (q *query) answered(w http.ResponseWriter) bool {
	if q.code != 0 {
		writeErr(w, q.code, "%s", q.msg)
	}
	return q.code != 0
}

// boolean reads an optional boolean filter; set reports whether it was
// given and parsed.
func (q *query) boolean(key string) (val, set bool) {
	v := q.v.Get(key)
	if v == "" {
		return false, false
	}
	val, err := strconv.ParseBool(v)
	if err != nil {
		q.fail(http.StatusBadRequest, "bad %s filter: %v", key, err)
	}
	return val, err == nil
}

// integer reads an optional integer, def when absent. A value that does
// not parse, or parses below floor, fails with bad, a format of the
// value.
func (q *query) integer(key string, def, floor int64, bad string) int64 {
	v := q.v.Get(key)
	if v == "" {
		return def
	}
	n, err := strconv.ParseInt(v, 10, 64)
	if err != nil || n < floor {
		q.fail(http.StatusBadRequest, bad, v)
	}
	return n
}

// loc reads an optional location, a city name or an ISO country code
// (trimmed, case-insensitive), as its country code; "" when absent.
func (q *query) loc(key string) string {
	v := q.v.Get(key)
	if v == "" {
		return ""
	}
	cc, ok := q.st.resolve[strings.ToLower(strings.TrimSpace(v))]
	if !ok {
		q.fail(http.StatusNotFound, "unknown location %q", v)
	}
	return cc
}

// page reads limit and offset, limit def when absent.
func (q *query) page(def int64) pager {
	return pager{
		limit:  q.integer("limit", def, 0, "limit must be a non-negative integer, got %q"),
		offset: q.integer("offset", 0, 0, "offset must be a non-negative integer, got %q"),
	}
}

// pager keeps the offset/limit window of a scan (limit 0 keeps every
// match from offset on) while counting every match.
type pager struct{ limit, offset, count int64 }

// take counts one match and reports whether it falls in the window.
// It tests count-offset against limit: offset+limit overflows when a
// client asks for a limit near the int64 maximum.
func (p *pager) take() bool {
	in := p.count >= p.offset && (p.limit == 0 || p.count-p.offset < p.limit)
	p.count++
	return in
}

// filled reports whether the window holds its limit of matches.
func (p *pager) filled() bool { return p.limit != 0 && p.count-p.offset >= p.limit }

func handleHealthz(w http.ResponseWriter, _ *http.Request, _ *servingState) {
	writeJSON(w, http.StatusOK, map[string]bool{"ok": true})
}

// readyResponse is the /readyz body once a state serves. Degraded means
// the warm campaign ended with a disruption still active: the service
// keeps answering (ready stays true, the status stays 200) but flags
// that its plans were measured under duress, and — with self-healing on
// — that they already route around the suspect city.
type readyResponse struct {
	Ready             bool      `json:"ready"`
	Degraded          bool      `json:"degraded,omitempty"`
	ActiveDisruptions int       `json:"active_disruptions,omitempty"`
	SelfHeal          bool      `json:"self_heal,omitempty"`
	RelaysHealed      int       `json:"relays_healed,omitempty"`
	Seed              int64     `json:"seed"`
	Scenario          string    `json:"scenario"`
	Corridors         int       `json:"corridors"`
	Rounds            int       `json:"rounds"`
	BuiltAt           time.Time `json:"built_at"`
}

func handleReadyz(w http.ResponseWriter, _ *http.Request, st *servingState) {
	if st == nil {
		writeJSON(w, http.StatusServiceUnavailable, map[string]bool{"ready": false})
		return
	}
	writeJSON(w, http.StatusOK, readyResponse{
		Ready:             true,
		Degraded:          st.active > 0,
		ActiveDisruptions: st.active,
		SelfHeal:          st.selfHeal,
		RelaysHealed:      st.relaysHealed,
		Seed:              st.seed,
		Scenario:          st.scenName,
		Corridors:         len(st.plans),
		Rounds:            st.rounds,
		BuiltAt:           st.builtAt,
	})
}

// BestResponse answers /v1/relays/best: the corridor's plan under the
// serving state's (seed, scenario).
type BestResponse struct {
	Seed     int64  `json:"seed"`
	Scenario string `json:"scenario"`
	Rounds   int    `json:"rounds"`
	Plan     Plan   `json:"plan"`
}

func handleBest(w http.ResponseWriter, r *http.Request, st *servingState) {
	q := st.query(r)
	if q.v.Get("src") == "" || q.v.Get("dst") == "" {
		q.fail(http.StatusBadRequest, "src and dst query parameters are required (city name or country code)")
	}
	ccS, ccD := q.loc("src"), q.loc("dst")
	if ccS != "" && ccS == ccD {
		q.fail(http.StatusBadRequest, "src and dst resolve to the same country (%s); a corridor needs two", ccS)
	}
	if q.answered(w) {
		return
	}
	key := measure.CorridorOf(ccS, ccD)
	if b, ok := st.bestCache.Load(key); ok {
		writeBody(w, http.StatusOK, b.([]byte))
		return
	}
	idx, ok := st.planIdx[key]
	if !ok {
		writeErr(w, http.StatusNotFound,
			"no observations for corridor %s-%s in the warm campaign (%d corridors measured)",
			key.A, key.B, len(st.plans))
		return
	}
	resp := BestResponse{Seed: st.seed, Scenario: st.scenName, Rounds: st.rounds, Plan: st.plans[idx]}
	b, err := json.Marshal(resp)
	if err != nil {
		writeErr(w, http.StatusInternalServerError, "encoding response")
		return
	}
	b = append(b, '\n')
	// Cache the rendered bytes: the plan is immutable for this state's
	// lifetime, so cached and fresh responses are byte-identical.
	st.bestCache.Store(key, b)
	writeBody(w, http.StatusOK, b)
}

// FacilityInfo is one colocation facility in API responses.
type FacilityInfo struct {
	ID         int      `json:"id"` // synthetic PeeringDB identifier
	Name       string   `json:"name"`
	City       string   `json:"city"`
	CC         string   `json:"cc"`
	Continent  string   `json:"continent"`
	ListedNets int      `json:"listed_nets"`
	Members    int      `json:"members"`
	IXPs       []string `json:"ixps"`
	Cloud      bool     `json:"cloud"`
	PDBTop10   bool     `json:"pdb_top10"`
	CORRelays  int      `json:"cor_relays"` // verified colo relays hosted here
}

func (st *servingState) facilityInfo(f *topology.Facility) FacilityInfo {
	city := &st.world.Topo.Cities[f.City]
	ixps := f.IXPs
	if ixps == nil {
		ixps = []string{}
	}
	return FacilityInfo{
		ID:         f.PDBID,
		Name:       f.Name,
		City:       city.Name,
		CC:         city.CC,
		Continent:  city.Continent,
		ListedNets: f.ListedNets,
		Members:    len(f.Members),
		IXPs:       ixps,
		Cloud:      f.Cloud,
		PDBTop10:   f.PDBTop10,
		CORRelays:  len(st.world.Catalog.AtFacility(f.PDBID)),
	}
}

func handleFacilities(w http.ResponseWriter, r *http.Request, st *servingState) {
	q := st.query(r)
	cc := strings.ToUpper(q.v.Get("cc"))
	city := strings.ToLower(q.v.Get("city"))
	name := strings.ToLower(q.v.Get("name"))
	cloud, cloudSet := q.boolean("cloud")
	top10, top10Set := q.boolean("top10")
	pg := q.page(0)
	if q.answered(w) {
		return
	}
	out := []FacilityInfo{}
	for _, f := range st.world.Registry.Facilities() {
		c := &st.world.Topo.Cities[f.City]
		if cc != "" && c.CC != cc {
			continue
		}
		if city != "" && strings.ToLower(c.Name) != city {
			continue
		}
		if name != "" && !strings.Contains(strings.ToLower(f.Name), name) {
			continue
		}
		if cloudSet && f.Cloud != cloud {
			continue
		}
		if top10Set && f.PDBTop10 != top10 {
			continue
		}
		if pg.take() {
			out = append(out, st.facilityInfo(f))
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{"count": pg.count, "facilities": out})
}

func handleFacilityShow(w http.ResponseWriter, r *http.Request, st *servingState) {
	id, err := strconv.Atoi(r.PathValue("id"))
	if err != nil {
		writeErr(w, http.StatusBadRequest, "facility id must be the numeric PeeringDB id, got %q", r.PathValue("id"))
		return
	}
	i, ok := st.facPDB[id]
	if !ok {
		writeErr(w, http.StatusNotFound, "no facility with id %d", id)
		return
	}
	writeJSON(w, http.StatusOK, st.facilityInfo(st.world.Registry.Facilities()[i]))
}

// RelayInfo is one catalog relay in API responses.
type RelayInfo struct {
	Index int `json:"index"` // stable catalog position
	RelayRef
}

// relayType matches a type filter case-insensitively against the type
// labels; an unknown label yields NumTypes, which no relay has.
func relayType(label string) relays.Type {
	t := relays.Type(0)
	for t < relays.NumTypes && !strings.EqualFold(label, t.String()) {
		t++
	}
	return t
}

func handleRelays(w http.ResponseWriter, r *http.Request, st *servingState) {
	q := st.query(r)
	label := q.v.Get("type")
	typ := relayType(label)
	cc := strings.ToUpper(q.v.Get("cc"))
	facility := q.integer("facility", 0, math.MinInt64, "facility filter must be the numeric PeeringDB id, got %q")
	// Relay catalogs reach millions of entries at the scale tier, so the
	// list defaults to a 100-entry page; count always reports the full
	// match cardinality.
	pg := q.page(100)
	if q.answered(w) {
		return
	}
	// A type filter walks only its type's span. Without a cc or facility
	// filter every relay of the type matches, so the count is the
	// catalog's and the walk ends with the page.
	cat := st.world.Catalog
	lo, hi, total := 0, cat.Len(), cat.Len()
	if label != "" {
		lo, hi = cat.Span(typ)
		total = cat.Count(typ)
	}
	counted := cc == "" && facility == 0
	out := []RelayInfo{}
	for i := lo; i < hi && !(counted && pg.filled()); i++ {
		if label != "" && cat.Type(i) != typ {
			continue
		}
		if !counted {
			rel := cat.Relay(i)
			if cc != "" && rel.CC != cc || facility != 0 && int64(rel.FacilityPDB) != facility {
				continue
			}
		}
		if pg.take() {
			out = append(out, RelayInfo{Index: i, RelayRef: st.relayRef(i)})
		}
	}
	if counted {
		pg.count = int64(total)
	}
	writeJSON(w, http.StatusOK, map[string]any{"count": pg.count, "relays": out})
}

func handleRelayShow(w http.ResponseWriter, r *http.Request, st *servingState) {
	id := r.PathValue("id")
	i, ok := st.world.Catalog.Lookup(id)
	if !ok {
		writeErr(w, http.StatusNotFound, "no relay with id %q", id)
		return
	}
	writeJSON(w, http.StatusOK, RelayInfo{Index: i, RelayRef: st.relayRef(i)})
}

func handlePlans(w http.ResponseWriter, r *http.Request, st *servingState) {
	q := st.query(r)
	ccS, ccD := q.loc("src"), q.loc("dst")
	improved, improvedSet := q.boolean("improved")
	pg := q.page(0)
	if q.answered(w) {
		return
	}
	matches := func(p *Plan, cc string) bool { return cc == "" || p.Src == cc || p.Dst == cc }
	out := []Plan{}
	for i := range st.plans {
		p := &st.plans[i]
		if !matches(p, ccS) || !matches(p, ccD) {
			continue
		}
		if improvedSet && (p.Relay != nil) != improved {
			continue
		}
		if pg.take() {
			out = append(out, *p)
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"seed":     st.seed,
		"scenario": st.scenName,
		"count":    pg.count,
		"plans":    out,
	})
}

// DisruptionInfo is one detected disruption event in API responses.
type DisruptionInfo struct {
	ID             int      `json:"id"`
	Kind           string   `json:"kind"`
	Active         bool     `json:"active"`
	OnsetRound     int      `json:"onset_round"`
	ConfirmedRound int      `json:"confirmed_round"`
	EndRound       int      `json:"end_round"` // -1 while active
	City           string   `json:"city,omitempty"`
	CC             string   `json:"cc,omitempty"`
	Continent      string   `json:"continent,omitempty"`
	Facility       string   `json:"facility,omitempty"`
	FacilityPDB    int      `json:"facility_pdb,omitempty"`
	Corridors      []string `json:"corridors"` // "A-B" country pairs
	Severity       float64  `json:"severity,omitempty"`
	DarkCorridors  int      `json:"dark_corridors,omitempty"`
}

func handleDisruptions(w http.ResponseWriter, r *http.Request, st *servingState) {
	q := st.query(r)
	activeOnly, activeSet := q.boolean("active")
	if q.answered(w) {
		return
	}
	out := []DisruptionInfo{}
	for i := range st.disruptions {
		ev := &st.disruptions[i]
		if activeSet && ev.Active() != activeOnly {
			continue
		}
		corridors := make([]string, len(ev.Corridors))
		for j, c := range ev.Corridors {
			corridors[j] = c.A + "-" + c.B
		}
		out = append(out, DisruptionInfo{
			ID:             ev.ID,
			Kind:           ev.Kind.String(),
			Active:         ev.Active(),
			OnsetRound:     ev.OnsetRound,
			ConfirmedRound: ev.ConfirmedRound,
			EndRound:       ev.EndRound,
			City:           ev.City,
			CC:             ev.CC,
			Continent:      ev.Continent,
			Facility:       ev.Facility,
			FacilityPDB:    ev.FacilityPDB,
			Corridors:      corridors,
			Severity:       ev.Severity,
			DarkCorridors:  ev.DarkCorridors,
		})
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"seed":          st.seed,
		"scenario":      st.scenName,
		"self_heal":     st.selfHeal,
		"degraded":      st.active > 0,
		"active":        st.active,
		"count":         len(out),
		"disruptions":   out,
		"relays_healed": st.relaysHealed,
	})
}

func (s *Server) handleSwap(w http.ResponseWriter, r *http.Request, st *servingState) {
	q := st.query(r)
	seed := q.integer("seed", st.seed, math.MinInt64, "bad seed %q")
	if q.answered(w) {
		return
	}
	info, err := s.Swap(seed, cmp.Or(q.v.Get("scenario"), st.scenName))
	switch {
	case errors.Is(err, ErrSwapInFlight):
		writeErr(w, http.StatusConflict, "%v", err)
	case errors.Is(err, scenario.ErrUnknownPreset):
		// Unknown scenario names are the caller's mistake; build
		// failures are ours.
		writeErr(w, http.StatusBadRequest, "%v", err)
	case err != nil:
		writeErr(w, http.StatusInternalServerError, "%v", err)
	default:
		writeJSON(w, http.StatusOK, map[string]any{"swapped": true, "state": info})
	}
}
