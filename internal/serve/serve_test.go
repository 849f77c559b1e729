package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"testing"

	"shortcuts/internal/measure"
	"shortcuts/internal/relays"
)

// Small-world servers build in well under a second, but the tests still
// share one seed-1 and one seed-2 server: the read-only endpoint tests
// all run against the same state, and the determinism tests compare
// swapped-in states against the fresh seed-2 server.
var (
	srvOnce   sync.Once
	srv1      *Server // seed 1, warm
	srv2      *Server // seed 2, warm (fresh-boot reference)
	srvErr    error
	testOpts  = Options{Seed: 1, Rounds: 2, SmallWorld: true}
	testOpts2 = Options{Seed: 2, Rounds: 2, SmallWorld: true}
)

func testServers(t *testing.T) (*Server, *Server) {
	t.Helper()
	srvOnce.Do(func() {
		if srv1, srvErr = New(testOpts); srvErr != nil {
			return
		}
		if srvErr = srv1.Warm(); srvErr != nil {
			return
		}
		if srv2, srvErr = New(testOpts2); srvErr != nil {
			return
		}
		srvErr = srv2.Warm()
	})
	if srvErr != nil {
		t.Fatal(srvErr)
	}
	return srv1, srv2
}

func get(t *testing.T, h http.Handler, url string) (int, []byte) {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, url, nil)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w.Code, w.Body.Bytes()
}

func post(t *testing.T, h http.Handler, url string) (int, []byte) {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, url, nil)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w.Code, w.Body.Bytes()
}

func decode(t *testing.T, body []byte, v any) {
	t.Helper()
	if err := json.Unmarshal(body, v); err != nil {
		t.Fatalf("bad JSON %q: %v", body, err)
	}
}

func TestNewValidatesOptions(t *testing.T) {
	cases := []Options{
		{Scenario: "no-such-preset"},
		{PairBudget: -1},
		{ScaleEndpoints: 100, SmallWorld: true},
		{ScaleEndpoints: 100}, // scale without pair budget
	}
	for i, o := range cases {
		if _, err := New(o); err == nil {
			t.Errorf("case %d: options %+v accepted", i, o)
		}
	}
}

func TestHealthAndReadiness(t *testing.T) {
	// A cold server is healthy but not ready.
	cold, err := New(testOpts)
	if err != nil {
		t.Fatal(err)
	}
	h := cold.Handler()
	if code, _ := get(t, h, "/healthz"); code != http.StatusOK {
		t.Fatalf("cold /healthz = %d", code)
	}
	if code, _ := get(t, h, "/readyz"); code != http.StatusServiceUnavailable {
		t.Fatalf("cold /readyz = %d, want 503", code)
	}
	if code, _ := get(t, h, "/v1/facilities"); code != http.StatusServiceUnavailable {
		t.Fatalf("cold /v1/facilities = %d, want 503", code)
	}
	if code, _ := post(t, h, "/v1/admin/swap?seed=2"); code != http.StatusServiceUnavailable {
		t.Fatalf("cold swap = %d, want 503", code)
	}

	s, _ := testServers(t)
	h = s.Handler()
	code, body := get(t, h, "/readyz")
	if code != http.StatusOK {
		t.Fatalf("warm /readyz = %d: %s", code, body)
	}
	var ready readyResponse
	decode(t, body, &ready)
	if !ready.Ready || ready.Seed != 1 || ready.Scenario != "calm" || ready.Corridors == 0 {
		t.Fatalf("readyz = %+v", ready)
	}
}

func TestFacilitiesEndpoints(t *testing.T) {
	s, _ := testServers(t)
	h := s.Handler()

	code, body := get(t, h, "/v1/facilities")
	if code != http.StatusOK {
		t.Fatalf("list = %d: %s", code, body)
	}
	var list struct {
		Count      int            `json:"count"`
		Facilities []FacilityInfo `json:"facilities"`
	}
	decode(t, body, &list)
	if list.Count == 0 || len(list.Facilities) != list.Count {
		t.Fatalf("facility list count=%d len=%d", list.Count, len(list.Facilities))
	}

	// Show round-trips the list entry.
	f := list.Facilities[0]
	code, body = get(t, h, fmt.Sprintf("/v1/facilities/%d", f.ID))
	if code != http.StatusOK {
		t.Fatalf("show = %d: %s", code, body)
	}
	var shown FacilityInfo
	decode(t, body, &shown)
	if shown.ID != f.ID || shown.Name != f.Name || shown.City != f.City {
		t.Fatalf("show %+v != list %+v", shown, f)
	}

	// Filters narrow and stay consistent.
	code, body = get(t, h, "/v1/facilities?cc="+f.CC)
	if code != http.StatusOK {
		t.Fatalf("cc filter = %d", code)
	}
	var byCC struct {
		Count      int            `json:"count"`
		Facilities []FacilityInfo `json:"facilities"`
	}
	decode(t, body, &byCC)
	if byCC.Count == 0 || byCC.Count > list.Count {
		t.Fatalf("cc filter count %d vs total %d", byCC.Count, list.Count)
	}
	for _, g := range byCC.Facilities {
		if g.CC != f.CC {
			t.Fatalf("cc filter leaked %+v", g)
		}
	}

	if code, _ = get(t, h, "/v1/facilities/999999999"); code != http.StatusNotFound {
		t.Fatalf("unknown facility = %d, want 404", code)
	}
	if code, _ = get(t, h, "/v1/facilities/not-a-number"); code != http.StatusBadRequest {
		t.Fatalf("bad facility id = %d, want 400", code)
	}
	if code, _ = get(t, h, "/v1/facilities?cloud=maybe"); code != http.StatusBadRequest {
		t.Fatalf("bad cloud filter = %d, want 400", code)
	}
	if code, _ = get(t, h, "/v1/facilities?limit=-1"); code != http.StatusBadRequest {
		t.Fatalf("bad limit = %d, want 400", code)
	}
}

func TestRelaysEndpoints(t *testing.T) {
	s, _ := testServers(t)
	h := s.Handler()

	code, body := get(t, h, "/v1/relays?limit=5")
	if code != http.StatusOK {
		t.Fatalf("list = %d: %s", code, body)
	}
	var list struct {
		Count  int         `json:"count"`
		Relays []RelayInfo `json:"relays"`
	}
	decode(t, body, &list)
	if list.Count == 0 || len(list.Relays) != 5 {
		t.Fatalf("relay list count=%d page=%d", list.Count, len(list.Relays))
	}

	// Type filter returns only that type; COR relays carry facilities.
	code, body = get(t, h, "/v1/relays?type=COR&limit=10")
	if code != http.StatusOK {
		t.Fatalf("type filter = %d", code)
	}
	var cor struct {
		Count  int         `json:"count"`
		Relays []RelayInfo `json:"relays"`
	}
	decode(t, body, &cor)
	if cor.Count == 0 {
		t.Fatal("no COR relays listed")
	}
	for _, r := range cor.Relays {
		if r.Type != "COR" || r.Facility == "" || r.FacilityPDB == 0 {
			t.Fatalf("bad COR entry %+v", r)
		}
	}

	// Show by id round-trips.
	code, body = get(t, h, "/v1/relays/"+cor.Relays[0].ID)
	if code != http.StatusOK {
		t.Fatalf("show = %d: %s", code, body)
	}
	var shown RelayInfo
	decode(t, body, &shown)
	if shown != cor.Relays[0] {
		t.Fatalf("show %+v != list %+v", shown, cor.Relays[0])
	}

	if code, _ = get(t, h, "/v1/relays/no-such-relay"); code != http.StatusNotFound {
		t.Fatalf("unknown relay = %d, want 404", code)
	}

	// Facility filter: every relay at the first COR facility is COR.
	code, body = get(t, h, fmt.Sprintf("/v1/relays?facility=%d", cor.Relays[0].FacilityPDB))
	if code != http.StatusOK {
		t.Fatalf("facility filter = %d", code)
	}
	var atFac struct {
		Count  int         `json:"count"`
		Relays []RelayInfo `json:"relays"`
	}
	decode(t, body, &atFac)
	if atFac.Count == 0 {
		t.Fatal("facility filter found nothing")
	}
	for _, r := range atFac.Relays {
		if r.FacilityPDB != cor.Relays[0].FacilityPDB {
			t.Fatalf("facility filter leaked %+v", r)
		}
	}
}

// relayShowMisses are IDs the relay show route answers 404 for on the
// seed-1 small world. RAR_other relay rar-other-1002 is shown under the
// wrong type, with a leading zero, with a sign and with a trailing
// space; probe 1000 is ineligible; probe 2644 is one past the fleet; a
// number may be neither empty nor longer than any probe ID.
// FuzzServeQuery's corpus under testdata/fuzz seeds the same IDs.
var relayShowMisses = []string{
	"rar-eye-1002",
	"rar-other-01002",
	"rar-other-+1002",
	"rar-other-1002 ",
	"rar-eye-1000",
	"rar-other-1000",
	"rar-eye-2644",
	"rar-other-2644",
	"rar-eye-",
	"rar-other-",
	"rar-other-12345678901234567890",
}

// TestRelayShowByID shows one relay of each type by the ID its type's
// list gives it, and answers 404 for every near miss of an ID.
func TestRelayShowByID(t *testing.T) {
	s, _ := testServers(t)
	h := s.Handler()
	for ty := relays.Type(0); ty < relays.NumTypes; ty++ {
		code, body := get(t, h, "/v1/relays?limit=1&type="+ty.String())
		var list struct {
			Relays []RelayInfo `json:"relays"`
		}
		decode(t, body, &list)
		if code != http.StatusOK || len(list.Relays) != 1 {
			t.Fatalf("%v list = %d: %s", ty, code, body)
		}
		code, body = get(t, h, "/v1/relays/"+url.PathEscape(list.Relays[0].ID))
		var shown RelayInfo
		decode(t, body, &shown)
		if code != http.StatusOK || shown != list.Relays[0] {
			t.Fatalf("show %q = %d %+v, listed %+v", list.Relays[0].ID, code, shown, list.Relays[0])
		}
	}

	// The misses' premises: each is one step from a relay that exists.
	st := s.st()
	fleet := st.world.Atlas
	if i, ok := st.world.Catalog.Lookup("rar-other-1002"); !ok || st.world.Catalog.Type(i) != relays.RAROther {
		t.Fatal("rar-other-1002 is no RAR_other relay")
	}
	if fleet.Row(1000) < 0 || fleet.Eligible(fleet.Row(1000)) {
		t.Fatal("probe 1000 is not an ineligible probe of the fleet")
	}
	if fleet.Row(2643) < 0 || fleet.Row(2644) >= 0 {
		t.Fatal("probe 2644 is not the first ID past the fleet")
	}
	for _, id := range relayShowMisses {
		if code, body := get(t, h, "/v1/relays/"+url.PathEscape(id)); code != http.StatusNotFound {
			t.Errorf("show %q = %d %s, want 404", id, code, body)
		}
	}
}

func TestPlansAndBest(t *testing.T) {
	s, _ := testServers(t)
	h := s.Handler()

	code, body := get(t, h, "/v1/plans")
	if code != http.StatusOK {
		t.Fatalf("plans = %d: %s", code, body)
	}
	var plans struct {
		Seed     int64  `json:"seed"`
		Scenario string `json:"scenario"`
		Count    int    `json:"count"`
		Plans    []Plan `json:"plans"`
	}
	decode(t, body, &plans)
	if plans.Count == 0 || plans.Seed != 1 || plans.Scenario != "calm" {
		t.Fatalf("plans header %+v", plans)
	}

	// Find a plan with an improving relay; the small world always has
	// many (the paper's headline is that most pairs improve).
	var withRelay *Plan
	for i := range plans.Plans {
		if plans.Plans[i].Relay != nil {
			withRelay = &plans.Plans[i]
			break
		}
	}
	if withRelay == nil {
		t.Fatal("no corridor with an improving relay")
	}

	// improved=true keeps only such plans.
	code, body = get(t, h, "/v1/plans?improved=true")
	if code != http.StatusOK {
		t.Fatalf("improved filter = %d", code)
	}
	var improved struct {
		Count int    `json:"count"`
		Plans []Plan `json:"plans"`
	}
	decode(t, body, &improved)
	for _, p := range improved.Plans {
		if p.Relay == nil {
			t.Fatalf("improved filter leaked %+v", p)
		}
	}

	// src filter restricts to corridors touching the country.
	code, body = get(t, h, "/v1/plans?src="+withRelay.Src)
	if code != http.StatusOK {
		t.Fatalf("src filter = %d", code)
	}
	var bySrc struct {
		Count int    `json:"count"`
		Plans []Plan `json:"plans"`
	}
	decode(t, body, &bySrc)
	if bySrc.Count == 0 {
		t.Fatal("src filter found nothing")
	}
	for _, p := range bySrc.Plans {
		if p.Src != withRelay.Src && p.Dst != withRelay.Src {
			t.Fatalf("src filter leaked %+v", p)
		}
	}

	// Best answers the corridor, in either query order, with the plan.
	code, body = get(t, h, "/v1/relays/best?src="+withRelay.Src+"&dst="+withRelay.Dst)
	if code != http.StatusOK {
		t.Fatalf("best = %d: %s", code, body)
	}
	var best BestResponse
	decode(t, body, &best)
	if best.Seed != 1 || best.Scenario != "calm" || best.Plan.Src != withRelay.Src ||
		best.Plan.Dst != withRelay.Dst || best.Plan.Relay == nil {
		t.Fatalf("best = %+v", best)
	}
	if best.Plan.Relay.ID != withRelay.Relay.ID {
		t.Fatalf("best relay %q != plan relay %q", best.Plan.Relay.ID, withRelay.Relay.ID)
	}
	code2, body2 := get(t, h, "/v1/relays/best?src="+withRelay.Dst+"&dst="+withRelay.Src)
	if code2 != http.StatusOK || string(body2) != string(body) {
		t.Fatal("best is query-order sensitive")
	}

	// Validation and 404s.
	if code, _ = get(t, h, "/v1/relays/best?src="+withRelay.Src); code != http.StatusBadRequest {
		t.Fatalf("missing dst = %d, want 400", code)
	}
	if code, _ = get(t, h, "/v1/relays/best?src=XX&dst=YY"); code != http.StatusNotFound {
		t.Fatalf("unknown locations = %d, want 404", code)
	}
	if code, _ = get(t, h, "/v1/relays/best?src="+withRelay.Src+"&dst="+withRelay.Src); code != http.StatusBadRequest {
		t.Fatalf("same-country corridor = %d, want 400", code)
	}

	// City names resolve: serve the best corridor by city instead of CC.
	st := s.st()
	var srcCity, dstCity string
	for i := range st.world.Topo.Cities {
		c := &st.world.Topo.Cities[i]
		if c.CC == withRelay.Src && srcCity == "" {
			srcCity = c.Name
		}
		if c.CC == withRelay.Dst && dstCity == "" {
			dstCity = c.Name
		}
	}
	if srcCity != "" && dstCity != "" {
		q := url.Values{"src": {strings.ToLower(srcCity)}, "dst": {strings.ToUpper(dstCity)}}
		code3, body3 := get(t, h, "/v1/relays/best?"+q.Encode())
		if code3 != http.StatusOK || string(body3) != string(body) {
			t.Fatalf("city-name query diverged: %d %s", code3, body3)
		}
	}
}

func TestBestResponseCached(t *testing.T) {
	s, _ := testServers(t)
	h := s.Handler()
	st := s.st()
	key := measure.Corridor{A: st.plans[0].Src, B: st.plans[0].Dst}
	url := "/v1/relays/best?src=" + key.A + "&dst=" + key.B

	_, first := get(t, h, url)
	if _, ok := st.bestCache.Load(key); !ok {
		t.Fatal("best response not cached")
	}
	_, second := get(t, h, url)
	if string(first) != string(second) {
		t.Fatal("cached response differs from fresh render")
	}
}

func TestSwapConflictAndValidation(t *testing.T) {
	s, err := New(testOpts)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Warm(); err != nil {
		t.Fatal(err)
	}
	h := s.Handler()

	// A held build lock means 409, not a queued second build.
	s.building.Store(true)
	if code, _ := post(t, h, "/v1/admin/swap?seed=2"); code != http.StatusConflict {
		t.Fatalf("swap during build = %d, want 409", code)
	}
	s.building.Store(false)

	if code, _ := post(t, h, "/v1/admin/swap?seed=abc"); code != http.StatusBadRequest {
		t.Fatal("bad seed accepted")
	}
	if code, _ := post(t, h, "/v1/admin/swap?scenario=no-such"); code != http.StatusBadRequest {
		t.Fatal("unknown scenario accepted")
	}
}

// canonicalBest renders every corridor's /v1/relays/best body for a
// server, keyed by corridor.
func canonicalBest(t *testing.T, s *Server) map[measure.Corridor]string {
	t.Helper()
	h := s.Handler()
	out := make(map[measure.Corridor]string)
	for _, p := range s.st().plans {
		key := measure.Corridor{A: p.Src, B: p.Dst}
		code, body := get(t, h, "/v1/relays/best?src="+key.A+"&dst="+key.B)
		if code != http.StatusOK {
			t.Fatalf("corridor %v = %d", key, code)
		}
		out[key] = string(body)
	}
	return out
}

// TestSwapDeterminism pins the hot-swap contract: a server swapped onto
// (seed 2, calm) must serve byte-identical /v1/relays/best responses to
// a server freshly booted on (seed 2, calm).
func TestSwapDeterminism(t *testing.T) {
	_, fresh2 := testServers(t)
	want := canonicalBest(t, fresh2)

	s, err := New(testOpts) // boots at seed 1
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Warm(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Swap(2, "calm"); err != nil {
		t.Fatal(err)
	}
	got := canonicalBest(t, s)
	if len(got) != len(want) {
		t.Fatalf("swapped server serves %d corridors, fresh serves %d", len(got), len(want))
	}
	for key, body := range want {
		if got[key] != body {
			t.Fatalf("corridor %v diverged after swap:\nswapped: %s\nfresh:   %s", key, got[key], body)
		}
	}

	// The plans listing is byte-identical too.
	_, gotPlans := get(t, s.Handler(), "/v1/plans")
	_, wantPlans := get(t, fresh2.Handler(), "/v1/plans")
	if string(gotPlans) != string(wantPlans) {
		t.Fatal("plans listing diverged after swap")
	}
}

// TestNoMixedStateDuringSwap hammers /v1/relays/best from several
// goroutines while a swap builds and publishes; every response must be
// byte-identical to either the old state's canonical answer or the new
// state's — a half-old half-new response (or any non-200) fails.
func TestNoMixedStateDuringSwap(t *testing.T) {
	_, fresh2 := testServers(t)

	s, err := New(testOpts)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Warm(); err != nil {
		t.Fatal(err)
	}

	// Pick a corridor both seeds observed.
	oldBest := canonicalBest(t, s)
	newBest := canonicalBest(t, fresh2)
	var key measure.Corridor
	found := false
	for k := range newBest {
		if _, ok := oldBest[k]; ok {
			key, found = k, true
			break
		}
	}
	if !found {
		t.Fatal("no corridor shared between seeds")
	}
	url := "/v1/relays/best?src=" + key.A + "&dst=" + key.B
	h := s.Handler()

	stop := make(chan struct{})
	errs := make(chan error, 8)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				req := httptest.NewRequest(http.MethodGet, url, nil)
				w := httptest.NewRecorder()
				h.ServeHTTP(w, req)
				body := w.Body.String()
				if w.Code != http.StatusOK {
					select {
					case errs <- fmt.Errorf("query during swap = %d: %s", w.Code, body):
					default:
					}
					return
				}
				if body != oldBest[key] && body != newBest[key] {
					select {
					case errs <- fmt.Errorf("mixed-state response: %s", body):
					default:
					}
					return
				}
			}
		}()
	}

	if _, err := s.Swap(2, "calm"); err != nil {
		t.Fatal(err)
	}
	close(stop)
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}

	// Settled: every post-swap response is the new state's.
	_, body := get(t, h, url)
	if string(body) != newBest[key] {
		t.Fatalf("post-swap response is not the fresh seed-2 answer: %s", body)
	}
}
