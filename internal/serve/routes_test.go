package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"testing"
)

// pinnedRequest is one request of the byte contract: the status and the
// SHA-256 of the body it must answer.
type pinnedRequest struct {
	method, target string
	code           int
	sum            string
}

// pinned runs against the shared seed-1 small server. It covers every
// route, each filter, paging (the default page, an offset past the end
// and a limit at the int64 maximum) and every error path, including
// which of two bad parameters a route reports first.
var pinned = []pinnedRequest{
	{"GET", "/", 200, "89243ccaf450fde5bf58016593e9eae0b769218f161dc717839dba02f46dd113"},
	{"GET", "/healthz", 200, "e5f1eb4d806641698a35efe20e098efd20d7d57a9b90ee69079d5bb650920726"},
	{"GET", "/no/such/path", 404, "b16e15764b8bc06c5c3f9f19bc8b99fa48e7894aa5a6ccdad65da49bbf564793"},
	{"GET", "/v1/admin/swap", 405, "c40aa69f0b306cea296dd1193c334bc0781587ed51aab579c0433698ba9e0c4b"},

	{"GET", "/v1/relays/best?src=GB&dst=JP", 200, "dbda805c20d2858e6da1be7eeb9c1a20c30c2b097a71473bef2d8c273e9c02e9"},
	{"GET", "/v1/relays/best?src=JP&dst=GB", 200, "dbda805c20d2858e6da1be7eeb9c1a20c30c2b097a71473bef2d8c273e9c02e9"},
	{"GET", "/v1/relays/best?src=%20amsterdam&dst=TOKYO", 200, "8f3bc9a901fe8f266133e51d3b7b8ef5c963af2af9bc63b720630531fb043a1b"},
	{"GET", "/v1/relays/best?src=GB", 400, "071b80f3ec1a4d6fc131b7822e55cf451d825c04b8b807a59d3214e843ef4795"},
	{"GET", "/v1/relays/best?src=XX", 400, "071b80f3ec1a4d6fc131b7822e55cf451d825c04b8b807a59d3214e843ef4795"},
	{"GET", "/v1/relays/best?src=XX&dst=JP", 404, "f74396f7488ecc4c8a09e4d9222af566ad5f09c881f02b9fe661e8af70ca0c20"},
	{"GET", "/v1/relays/best?src=GB&dst=YY", 404, "a2b45ee51e31834856fd63c8012cbff06da6c375c7dd959f7b9fc6b474ebfdd8"},
	{"GET", "/v1/relays/best?src=gb&dst=GB", 400, "32dc9631ea4f5c6b948cc5732335677d629843b8e9cb83c9db138433cb9674d9"},

	{"GET", "/v1/relays", 200, "a4b19fd0c8c1565a15ca2b1addb2673f91d7afeceb4d6fbea4e169e1d12e2ac5"},
	{"GET", "/v1/relays?limit=5", 200, "3670296a9b883eb6090f60454c883b9afb52354bb741800235b75f6462ce57fd"},
	{"GET", "/v1/relays?type=cor", 200, "100efbbdfc8bb8d1ed37b81660155770813466b379c201f77ce113e130ac0860"},
	{"GET", "/v1/relays?type=PLR&limit=20", 200, "fd2929c5cadda7113698bcbbb76a11e08cd62c2f7909ccabfc2706235539de5e"},
	{"GET", "/v1/relays?type=RAR_eye&cc=us&offset=2&limit=3", 200, "175e51081eb4a5d549c367ee25d19ce499c8a80db2cd08d850a9ee7344d7b31b"},
	{"GET", "/v1/relays?type=nope", 200, "481f60d002f502647c810ee2d81b4e13110fbf1c7545716d3292d2c6af8290a3"},
	{"GET", "/v1/relays?facility=1021", 200, "dd6af708227d14e0ca07912418d8e143d9dbdb7d1a35221be57f69fa95afe22d"},
	{"GET", "/v1/relays?facility=abc", 400, "d2dfd45c9fce2d77695c1a9a95c77d47fd1dd609a43b055f737a3a2fbd5e392e"},
	{"GET", "/v1/relays?facility=abc&limit=-1", 400, "d2dfd45c9fce2d77695c1a9a95c77d47fd1dd609a43b055f737a3a2fbd5e392e"},
	{"GET", "/v1/relays?limit=-1", 400, "c42193f36f122df12b341175c98ad4c59074cf8fd491d1c6704334571acd0961"},
	{"GET", "/v1/relays?offset=x", 400, "2180da9c8b8ce1675a3f6b7c516aa6539d2c25b696566e66da30a1f7e0478a50"},
	{"GET", "/v1/relays?limit=0&offset=999999", 200, "07b7dbef185b0608c8ef68e1c5be9e8a0b079955a1b9cd76c30a133d71081418"},
	{"GET", "/v1/relays?limit=9223372036854775807&offset=5", 200, "86f53aad9967bdd371989612933df140ae5dda7c04778df0524603f4180f5f74"},

	{"GET", "/v1/relays/cor-10.0.187.51", 200, "cdf24935fd6f8e96bb7681e982251c9af1af490279f79e79813f986785f67b52"},
	{"GET", "/v1/relays/rar-other-2643", 200, "415dc0fa9da65987cb3824f9de9aeed45fd3f85934235725d97ebf03680affb9"},
	{"GET", "/v1/relays/no-such-relay", 404, "011ec3f4550767506f02e2ab4a241b1e276a3c8d61644aa12609bded695a0e32"},

	{"GET", "/v1/facilities", 200, "560433fc35907c4f9feee0913f07efa8f16af4508ece3d72dfb82c12996dbe79"},
	{"GET", "/v1/facilities?cc=nl", 200, "f31e1007d28b13be64d6467cc7b3e997c3243271acc27d0ffd0f6d93628ab7b1"},
	{"GET", "/v1/facilities?city=AMSTERDAM", 200, "f31e1007d28b13be64d6467cc7b3e997c3243271acc27d0ffd0f6d93628ab7b1"},
	{"GET", "/v1/facilities?name=equinix", 200, "07951f49858c3074fa2d398d3eef92bffb87b246d67aa5002d5910dae7f8a0c1"},
	{"GET", "/v1/facilities?cloud=true", 200, "8c05c9e1b2f906293ab3bb4e320ef3a5f64bf614393d0781c2a49da8868b4950"},
	{"GET", "/v1/facilities?top10=false", 200, "c415f0f4c5fbdf83cbe299fd7c5e250ddbdffe13682b2076aef7dbf0c9a70d8c"},
	{"GET", "/v1/facilities?cc=NL&cloud=1&top10=T", 200, "5895764c958c226e3470c60a17cb3d8e6d8cd4abe816c2f1d2da36098e7e994f"},
	{"GET", "/v1/facilities?limit=3&offset=2", 200, "4e14f9c14e94d7d609d0008745bb764b3bece81e172ba6a563a724630be3e04a"},
	{"GET", "/v1/facilities?offset=1000", 200, "a4cf490a39747a47cb0e4b9bb46d19d435b70004490165758d5dd1d0b5b47466"},
	{"GET", "/v1/facilities?cloud=maybe", 400, "4ef0a6f24e1004e931a3a99fdcef8b08554d811951976441c8c109ca903408d8"},
	{"GET", "/v1/facilities?top10=2", 400, "cbfa9f0122bba3edf543265e8d0b139616daf848c6c4c99d8e508ccd959c8c81"},
	{"GET", "/v1/facilities?cloud=x&top10=y", 400, "7ebdd24135aa068669f52e7039f708779e030d542f5ea20367c7dacd597c0837"},
	{"GET", "/v1/facilities?limit=-1", 400, "c42193f36f122df12b341175c98ad4c59074cf8fd491d1c6704334571acd0961"},

	{"GET", "/v1/facilities/62", 200, "c1e97db02d0767fcb2eff1134cbce779d456b8ae3e26bd151df10b96635e75e4"},
	{"GET", "/v1/facilities/999999999", 404, "df217150ba49068f373d624e7a963db95b7cbc90b9efbabb285e2b3b082dd036"},
	{"GET", "/v1/facilities/not-a-number", 400, "7481b7b51be2235ed76b4e0c59e112846eb6d921faaf395f277f089ff5c293cb"},

	{"GET", "/v1/plans", 200, "5bae7723f7862cc1241ef1b80d40c9fc241ef892273a87c659b979aa7b78e60f"},
	{"GET", "/v1/plans?src=GB", 200, "95b6a6020e4fe54c61a60a6c049700f9f2c1994629bdf14d89e0638bd4a4fc2a"},
	{"GET", "/v1/plans?dst=%20tokyo", 200, "eaf64a62955250a670acf91dc1796e0cd84a8c79f382577c0f34df6c84a6ca80"},
	{"GET", "/v1/plans?src=GB&dst=JP", 200, "b21b475580a26e290be0b369fdcf6d1e1179b975b9e151abf6de6c5ae8162043"},
	{"GET", "/v1/plans?improved=true", 200, "d836f104b356b8655e1e5ff4c91290ad4a20ce62502361d5ebac4b6ee527a387"},
	{"GET", "/v1/plans?improved=false", 200, "25638ae4eb350e1799a1e34d27ce49d0f76dd063d5e26fa3d8b0ad72b68ef689"},
	{"GET", "/v1/plans?limit=20", 200, "5fc7013eb85aedff75be2be10d123614a3be5a9d5e6a812ca98558b7f51c68d6"},
	{"GET", "/v1/plans?limit=5&offset=10", 200, "983edade66d57bc082ef08df7cf27c65c141c04dc6ba7297e743abf19858c46e"},
	{"GET", "/v1/plans?offset=999999", 200, "98f90c4b37d2c0b75b432bb2d58cc198707a4d788f189b0fdd76f09aee1bcc3d"},
	{"GET", "/v1/plans?src=XX", 404, "f74396f7488ecc4c8a09e4d9222af566ad5f09c881f02b9fe661e8af70ca0c20"},
	{"GET", "/v1/plans?src=XX&improved=maybe", 404, "f74396f7488ecc4c8a09e4d9222af566ad5f09c881f02b9fe661e8af70ca0c20"},
	{"GET", "/v1/plans?improved=maybe", 400, "ea3226d363ac2e6ad304c36413bcdbebad2830e29ba0d34d5a1c1de29a8913ab"},
	{"GET", "/v1/plans?improved=maybe&limit=-1", 400, "ea3226d363ac2e6ad304c36413bcdbebad2830e29ba0d34d5a1c1de29a8913ab"},
	{"GET", "/v1/plans?limit=abc", 400, "b78ee92183a5a669f36292bee25bc67495da6a663b2bbdb32b80627d654e3f2d"},

	{"GET", "/v1/disruptions", 200, "ae4b85edda9e1c1b5f58b4ecf059a5d206fef8dd5755caa72a8d8cd90f91319e"},
	{"GET", "/v1/disruptions?active=true", 200, "ae4b85edda9e1c1b5f58b4ecf059a5d206fef8dd5755caa72a8d8cd90f91319e"},
	{"GET", "/v1/disruptions?active=false", 200, "ae4b85edda9e1c1b5f58b4ecf059a5d206fef8dd5755caa72a8d8cd90f91319e"},
	{"GET", "/v1/disruptions?active=maybe", 400, "d353abbd63d5f7a630fe8d54be5437e75031ff2a02e2e353ed9b2121da1c71f1"},

	{"POST", "/v1/admin/swap?seed=abc", 400, "48bca1d0c82991b56dcd02e009390d8e69a2d3289a9ec56374a9ad46b7f8d5f3"},
	{"POST", "/v1/admin/swap?scenario=no-such", 400, "9cca010bb65783ae6a8133db8df5f11046d8575b4b1f23b2c403352d2c709a82"},
}

// pinnedOutage is the byte contract of a state that detected events: a
// small-world outage campaign with self-healing, whose /readyz reports
// degraded mode (built_at blanked, as it is the build's wall clock).
var pinnedOutage = []pinnedRequest{
	{"GET", "/readyz", 200, "98b393cf0309cfc1909c509f23630a46d2549ac5e36857a9aa0df8bfaf58681e"},
	{"GET", "/v1/disruptions", 200, "0063ecd483615482e85d0ec19f08afbacec885ccff00885569656572fd269086"},
	{"GET", "/v1/disruptions?active=true", 200, "8159836bf92390bd7ef1e2ec5ef61f7e502976a18c2fcac9199c10d454afc487"},
	{"GET", "/v1/disruptions?active=false", 200, "05c5c107e479816ab01004c486c898d5d97c5e9801232835da588bbd9540d11b"},
}

var builtAt = regexp.MustCompile(`"built_at":"[^"]*"`)

func checkPinned(t *testing.T, h http.Handler, reqs []pinnedRequest) {
	t.Helper()
	for _, p := range reqs {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(p.method, p.target, nil))
		body := builtAt.ReplaceAll(w.Body.Bytes(), []byte(`"built_at":""`))
		sum := sha256.Sum256(body)
		if got := hex.EncodeToString(sum[:]); w.Code != p.code || got != p.sum {
			t.Errorf("%s %s = %d %s, want %d %s\n%.300s", p.method, p.target, w.Code, got, p.code, p.sum, body)
		}
	}
}

// TestRouteBodiesPinned pins every route's status and body bytes for a
// fixed request list: the service's response bytes are its contract.
func TestRouteBodiesPinned(t *testing.T) {
	s, _ := testServers(t)
	checkPinned(t, s.Handler(), pinned)

	out, err := New(Options{Seed: 1, Rounds: 12, SmallWorld: true, Scenario: "outage", SelfHeal: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := out.Warm(); err != nil {
		t.Fatal(err)
	}
	checkPinned(t, out.Handler(), pinnedOutage)
}

// TestPageCostsThePage pins what one list page costs through Handler():
// a type-filtered relay page allocates per listed relay, not per relay
// scanned, and a plans page copies only the plans it lists.
func TestPageCostsThePage(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; alloc budget is pinned in the plain test run")
	}
	s, _ := testServers(t)
	h := s.Handler()
	serve := func(target string) func() {
		req := httptest.NewRequest(http.MethodGet, target, nil)
		return func() {
			w := httptest.NewRecorder()
			h.ServeHTTP(w, req)
			if w.Code != http.StatusOK {
				t.Fatalf("%s = %d", target, w.Code)
			}
		}
	}
	if n := testing.AllocsPerRun(20, serve("/v1/relays?type=PLR&limit=20")); n > 64 {
		t.Errorf("/v1/relays?type=PLR&limit=20 makes %.0f allocations, want <= 64", n)
	}
	plans := serve("/v1/plans?limit=20")
	plans()
	const runs = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		plans()
	}
	runtime.ReadMemStats(&after)
	if b := (after.TotalAlloc - before.TotalAlloc) / runs; b >= 64<<10 {
		t.Errorf("/v1/plans?limit=20 allocates %d bytes, want < 64 KiB", b)
	}
}

// fuzzRoutes are the GET API routes FuzzServeQuery drives. A show route
// takes the fuzzed string as the id after path; every other route takes
// it as the query. list is the JSON key a 200 lists items under, and
// defLimit the page size when a paged list gets no limit.
var fuzzRoutes = []struct {
	path     string
	show     bool
	list     string
	paged    bool
	defLimit int64
}{
	{path: "/v1/relays/best"},
	{path: "/v1/relays", list: "relays", paged: true, defLimit: 100},
	{path: "/v1/relays/", show: true},
	{path: "/v1/facilities", list: "facilities", paged: true},
	{path: "/v1/facilities/", show: true},
	{path: "/v1/plans", list: "plans", paged: true},
	{path: "/v1/disruptions", list: "disruptions"},
}

// FuzzServeQuery drives the query parser through Handler(): whatever
// the query or id, a route answers 200, 400 or 404 with a JSON body, an
// error body is exactly {"error": string}, and a list lists the
// offset/limit window of what it counts.
func FuzzServeQuery(f *testing.F) {
	for _, p := range pinned {
		path, raw, _ := strings.Cut(p.target, "?")
		for i, rt := range fuzzRoutes {
			if id, ok := strings.CutPrefix(path, rt.path); ok && rt.show == (id != "") {
				if rt.show {
					raw = id
				}
				f.Add(uint8(i), raw)
			}
		}
	}
	f.Fuzz(func(t *testing.T, route uint8, raw string) {
		s, _ := testServers(t)
		rt := fuzzRoutes[int(route)%len(fuzzRoutes)]
		req := httptest.NewRequest(http.MethodGet, "/", nil)
		if rt.show {
			if raw == "" {
				t.Skip("an empty id names no show route")
			}
			// Escape every byte, so the id reaches the handler whole
			// rather than as path segments the mux would clean.
			var esc strings.Builder
			for i := 0; i < len(raw); i++ {
				fmt.Fprintf(&esc, "%%%02X", raw[i])
			}
			req.URL.Path, req.URL.RawPath = rt.path+raw, rt.path+esc.String()
		} else {
			req.URL.Path, req.URL.RawQuery = rt.path, raw
		}
		w := httptest.NewRecorder()
		s.Handler().ServeHTTP(w, req)
		var body map[string]any
		if err := json.Unmarshal(w.Body.Bytes(), &body); err != nil {
			t.Fatalf("%s %q = %d, not JSON: %v\n%s", rt.path, raw, w.Code, err, w.Body)
		}
		switch w.Code {
		case http.StatusOK:
		case http.StatusBadRequest, http.StatusNotFound:
			if msg, ok := body["error"].(string); !ok || msg == "" || len(body) != 1 {
				t.Fatalf("%s %q = %d with body %s, want {\"error\": string}", rt.path, raw, w.Code, w.Body)
			}
			return
		default:
			t.Fatalf("%s %q = %d, want 200, 400 or 404", rt.path, raw, w.Code)
		}
		if rt.list == "" {
			return
		}
		count := int64(body["count"].(float64))
		listed := int64(len(body[rt.list].([]any)))
		want := count
		if rt.paged {
			q := req.URL.Query()
			limit, lerr := nonNegative(q.Get("limit"), rt.defLimit)
			offset, oerr := nonNegative(q.Get("offset"), 0)
			if lerr != nil || oerr != nil {
				t.Fatalf("%s %q = 200 with a bad page (%v, %v)", rt.path, raw, lerr, oerr)
			}
			want = max(count-offset, 0)
			if limit > 0 {
				want = min(want, limit)
			}
		}
		if listed != want {
			t.Fatalf("%s %q lists %d of %d, want %d", rt.path, raw, listed, count, want)
		}
	})
}

// nonNegative parses a page parameter as the service documents it: def
// when empty, else a non-negative integer.
func nonNegative(v string, def int64) (int64, error) {
	if v == "" {
		return def, nil
	}
	n, err := strconv.ParseInt(v, 10, 64)
	if err == nil && n < 0 {
		err = fmt.Errorf("%d is negative", n)
	}
	return n, err
}
