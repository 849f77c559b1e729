package eyeball_test

import (
	"testing"

	"shortcuts/internal/eyeball"
	"shortcuts/internal/rng"
	"shortcuts/internal/sim"
	"shortcuts/internal/topology"
)

var cachedWorld *sim.World

func testWorld(t *testing.T) *sim.World {
	t.Helper()
	if cachedWorld != nil {
		return cachedWorld
	}
	w, err := sim.Build(sim.DefaultWorldParams(1))
	if err != nil {
		t.Fatal(err)
	}
	cachedWorld = w
	return w
}

func TestCountriesScale(t *testing.T) {
	w := testWorld(t)
	// Paper: 82 countries with eligible eyeball probes.
	n := len(w.Selector.Countries())
	if n < 55 || n > 95 {
		t.Fatalf("endpoint countries = %d, want ~75-82", n)
	}
}

func TestVerifiedASScale(t *testing.T) {
	w := testWorld(t)
	// Paper: 141 ASes with eligible probes.
	n := w.Selector.VerifiedASCount()
	if n < 90 || n > 220 {
		t.Fatalf("verified AS tuples with probes = %d, want ~141", n)
	}
}

func TestIsEyeballAgreesWithTopology(t *testing.T) {
	w := testWorld(t)
	// Every topology eyeball AS was instantiated from an APNIC record at
	// or above the cutoff, so the selector must verify it.
	for _, a := range w.Topo.ASesOfType(topology.Eyeball) {
		if !w.Selector.IsEyeball(a.ASN, a.CC) {
			t.Errorf("topology eyeball %d/%s not verified", a.ASN, a.CC)
		}
	}
	// And core networks must never be verified.
	for _, a := range w.Topo.ASesOfType(topology.Tier1, topology.Transit, topology.Campus) {
		if w.Selector.IsEyeball(a.ASN, a.CC) {
			t.Errorf("core network %d/%s verified as eyeball", a.ASN, a.CC)
		}
	}
}

func TestSampleOnePerCountry(t *testing.T) {
	w := testWorld(t)
	eps := w.Selector.SampleEndpoints(rng.New(2), 0)
	if len(eps) < 50 {
		t.Fatalf("sampled %d endpoints, want most of ~75 countries", len(eps))
	}
	seen := make(map[string]bool)
	for _, row := range eps {
		p := w.Atlas.Probe(row)
		if seen[p.CC] {
			t.Fatalf("two endpoints in %s", p.CC)
		}
		seen[p.CC] = true
		if !p.Eligible() {
			t.Fatalf("ineligible probe %d sampled", p.ID)
		}
		if !w.Selector.IsEyeball(p.AS, p.CC) {
			t.Fatalf("endpoint probe %d not in a verified eyeball", p.ID)
		}
		if !w.Atlas.Responsive(p.ID, 0) {
			t.Fatalf("offline probe %d sampled", p.ID)
		}
	}
}

func TestSampleDeterministicPerRound(t *testing.T) {
	w := testWorld(t)
	a := w.Selector.SampleEndpoints(rng.New(5), 3)
	b := w.Selector.SampleEndpoints(rng.New(5), 3)
	if len(a) != len(b) {
		t.Fatal("sample sizes differ")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("sample differs at %d", i)
		}
	}
}

func TestSampleVariesAcrossRounds(t *testing.T) {
	w := testWorld(t)
	g := rng.New(5)
	a := w.Selector.SampleEndpoints(g, 0)
	b := w.Selector.SampleEndpoints(g, 1)
	diff := 0
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			diff++
		}
	}
	if diff == 0 {
		t.Fatal("endpoint samples identical across rounds")
	}
}

func TestCutoffConstant(t *testing.T) {
	if eyeball.Cutoff != 10.0 {
		t.Fatalf("Cutoff = %v, want the paper's validated 10%%", eyeball.Cutoff)
	}
}

// TestSampleIntoMatchesClassic: at one endpoint per country the buffered
// multi-quota sampler must be draw-for-draw identical to the historical
// SampleEndpoints — the exhaustive golden digests depend on it — and it
// must reuse the caller's buffer rather than allocate.
func TestSampleIntoMatchesClassic(t *testing.T) {
	w := testWorld(t)
	classic := w.Selector.SampleEndpoints(rng.New(5), 3)
	buf := w.Selector.SampleEndpointsInto(rng.New(5), 3, 1, nil)
	if len(classic) != len(buf) {
		t.Fatalf("sizes differ: %d vs %d", len(classic), len(buf))
	}
	for i := range classic {
		if classic[i] != buf[i] {
			t.Fatalf("samples diverge at %d: row %d vs %d", i, classic[i], buf[i])
		}
	}
	reused := w.Selector.SampleEndpointsInto(rng.New(5), 3, 1, buf)
	if &reused[0] != &buf[0] {
		t.Fatal("sampler abandoned the caller's buffer")
	}
}

// TestSamplePerCountryQuota: a higher quota keeps every invariant of the
// one-per-country sample (eligibility, eyeball verification,
// responsiveness, determinism) while growing the population, with at
// most perCountry endpoints per country and the quota-1 prefix drawn
// identically.
func TestSamplePerCountryQuota(t *testing.T) {
	w := testWorld(t)
	const quota = 3
	eps := w.Selector.SampleEndpointsInto(rng.New(7), 2, quota, nil)
	one := w.Selector.SampleEndpointsInto(rng.New(7), 2, 1, nil)
	if len(eps) <= len(one) {
		t.Fatalf("quota %d yielded %d endpoints, quota 1 yielded %d", quota, len(eps), len(one))
	}
	perCC := make(map[string]int)
	for _, row := range eps {
		p := w.Atlas.Probe(row)
		perCC[p.CC]++
		if perCC[p.CC] > quota {
			t.Fatalf("country %s exceeds quota: %d", p.CC, perCC[p.CC])
		}
		if !p.Eligible() || !w.Selector.IsEyeball(p.AS, p.CC) || !w.Atlas.Responsive(p.ID, 2) {
			t.Fatalf("probe %d violates sampling invariants", p.ID)
		}
	}
	multi := 0
	for _, n := range perCC {
		if n > 1 {
			multi++
		}
	}
	if multi == 0 {
		t.Fatalf("no country filled more than one slot at quota %d", quota)
	}
	again := w.Selector.SampleEndpointsInto(rng.New(7), 2, quota, nil)
	for i := range eps {
		if eps[i] != again[i] {
			t.Fatalf("quota sample not deterministic at %d", i)
		}
	}
}

// TestPopulationWeight: verified eyeball tuples carry their APNIC
// coverage as a positive weight; unverified tuples weigh zero.
func TestPopulationWeight(t *testing.T) {
	w := testWorld(t)
	positive := 0
	for _, a := range w.Topo.ASesOfType(topology.Eyeball) {
		if !w.Selector.IsEyeball(a.ASN, a.CC) {
			continue
		}
		if wt := w.Selector.PopulationWeight(a.ASN, a.CC); wt > 0 {
			positive++
		} else {
			t.Fatalf("verified eyeball %d/%s has weight %v", a.ASN, a.CC, wt)
		}
	}
	if positive == 0 {
		t.Fatal("no verified eyeball carried a positive weight")
	}
	if wt := w.Selector.PopulationWeight(1, "ZZ"); wt != 0 {
		t.Fatalf("unknown tuple has weight %v", wt)
	}
}
