package topology

import (
	"slices"
	"sort"
	"testing"

	"shortcuts/internal/datasets/apnic"
	"shortcuts/internal/rng"
	"shortcuts/internal/worlddata"
)

// testWorld builds a default-scale topology once per test binary.
var testWorldCache *Topology

func testWorld(t *testing.T) *Topology {
	t.Helper()
	if testWorldCache != nil {
		return testWorldCache
	}
	g := rng.New(1)
	ds := apnic.Generate(g.Split("apnic"), apnic.DefaultParams(worlddata.CountryCodes()))
	topo, err := Generate(g, DefaultParams(), ds)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	testWorldCache = topo
	return topo
}

func TestGenerateValidates(t *testing.T) {
	topo := testWorld(t)
	if err := topo.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	build := func() *Topology {
		g := rng.New(7)
		ds := apnic.Generate(g.Split("apnic"), apnic.DefaultParams(worlddata.CountryCodes()))
		topo, err := Generate(g, SmallParams(), ds)
		if err != nil {
			t.Fatalf("Generate: %v", err)
		}
		return topo
	}
	a, b := build(), build()
	if len(a.ASes) != len(b.ASes) || len(a.Links) != len(b.Links) || len(a.Facilities) != len(b.Facilities) {
		t.Fatalf("topologies differ in size: (%d,%d,%d) vs (%d,%d,%d)",
			len(a.ASes), len(a.Links), len(a.Facilities),
			len(b.ASes), len(b.Links), len(b.Facilities))
	}
	for i := range a.ASes {
		if a.ASes[i].ASN != b.ASes[i].ASN || a.ASes[i].Name != b.ASes[i].Name {
			t.Fatalf("AS %d differs: %+v vs %+v", i, a.ASes[i], b.ASes[i])
		}
	}
	for i := range a.Links {
		if a.Links[i].A != b.Links[i].A || a.Links[i].B != b.Links[i].B || a.Links[i].Rel != b.Links[i].Rel {
			t.Fatalf("link %d differs", i)
		}
	}
}

func TestPopulationScale(t *testing.T) {
	topo := testWorld(t)
	counts := make(map[ASType]int)
	for _, a := range topo.ASes {
		counts[a.Type]++
	}
	if counts[Tier1] != 12 {
		t.Errorf("tier1 count = %d, want 12", counts[Tier1])
	}
	if counts[Transit] != 60 {
		t.Errorf("transit count = %d, want 60", counts[Transit])
	}
	if counts[Content] != 36 {
		t.Errorf("content count = %d, want 36", counts[Content])
	}
	if counts[Eyeball] < 120 {
		t.Errorf("eyeball count = %d, want >= 120 (paper has 141 with probes)", counts[Eyeball])
	}
	if counts[Campus] < 30 {
		t.Errorf("campus count = %d, want >= 30 (PlanetLab sites)", counts[Campus])
	}
	if len(topo.ASes) < 400 {
		t.Errorf("total ASes = %d, want >= 400", len(topo.ASes))
	}
}

func TestFacilityScaleMatchesPaperPool(t *testing.T) {
	topo := testWorld(t)
	// Paper: candidate pool of 103 facilities at 67 cities.
	nf := len(topo.Facilities)
	if nf < 85 || nf > 125 {
		t.Errorf("facility count = %d, want ~103 (±20%%)", nf)
	}
	cities := make(map[int]bool)
	for _, f := range topo.Facilities {
		cities[f.City] = true
	}
	if len(cities) < 55 || len(cities) > 75 {
		t.Errorf("facility cities = %d, want ~67", len(cities))
	}
}

func TestTable1FacilitiesSeeded(t *testing.T) {
	topo := testWorld(t)
	for _, s := range worlddata.Table1Facilities() {
		found := false
		for _, f := range topo.Facilities {
			if f.Name == s.Name {
				found = true
				if topo.Cities[f.City].Name != s.CityName {
					t.Errorf("facility %s in %s, want %s", s.Name, topo.Cities[f.City].Name, s.CityName)
				}
				if f.ListedNets != s.NetCount {
					t.Errorf("facility %s ListedNets = %d, want %d", s.Name, f.ListedNets, s.NetCount)
				}
				if len(f.IXPs) != s.IXPCount {
					t.Errorf("facility %s IXPs = %d, want %d", s.Name, len(f.IXPs), s.IXPCount)
				}
			}
		}
		if !found {
			t.Errorf("Table-1 facility %s missing from topology", s.Name)
		}
	}
}

func TestBigFacilitiesHaveManyMembers(t *testing.T) {
	topo := testWorld(t)
	for _, f := range topo.Facilities {
		if f.ListedNets >= 150 && len(f.Members) < 15 {
			t.Errorf("large facility %s has only %d members", f.Name, len(f.Members))
		}
	}
}

func TestTier1FullMesh(t *testing.T) {
	topo := testWorld(t)
	t1s := topo.ASesOfType(Tier1)
	for i := 0; i < len(t1s); i++ {
		for j := i + 1; j < len(t1s); j++ {
			l := topo.LinkBetween(t1s[i].ASN, t1s[j].ASN)
			if l == nil {
				t.Fatalf("tier-1s %d and %d not linked", t1s[i].ASN, t1s[j].ASN)
			}
			if l.Rel != P2P {
				t.Fatalf("tier-1 link %d-%d is %v, want p2p", l.A, l.B, l.Rel)
			}
		}
	}
	// Tier-1s have no providers.
	for _, t1 := range t1s {
		if len(topo.Providers(t1.ASN)) != 0 {
			t.Errorf("tier-1 %d has providers", t1.ASN)
		}
	}
}

func TestEyeballsHaveTransit(t *testing.T) {
	topo := testWorld(t)
	for _, eye := range topo.ASesOfType(Eyeball) {
		if len(topo.Providers(eye.ASN)) == 0 {
			t.Errorf("eyeball %d (%s) has no providers", eye.ASN, eye.Name)
		}
		if eye.Coverage < 10 {
			t.Errorf("eyeball %d coverage %.1f below instantiation cutoff", eye.ASN, eye.Coverage)
		}
	}
}

func TestEyeballPoPsInHomeCountry(t *testing.T) {
	topo := testWorld(t)
	for _, eye := range topo.ASesOfType(Eyeball) {
		for _, c := range eye.PoPs {
			if topo.Cities[c].CC != eye.CC {
				t.Errorf("eyeball %s has PoP in %s (%s), outside home country %s",
					eye.Name, topo.Cities[c].Name, topo.Cities[c].CC, eye.CC)
			}
		}
	}
}

func TestResearchSubstrateShape(t *testing.T) {
	topo := testWorld(t)
	backbones := topo.ASesOfType(Backbone)
	if len(backbones) != len(worlddata.Continents()) {
		t.Fatalf("backbone count = %d, want %d", len(backbones), len(worlddata.Continents()))
	}
	// Every campus must reach a backbone within two provider hops.
	for _, campus := range topo.ASesOfType(Campus) {
		provs := topo.Providers(campus.ASN)
		if len(provs) == 0 {
			t.Fatalf("campus %s has no provider", campus.Name)
		}
		ok := false
		for _, p := range provs {
			pa := topo.AS(p)
			if pa.Type == Backbone {
				ok = true
				break
			}
			if pa.Type == NREN {
				for _, pp := range topo.Providers(p) {
					if topo.AS(pp).Type == Backbone {
						ok = true
					}
				}
			}
		}
		if !ok {
			t.Errorf("campus %s cannot reach a backbone in two hops", campus.Name)
		}
	}
	// NREN commercial hand-off is constrained to a single city.
	for _, nren := range topo.ASesOfType(NREN) {
		for _, p := range topo.Providers(nren.ASN) {
			if topo.AS(p).Type == Transit {
				l := topo.LinkBetween(nren.ASN, p)
				if len(l.Cities) != 1 {
					t.Errorf("NREN %s commercial hand-off spans %d cities, want 1", nren.Name, len(l.Cities))
				}
			}
		}
	}
}

func TestContentPeersWidely(t *testing.T) {
	topo := testWorld(t)
	total := 0
	for _, cdn := range topo.ASesOfType(Content) {
		total += len(topo.Peers(cdn.ASN))
	}
	avg := float64(total) / float64(len(topo.ASesOfType(Content)))
	if avg < 5 {
		t.Errorf("content networks average %.1f peers, want >= 5 (open peering)", avg)
	}
}

func TestLinksHaveInterconnects(t *testing.T) {
	topo := testWorld(t)
	for _, l := range topo.Links {
		if len(l.Cities) == 0 {
			t.Fatalf("link %d-%d has no interconnect cities", l.A, l.B)
		}
	}
}

func TestLinkBetweenSymmetric(t *testing.T) {
	topo := testWorld(t)
	l := topo.Links[0]
	if topo.LinkBetween(l.A, l.B) != topo.LinkBetween(l.B, l.A) {
		t.Fatal("LinkBetween not symmetric")
	}
	if topo.LinkBetween(l.A, l.A) != nil {
		t.Fatal("LinkBetween self returned a link")
	}
}

func TestOther(t *testing.T) {
	l := &Link{A: 1, B: 2}
	if o, ok := l.Other(1); !ok || o != 2 {
		t.Fatalf("Other(1) = %d, %v", o, ok)
	}
	if o, ok := l.Other(2); !ok || o != 1 {
		t.Fatalf("Other(2) = %d, %v", o, ok)
	}
	if _, ok := l.Other(3); ok {
		t.Fatal("Other(3) claimed membership")
	}
}

func TestSharedPoPCities(t *testing.T) {
	topo := testWorld(t)
	t1s := topo.ASesOfType(Tier1)
	shared := topo.SharedPoPCities(t1s[0], t1s[1])
	if len(shared) == 0 {
		t.Fatal("two tier-1s share no cities")
	}
	for _, c := range shared {
		if !t1s[0].HasPoP(c) || !t1s[1].HasPoP(c) {
			t.Fatalf("shared city %d not a PoP of both", c)
		}
	}
}

func TestNearestPoP(t *testing.T) {
	topo := testWorld(t)
	t1 := topo.ASesOfType(Tier1)[0]
	london := topo.CityIndex("London")
	got := topo.NearestPoP(t1, london)
	if got < 0 {
		t.Fatal("NearestPoP returned -1 for tier-1")
	}
	if t1.HasPoP(london) && got != london {
		t.Fatalf("NearestPoP to a PoP city = %d, want the city itself %d", got, london)
	}
}

func TestASTypeStrings(t *testing.T) {
	want := map[ASType]string{
		Tier1: "tier1", Transit: "transit", Content: "content",
		Eyeball: "eyeball", Backbone: "backbone", NREN: "nren",
		Campus: "campus", Enterprise: "enterprise",
	}
	for ty, s := range want {
		if ty.String() != s {
			t.Errorf("%d.String() = %q, want %q", ty, ty.String(), s)
		}
	}
	if C2P.String() != "c2p" || P2P.String() != "p2p" {
		t.Error("Rel strings wrong")
	}
}

func TestSmallWorldIsSmaller(t *testing.T) {
	g := rng.New(3)
	ds := apnic.Generate(g.Split("apnic"), apnic.DefaultParams(worlddata.CountryCodes()))
	small, err := Generate(g, SmallParams(), ds)
	if err != nil {
		t.Fatalf("Generate small: %v", err)
	}
	big := testWorld(t)
	if len(small.ASes) >= len(big.ASes) {
		t.Errorf("small world has %d ASes, not smaller than default %d", len(small.ASes), len(big.ASes))
	}
	if err := small.Validate(); err != nil {
		t.Fatalf("small world invalid: %v", err)
	}
}

func TestValidateCatchesProviderCycle(t *testing.T) {
	topo := newTopology(worlddata.Cities())
	topo.addAS(&AS{ASN: 1, Name: "a", Type: Transit, PoPs: []int{0}})
	topo.addAS(&AS{ASN: 2, Name: "b", Type: Transit, PoPs: []int{0}})
	topo.addLink(1, 2, C2P, []int{0})
	topo.addLink(2, 1, C2P, []int{0})
	// addLink merges duplicate pairs, so build the cycle by hand.
	topo.providers[2] = append(topo.providers[2], 1)
	topo.customers[1] = append(topo.customers[1], 2)
	if err := topo.Validate(); err == nil {
		t.Fatal("Validate accepted a provider cycle")
	}
}

func TestValidateCatchesUnreachableTier1(t *testing.T) {
	topo := newTopology(worlddata.Cities())
	topo.addAS(&AS{ASN: 1, Name: "stub", Type: Enterprise, PoPs: []int{0}})
	if err := topo.Validate(); err == nil {
		t.Fatal("Validate accepted an AS with no path to tier-1")
	}
}

func TestAddLinkMergesDuplicates(t *testing.T) {
	topo := newTopology(worlddata.Cities())
	topo.addAS(&AS{ASN: 1, Name: "a", Type: Tier1, PoPs: []int{0}})
	topo.addAS(&AS{ASN: 2, Name: "b", Type: Tier1, PoPs: []int{1}})
	l1 := topo.addLink(1, 2, P2P, []int{0})
	l2 := topo.addLink(2, 1, P2P, []int{1, 0})
	if l1 != l2 {
		t.Fatal("duplicate link not merged")
	}
	if len(l1.Cities) != 2 {
		t.Fatalf("merged link has %d cities, want 2", len(l1.Cities))
	}
	if len(topo.Links) != 1 {
		t.Fatalf("links = %d, want 1", len(topo.Links))
	}
}

// refSharedFacilityCities is the facility scan that SharedFacilityCities
// replaced, kept verbatim as its reference: it walks every facility's
// member list.
func refSharedFacilityCities(t *Topology, a, b ASN) []int {
	seen := make(map[int]bool)
	var out []int
	for _, f := range t.Facilities {
		if f.HasMember(a) && f.HasMember(b) && !seen[f.City] {
			seen[f.City] = true
			out = append(out, f.City)
		}
	}
	sort.Ints(out)
	return out
}

// TestSharedFacilityCitiesMatchesScan holds the per-AS facility index to
// the scan on every AS pair of the small and default topologies: the
// same cities in the same order, and nil exactly when the scan is nil.
// The topology stream draws a coin only when the answer is non-empty,
// so one differing answer would shift every later draw.
func TestSharedFacilityCitiesMatchesScan(t *testing.T) {
	g := rng.New(1)
	ds := apnic.Generate(g.Split("apnic"), apnic.DefaultParams(worlddata.CountryCodes()))
	small, err := Generate(g, SmallParams(), ds)
	if err != nil {
		t.Fatal(err)
	}
	for _, topo := range []*Topology{small, testWorld(t)} {
		shared := 0
		for i, a := range topo.ASes {
			for _, b := range topo.ASes[i:] {
				got, want := topo.SharedFacilityCities(a.ASN, b.ASN), refSharedFacilityCities(topo, a.ASN, b.ASN)
				if !slices.Equal(got, want) || (got == nil) != (want == nil) {
					t.Fatalf("SharedFacilityCities(%d, %d) = %#v, scan %#v", a.ASN, b.ASN, got, want)
				}
				if len(got) > 0 {
					shared++
				}
			}
		}
		if shared == 0 {
			t.Fatalf("no AS pair of the %d-AS topology shares a facility", len(topo.ASes))
		}
	}
	manual := NewManual(worlddata.Cities())
	manual.AddAS(&AS{ASN: 1, PoPs: []int{0}})
	if got := manual.SharedFacilityCities(1, 1); got != nil {
		t.Fatalf("manual topology without facilities shares %v", got)
	}
}
