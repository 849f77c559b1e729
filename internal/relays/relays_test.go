package relays_test

import (
	"strings"
	"testing"
	"time"

	"shortcuts/internal/atlas"
	"shortcuts/internal/relays"
	"shortcuts/internal/rng"
	"shortcuts/internal/sim"
	"shortcuts/internal/topology"
	"shortcuts/internal/worlddata"
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

func TestFunnelMatchesPaperShape(t *testing.T) {
	w := testWorld(t)
	f := w.Catalog.Funnel
	if f.Initial != 2675 {
		t.Errorf("initial = %d, want 2675", f.Initial)
	}
	check := func(name string, got, paper, tolPct int) {
		lo := paper - paper*tolPct/100
		hi := paper + paper*tolPct/100
		if got < lo || got > hi {
			t.Errorf("%s = %d, want %d ±%d%%", name, got, paper, tolPct)
		}
	}
	check("single-facility & active PDB", f.SingleFacilityActive, 1008, 10)
	check("pingable", f.Pingable, 764, 10)
	check("same ownership", f.SameOwnership, 725, 10)
	check("active facility presence", f.ActiveFacilityPresence, 725, 10)
	check("geolocated", f.Geolocated, 356, 20)
	check("facilities", f.Facilities, 58, 25)
	check("cities", f.Cities, 36, 30)
	// The funnel must be monotone non-increasing.
	seq := []int{f.Initial, f.SingleFacilityActive, f.Pingable, f.SameOwnership,
		f.ActiveFacilityPresence, f.Geolocated}
	for i := 1; i < len(seq); i++ {
		if seq[i] > seq[i-1] {
			t.Fatalf("funnel not monotone at stage %d: %v", i, seq)
		}
	}
}

func TestCORRelaysAreAtFacilities(t *testing.T) {
	w := testWorld(t)
	for _, idx := range ofType(w.Catalog, relays.COR) {
		r := w.Catalog.Relay(idx)
		fac, ok := w.Registry.Facility(r.FacilityPDB)
		if !ok {
			t.Fatalf("COR %s references unknown facility %d", r.ID(), r.FacilityPDB)
		}
		if fac.City != r.City {
			t.Errorf("COR %s city %d != facility city %d", r.ID(), r.City, fac.City)
		}
		if !fac.HasMember(r.Endpoint.AS) {
			t.Errorf("COR %s AS %d not a member of %s", r.ID(), r.Endpoint.AS, fac.Name)
		}
		if r.Endpoint.Access > time.Millisecond {
			t.Errorf("COR %s access %v too large for a colo interface", r.ID(), r.Endpoint.Access)
		}
	}
}

func TestRelayTypesPartitionProbes(t *testing.T) {
	w := testWorld(t)
	for _, idx := range ofType(w.Catalog, relays.RAREye) {
		r := w.Catalog.Relay(idx)
		if !w.Selector.IsEyeball(r.Endpoint.AS, r.CC) {
			t.Errorf("RAR_eye relay %s not in a verified eyeball tuple", r.ID())
		}
	}
	for _, idx := range ofType(w.Catalog, relays.RAROther) {
		r := w.Catalog.Relay(idx)
		if w.Selector.IsEyeball(r.Endpoint.AS, r.CC) {
			t.Errorf("RAR_other relay %s is in a verified eyeball tuple", r.ID())
		}
	}
}

func TestPLRRelaysAreCampusNodes(t *testing.T) {
	w := testWorld(t)
	for _, idx := range ofType(w.Catalog, relays.PLR) {
		r := w.Catalog.Relay(idx)
		if w.Topo.AS(r.Endpoint.AS).Type != topology.Campus {
			t.Errorf("PLR %s hosted by %v", r.ID(), w.Topo.AS(r.Endpoint.AS).Type)
		}
		if !strings.HasPrefix(r.ID(), "plr-") {
			t.Errorf("PLR id %q", r.ID())
		}
	}
}

// ofType lists the indices of type t's relays, ascending.
func ofType(c *relays.Catalog, t relays.Type) []int {
	var idxs []int
	lo, hi := c.Span(t)
	for i := lo; i < hi; i++ {
		if c.Type(i) == t {
			idxs = append(idxs, i)
		}
	}
	return idxs
}

// TestCatalogIndicesStable: a relay's index is its catalog position.
// Each type's span lists only relays of that type, as many as Count
// reports, the four lists together cover the catalog, relay IDs are
// unique, and CC reads each relay's country.
func TestCatalogIndicesStable(t *testing.T) {
	w := testWorld(t)
	listed := 0
	for typ := relays.Type(0); typ < relays.NumTypes; typ++ {
		idxs := ofType(w.Catalog, typ)
		for _, i := range idxs {
			if got := w.Catalog.Relay(i).Type; got != typ {
				t.Fatalf("%v list holds relay %d of type %v", typ, i, got)
			}
		}
		if len(idxs) != w.Catalog.Count(typ) {
			t.Fatalf("%v list holds %d relays, Count says %d", typ, len(idxs), w.Catalog.Count(typ))
		}
		listed += len(idxs)
	}
	if listed != w.Catalog.Len() {
		t.Fatalf("type lists hold %d indices, catalog has %d relays", listed, w.Catalog.Len())
	}
	seen := make(map[string]bool)
	for i := range w.Catalog.Len() {
		r := w.Catalog.Relay(i)
		if seen[r.ID()] {
			t.Fatalf("duplicate relay ID %s", r.ID())
		}
		seen[r.ID()] = true
		if cc := w.Catalog.CC(i); cc != r.CC {
			t.Fatalf("CC(%d) = %q, relay is in %q", i, cc, r.CC)
		}
	}
}

func TestSampleRoundQuotas(t *testing.T) {
	w := testWorld(t)
	g := rng.New(99)
	set := w.Sampler.SampleRound(g, 0, nil)
	// Paper round averages: 129 COR / 59 PLR / 82 RAR_eye / 102 RAR_other.
	if n := len(set.ByType[relays.COR]); n < 70 || n > 190 {
		t.Errorf("COR sample = %d, want ~129", n)
	}
	if n := len(set.ByType[relays.PLR]); n < 30 || n > 100 {
		t.Errorf("PLR sample = %d, want ~59", n)
	}
	if n := len(set.ByType[relays.RAREye]); n < 50 || n > 90 {
		t.Errorf("RAR_eye sample = %d, want ~82 (one per country)", n)
	}
	if n := len(set.ByType[relays.RAROther]); n < 40 || n > 90 {
		t.Errorf("RAR_other sample = %d, want roughly one per covered country", n)
	}
}

func TestSampleRoundOneEyePerCountry(t *testing.T) {
	w := testWorld(t)
	set := w.Sampler.SampleRound(rng.New(5), 2, nil)
	seen := make(map[string]bool)
	for _, idx := range set.ByType[relays.RAREye] {
		cc := w.Catalog.Relay(idx).CC
		if seen[cc] {
			t.Fatalf("two RAR_eye relays in %s", cc)
		}
		seen[cc] = true
	}
	seen = make(map[string]bool)
	for _, idx := range set.ByType[relays.RAROther] {
		cc := w.Catalog.Relay(idx).CC
		if seen[cc] {
			t.Fatalf("two RAR_other relays in %s", cc)
		}
		seen[cc] = true
	}
}

func TestSampleRoundCORCoversFacilities(t *testing.T) {
	w := testWorld(t)
	set := w.Sampler.SampleRound(rng.New(5), 1, nil)
	perFacility := make(map[int]int)
	for _, idx := range set.ByType[relays.COR] {
		perFacility[w.Catalog.Relay(idx).FacilityPDB]++
	}
	if len(perFacility) != w.Catalog.Funnel.Facilities {
		t.Errorf("sample covers %d facilities, catalog has %d", len(perFacility), w.Catalog.Funnel.Facilities)
	}
	for pdb, n := range perFacility {
		if n < 1 || n > 3 {
			t.Errorf("facility %d sampled %d IPs, want 1-3", pdb, n)
		}
	}
}

func TestSampleRoundExcludesEndpointProbes(t *testing.T) {
	w := testWorld(t)
	eps := w.Selector.SampleEndpoints(rng.New(7), 0)
	exclude := make(map[atlas.ProbeID]bool)
	for _, row := range eps {
		exclude[w.Atlas.ID(row)] = true
	}
	set := w.Sampler.SampleRound(rng.New(7), 0, exclude)
	for _, ty := range []relays.Type{relays.RAREye, relays.RAROther} {
		for _, idx := range set.ByType[ty] {
			if r := w.Catalog.Relay(idx); exclude[r.ProbeID] {
				t.Fatalf("relay %s uses an endpoint probe", r.ID())
			}
		}
	}
}

func TestSampleRoundDeterministic(t *testing.T) {
	w := testWorld(t)
	a := w.Sampler.SampleRound(rng.New(3), 4, nil)
	b := w.Sampler.SampleRound(rng.New(3), 4, nil)
	for ty := 0; ty < relays.NumTypes; ty++ {
		if len(a.ByType[ty]) != len(b.ByType[ty]) {
			t.Fatalf("type %d sample sizes differ", ty)
		}
		for i := range a.ByType[ty] {
			if a.ByType[ty][i] != b.ByType[ty][i] {
				t.Fatalf("type %d sample differs at %d", ty, i)
			}
		}
	}
}

func TestSampleVariesAcrossRounds(t *testing.T) {
	w := testWorld(t)
	g := rng.New(3)
	a := w.Sampler.SampleRound(g, 0, nil)
	b := w.Sampler.SampleRound(g, 1, nil)
	same := 0
	for i := range a.ByType[relays.COR] {
		if i < len(b.ByType[relays.COR]) && a.ByType[relays.COR][i] == b.ByType[relays.COR][i] {
			same++
		}
	}
	if same == len(a.ByType[relays.COR]) {
		t.Fatal("COR samples identical across rounds")
	}
}

func TestTypeStrings(t *testing.T) {
	want := map[relays.Type]string{
		relays.COR: "COR", relays.PLR: "PLR",
		relays.RAREye: "RAR_eye", relays.RAROther: "RAR_other",
	}
	for ty, s := range want {
		if ty.String() != s {
			t.Errorf("%d.String() = %q, want %q", ty, ty.String(), s)
		}
	}
}

var cachedScaleWorld *sim.World

// testScaleWorld is the sharded 100k-endpoint tier, built once.
func testScaleWorld(t *testing.T) *sim.World {
	t.Helper()
	if cachedScaleWorld != nil {
		return cachedScaleWorld
	}
	w, err := sim.Build(sim.ScaleWorldParams(1, 100_000))
	if err != nil {
		t.Fatal(err)
	}
	cachedScaleWorld = w
	return w
}

// TestRARRelaysAreAtlasRows pins the catalog's RAR layout on both fleet
// generators: RAR relay base+k is the k-th eligible atlas row, read from
// the fleet's columns, typed by the eyeball predicate, and found again
// by its ID.
func TestRARRelaysAreAtlasRows(t *testing.T) {
	for _, tc := range []struct {
		name  string
		world func(*testing.T) *sim.World
	}{
		{"sequential", testWorld},
		{"sharded", testScaleWorld},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w := tc.world(t)
			cat, fleet := w.Catalog, w.Atlas
			base := cat.Count(relays.COR) + cat.Count(relays.PLR)
			eligible := 0
			for row := range int32(fleet.Len()) {
				if fleet.Eligible(row) {
					eligible++
				}
			}
			if n := cat.Len() - base; n != eligible || n != cat.Count(relays.RAREye)+cat.Count(relays.RAROther) {
				t.Fatalf("%d RAR relays, %d eligible rows, type counts %d+%d", n, eligible,
					cat.Count(relays.RAREye), cat.Count(relays.RAROther))
			}
			prev := int32(-1)
			for i := base; i < cat.Len(); i++ {
				r := cat.Relay(i)
				row := fleet.Row(r.ProbeID)
				if row <= prev || !fleet.Eligible(row) {
					t.Fatalf("relay %d: row %d after %d, eligible %v", i, row, prev, row >= 0 && fleet.Eligible(row))
				}
				prev = row
				if r.Endpoint != fleet.Endpoint(row) || r.CC != fleet.CC(row) || r.City != fleet.City(row) ||
					r.ProbeID != fleet.ID(row) || cat.City(i) != r.City || cat.CC(i) != r.CC {
					t.Fatalf("relay %d = %+v, row %d is %+v", i, r, row, fleet.Probe(row))
				}
				want := relays.RAROther
				if w.Selector.IsEyeball(fleet.AS(row), fleet.CC(row)) {
					want = relays.RAREye
				}
				if r.Type != want || cat.Type(i) != want {
					t.Fatalf("relay %d is %v (Type %v), want %v", i, r.Type, cat.Type(i), want)
				}
				if j, ok := cat.Lookup(r.ID()); !ok || j != i {
					t.Fatalf("Lookup(%q) = %d, %v, want %d", r.ID(), j, ok, i)
				}
			}
		})
	}
}

// TestBuildCatalogAllocs gates the catalog's storage: at the 100k tier
// a build allocates per COR and PLR relay and per country, never per RAR
// relay (the tier has ~110k).
func TestBuildCatalogAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; alloc budget is pinned in the plain test run")
	}
	w := testScaleWorld(t)
	d := relays.Deps{
		Topo:      w.Topo,
		Registry:  w.Registry,
		FacMap:    w.FacMap,
		Prefixes:  w.Prefixes,
		Periscope: w.Periscope,
		Atlas:     w.Atlas,
		PlanetLab: w.PlanetLab,
		IsEyeball: w.Selector.IsEyeball,
	}
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := relays.BuildCatalog(rng.New(w.Params.Seed), d); err != nil {
			t.Fatal(err)
		}
	})
	budget := 4 * (w.Catalog.Count(relays.COR) + w.Catalog.Count(relays.PLR) + len(worlddata.CountryCodes()))
	if allocs > float64(budget) {
		t.Errorf("BuildCatalog makes %.0f allocations at the 100k tier, want <= %d (4 per COR relay, PLR relay and country)", allocs, budget)
	}
}

// TestCatalogAccessorsAllocateNothing: reading a relay, its type,
// city and country, and looking up an ID, found or malformed, allocate nothing.
func TestCatalogAccessorsAllocateNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; alloc budget is pinned in the plain test run")
	}
	cat := testWorld(t).Catalog
	last := cat.Len() - 1
	id := cat.Relay(last).ID()
	allocs := testing.AllocsPerRun(100, func() {
		if i, ok := cat.Lookup(id); !ok || i != last {
			t.Fatalf("Lookup(%q) = %d, %v", id, i, ok)
		}
		if _, ok := cat.Lookup("rar-eye-12345678901234567890"); ok {
			t.Fatal("a 20-digit probe ID was found")
		}
		_ = cat.Relay(last)
		_ = cat.Type(last)
		_ = cat.City(last)
		_ = cat.CC(last)
	})
	if allocs != 0 {
		t.Errorf("catalog accessors make %.1f allocations, want 0", allocs)
	}
}
