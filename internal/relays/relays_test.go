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
	for _, idx := range w.Catalog.OfType(relays.COR) {
		r := w.Catalog.Relays[idx]
		fac, ok := w.Registry.Facility(r.FacilityPDB)
		if !ok {
			t.Fatalf("COR %s references unknown facility %d", r.ID, r.FacilityPDB)
		}
		if fac.City != r.City {
			t.Errorf("COR %s city %d != facility city %d", r.ID, r.City, fac.City)
		}
		if !fac.HasMember(r.Endpoint.AS) {
			t.Errorf("COR %s AS %d not a member of %s", r.ID, r.Endpoint.AS, fac.Name)
		}
		if r.Endpoint.Access > time.Millisecond {
			t.Errorf("COR %s access %v too large for a colo interface", r.ID, r.Endpoint.Access)
		}
	}
}

func TestRelayTypesPartitionProbes(t *testing.T) {
	w := testWorld(t)
	for _, idx := range w.Catalog.OfType(relays.RAREye) {
		r := w.Catalog.Relays[idx]
		if !w.Selector.IsEyeball(r.Endpoint.AS, r.CC) {
			t.Errorf("RAR_eye relay %s not in a verified eyeball tuple", r.ID)
		}
	}
	for _, idx := range w.Catalog.OfType(relays.RAROther) {
		r := w.Catalog.Relays[idx]
		if w.Selector.IsEyeball(r.Endpoint.AS, r.CC) {
			t.Errorf("RAR_other relay %s is in a verified eyeball tuple", r.ID)
		}
	}
}

func TestPLRRelaysAreCampusNodes(t *testing.T) {
	w := testWorld(t)
	for _, idx := range w.Catalog.OfType(relays.PLR) {
		r := w.Catalog.Relays[idx]
		if w.Topo.AS(r.Endpoint.AS).Type != topology.Campus {
			t.Errorf("PLR %s hosted by %v", r.ID, w.Topo.AS(r.Endpoint.AS).Type)
		}
		if !strings.HasPrefix(r.ID, "plr-") {
			t.Errorf("PLR id %q", r.ID)
		}
	}
}

// TestCatalogIndicesStable: a relay's index is its catalog position.
// Every OfType list is ascending and holds only relays of its type, the
// four lists together cover the catalog, and relay IDs are unique.
func TestCatalogIndicesStable(t *testing.T) {
	w := testWorld(t)
	listed := 0
	for typ := relays.Type(0); typ < relays.NumTypes; typ++ {
		idxs := w.Catalog.OfType(typ)
		for k, i := range idxs {
			if k > 0 && i <= idxs[k-1] {
				t.Fatalf("%v list not ascending at %d: %d after %d", typ, k, i, idxs[k-1])
			}
			if got := w.Catalog.Relays[i].Type; got != typ {
				t.Fatalf("%v list holds relay %d of type %v", typ, i, got)
			}
		}
		listed += len(idxs)
	}
	if listed != len(w.Catalog.Relays) {
		t.Fatalf("type lists hold %d indices, catalog has %d relays", listed, len(w.Catalog.Relays))
	}
	seen := make(map[string]bool)
	for _, r := range w.Catalog.Relays {
		if seen[r.ID] {
			t.Fatalf("duplicate relay ID %s", r.ID)
		}
		seen[r.ID] = true
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
		cc := w.Catalog.Relays[idx].CC
		if seen[cc] {
			t.Fatalf("two RAR_eye relays in %s", cc)
		}
		seen[cc] = true
	}
	seen = make(map[string]bool)
	for _, idx := range set.ByType[relays.RAROther] {
		cc := w.Catalog.Relays[idx].CC
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
		perFacility[w.Catalog.Relays[idx].FacilityPDB]++
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
			if exclude[w.Catalog.Relays[idx].ProbeID] {
				t.Fatalf("relay %s uses an endpoint probe", w.Catalog.Relays[idx].ID)
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
