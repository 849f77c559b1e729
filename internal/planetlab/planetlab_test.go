package planetlab

import (
	"strings"
	"testing"
	"time"

	"shortcuts/internal/datasets/apnic"
	"shortcuts/internal/rng"
	"shortcuts/internal/topology"
	"shortcuts/internal/worlddata"
)

func testRegistry(t *testing.T) (*topology.Topology, *Registry) {
	t.Helper()
	g := rng.New(1)
	ap := apnic.Generate(g.Split("apnic"), apnic.DefaultParams(worlddata.CountryCodes()))
	topo, err := topology.Generate(g, topology.DefaultParams(), ap)
	if err != nil {
		t.Fatal(err)
	}
	return topo, Generate(g, topo, DefaultParams())
}

func TestScaleMatchesPaper(t *testing.T) {
	_, r := testRegistry(t)
	// Paper: 500 candidate nodes at 62 sites.
	if n := len(r.Sites()); n < 35 || n > 90 {
		t.Errorf("sites = %d, want ~62 (±45%%)", n)
	}
	if n := len(r.Nodes()); n < 250 || n > 750 {
		t.Errorf("nodes = %d, want ~500 (±50%%)", n)
	}
}

func TestSitesAreCampuses(t *testing.T) {
	topo, r := testRegistry(t)
	for _, s := range r.Sites() {
		if topo.AS(s.AS).Type != topology.Campus {
			t.Errorf("site %s hosted by %v", s.Name, topo.AS(s.AS).Type)
		}
		if topo.AS(s.AS).HomeCity() != s.City {
			t.Errorf("site %s city mismatch", s.Name)
		}
	}
}

func TestNodesBelongToSites(t *testing.T) {
	_, r := testRegistry(t)
	for _, n := range r.Nodes() {
		if n.Site == nil {
			t.Fatalf("node %d has no site", n.ID)
		}
		if !strings.Contains(n.Hostname, "planet-lab.org") {
			t.Errorf("hostname %q not planet-lab.org", n.Hostname)
		}
		// Access includes the time-sharing load penalty (0.4-4.5 ms) on
		// top of the campus attachment (0.1-0.6 ms).
		if n.Access < 400*time.Microsecond || n.Access > 5200*time.Microsecond {
			t.Errorf("node %d access %v outside loaded-server range", n.ID, n.Access)
		}
	}
}

func TestUsableFlaky(t *testing.T) {
	_, r := testRegistry(t)
	down, total := 0, 0
	for i, n := range r.Nodes() {
		if i%3 != 0 {
			continue
		}
		for round := 0; round < 15; round++ {
			if r.Usable(n.ID, round) != r.Usable(n.ID, round) {
				t.Fatal("Usable not deterministic")
			}
			total++
			if !r.Usable(n.ID, round) {
				down++
			}
		}
	}
	rate := float64(down) / float64(total)
	if rate < 0.2 || rate > 0.42 {
		t.Fatalf("flaky rate = %.3f, want ~0.30", rate)
	}
}

func TestGeoPresenceComparableToCOR(t *testing.T) {
	// Footnote 3: PLR and COR have geo-presence at a comparable number of
	// sites (~60). Check countries spread is reasonable.
	_, r := testRegistry(t)
	if n := len(r.Countries()); n < 15 {
		t.Errorf("PlanetLab spans %d countries, want >= 15", n)
	}
}

func TestEndpointAttachment(t *testing.T) {
	_, r := testRegistry(t)
	n := r.Nodes()[0]
	ep := n.Endpoint()
	if ep.AS != n.Site.AS || ep.City != n.Site.City || ep.Access != n.Access {
		t.Fatalf("Endpoint() = %+v, inconsistent with node", ep)
	}
}
