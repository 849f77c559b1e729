package sim

import (
	"fmt"
	"strings"
	"testing"

	"shortcuts/internal/relays"
	"shortcuts/internal/topology"
)

func TestBuildDefaultWorld(t *testing.T) {
	w, err := Build(DefaultWorldParams(1))
	if err != nil {
		t.Fatal(err)
	}
	if w.Topo == nil || w.Router == nil || w.Engine == nil || w.Catalog == nil {
		t.Fatal("world has nil components")
	}
	if len(w.Catalog.OfType(relays.COR)) == 0 {
		t.Fatal("no COR relays survived the pipeline")
	}
	if len(w.Catalog.OfType(relays.PLR)) == 0 {
		t.Fatal("no PLR relays")
	}
	if len(w.Catalog.OfType(relays.RAREye)) == 0 {
		t.Fatal("no RAR_eye relays")
	}
	if len(w.Catalog.OfType(relays.RAROther)) == 0 {
		t.Fatal("no RAR_other relays")
	}
	if len(w.Selector.Countries()) < 50 {
		t.Fatalf("only %d endpoint countries", len(w.Selector.Countries()))
	}
}

func TestBuildSmallWorld(t *testing.T) {
	w, err := Build(SmallWorldParams(3))
	if err != nil {
		t.Fatal(err)
	}
	if len(w.Catalog.Relays) == 0 {
		t.Fatal("empty catalog")
	}
}

func TestWorldDeterministic(t *testing.T) {
	a, err := Build(SmallWorldParams(7))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Build(SmallWorldParams(7))
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Catalog.Relays) != len(b.Catalog.Relays) {
		t.Fatalf("catalog sizes differ: %d vs %d", len(a.Catalog.Relays), len(b.Catalog.Relays))
	}
	for i := range a.Catalog.Relays {
		if a.Catalog.Relays[i].ID != b.Catalog.Relays[i].ID {
			t.Fatalf("relay %d differs: %s vs %s", i, a.Catalog.Relays[i].ID, b.Catalog.Relays[i].ID)
		}
	}
	if a.Catalog.Funnel != b.Catalog.Funnel {
		t.Fatalf("funnels differ: %+v vs %+v", a.Catalog.Funnel, b.Catalog.Funnel)
	}
}

// worldFingerprint digests everything downstream consumers can observe
// about a built world (catalog identity and order, funnel, platform
// sizes, selector geography) so builds can be compared for equality.
func worldFingerprint(t *testing.T, w *World) string {
	t.Helper()
	var sb strings.Builder
	fmt.Fprintf(&sb, "ases=%d cities=%d links=%d facs=%d|",
		len(w.Topo.ASes), len(w.Topo.Cities), len(w.Topo.Links), len(w.Topo.Facilities))
	fmt.Fprintf(&sb, "probes=%d plnodes=%d lgs=%d prefixes=%d facrecs=%d|",
		w.Atlas.Len(), len(w.PlanetLab.Nodes()), len(w.Periscope.LGs()),
		w.Prefixes.Size(), len(w.FacMap.Records))
	fmt.Fprintf(&sb, "funnel=%+v|countries=%v|", w.Catalog.Funnel, w.Selector.Countries())
	for i := range w.Catalog.Relays {
		r := &w.Catalog.Relays[i]
		fmt.Fprintf(&sb, "%s/%d/%d/%d;", r.ID, r.Endpoint.AS, r.City, r.Endpoint.Access)
	}
	return sb.String()
}

func TestParallelBuildMatchesSequential(t *testing.T) {
	seq, err := BuildWith(SmallWorldParams(11), BuildOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 8} {
		par, err := BuildWith(SmallWorldParams(11), BuildOptions{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if got, want := worldFingerprint(t, par), worldFingerprint(t, seq); got != want {
			t.Fatalf("parallel build (workers=%d) differs from sequential", workers)
		}
	}
}

func TestBuildWarmsCampaignDestinations(t *testing.T) {
	w, err := BuildWith(SmallWorldParams(5), BuildOptions{Workers: 0, WarmRoutes: true})
	if err != nil {
		t.Fatal(err)
	}
	dsts := w.CampaignDestinations()
	if len(dsts) == 0 {
		t.Fatal("no campaign destinations")
	}
	seen := make(map[topology.ASN]bool)
	for _, d := range dsts {
		if seen[d] {
			t.Fatalf("duplicate destination AS %d", d)
		}
		seen[d] = true
	}
	if got := w.Router.CachedTrees(); got < len(dsts) {
		t.Fatalf("only %d trees cached after warm build, want >= %d", got, len(dsts))
	}
	// Campaign traffic must not trigger any further tree computation for
	// warmed destinations.
	before := w.Router.TreeComputations()
	src := w.Selector.ASes()[0]
	for _, d := range dsts {
		if src == d {
			continue
		}
		if _, err := w.Router.ASPath(src, d); err != nil {
			t.Fatalf("ASPath(%d,%d): %v", src, d, err)
		}
	}
	if got := w.Router.TreeComputations(); got != before {
		t.Fatalf("warmed router computed %d more trees on use", got-before)
	}
}
