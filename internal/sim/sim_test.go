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
	if w.Catalog.Count(relays.COR) == 0 {
		t.Fatal("no COR relays survived the pipeline")
	}
	if w.Catalog.Count(relays.PLR) == 0 {
		t.Fatal("no PLR relays")
	}
	if w.Catalog.Count(relays.RAREye) == 0 {
		t.Fatal("no RAR_eye relays")
	}
	if w.Catalog.Count(relays.RAROther) == 0 {
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
	if w.Catalog.Len() == 0 {
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
	if a.Catalog.Len() != b.Catalog.Len() {
		t.Fatalf("catalog sizes differ: %d vs %d", a.Catalog.Len(), b.Catalog.Len())
	}
	for i := range a.Catalog.Len() {
		if ida, idb := a.Catalog.Relay(i).ID(), b.Catalog.Relay(i).ID(); ida != idb {
			t.Fatalf("relay %d differs: %s vs %s", i, ida, idb)
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
	for i := range w.Catalog.Len() {
		r := w.Catalog.Relay(i)
		fmt.Fprintf(&sb, "%s/%d/%d/%d;", r.ID(), r.Endpoint.AS, r.City, r.Endpoint.Access)
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

// checkCampaignDestinations requires w's campaign destinations to be
// the reference set, every selector AS and every relay's AS read
// through Catalog.Relay, each exactly once.
func checkCampaignDestinations(t *testing.T, w *World) []topology.ASN {
	t.Helper()
	want := make(map[topology.ASN]bool)
	for _, a := range w.Selector.ASes() {
		want[a] = true
	}
	for i := range w.Catalog.Len() {
		want[w.Catalog.Relay(i).Endpoint.AS] = true
	}
	dsts := w.CampaignDestinations()
	seen := make(map[topology.ASN]bool)
	for _, d := range dsts {
		if seen[d] {
			t.Fatalf("duplicate destination AS %d", d)
		}
		if !want[d] {
			t.Fatalf("destination AS %d is neither a selector AS nor a relay AS", d)
		}
		seen[d] = true
	}
	if len(seen) != len(want) {
		t.Fatalf("%d destinations, want the %d selector and relay ASes", len(seen), len(want))
	}
	return dsts
}

func TestBuildWarmsCampaignDestinations(t *testing.T) {
	scale, err := BuildWith(ScaleWorldParams(3, 20_000), BuildOptions{WarmRoutes: false})
	if err != nil {
		t.Fatal(err)
	}
	checkCampaignDestinations(t, scale)

	w, err := BuildWith(SmallWorldParams(5), BuildOptions{Workers: 0, WarmRoutes: true})
	if err != nil {
		t.Fatal(err)
	}
	dsts := checkCampaignDestinations(t, w)
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
