package bgp

import (
	"sync"
	"testing"

	"shortcuts/internal/datasets/apnic"
	"shortcuts/internal/geo"
	"shortcuts/internal/rng"
	"shortcuts/internal/topology"
	"shortcuts/internal/worlddata"
)

var (
	cachedTopo   *topology.Topology
	cachedRouter *Router
)

func testRouter(t *testing.T) *Router {
	t.Helper()
	if cachedRouter != nil {
		return cachedRouter
	}
	g := rng.New(1)
	ds := apnic.Generate(g.Split("apnic"), apnic.DefaultParams(worlddata.CountryCodes()))
	topo, err := topology.Generate(g, topology.DefaultParams(), ds)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	cachedTopo = topo
	cachedRouter = New(topo)
	return cachedRouter
}

// relOnPath classifies the directed step a->b: +1 uphill (customer to
// provider), -1 downhill, 0 peering.
func relOnPath(t *testing.T, topo *topology.Topology, a, b topology.ASN) int {
	t.Helper()
	l := topo.LinkBetween(a, b)
	if l == nil {
		t.Fatalf("path step %d->%d has no link", a, b)
	}
	if l.Rel == topology.P2P {
		return 0
	}
	if l.A == a {
		return +1 // a is customer of b: uphill
	}
	return -1
}

func checkValleyFree(t *testing.T, topo *topology.Topology, path []topology.ASN) {
	t.Helper()
	// Pattern must match up* peer? down*.
	const (
		climbing = iota
		peered
		descending
	)
	state := climbing
	for i := 0; i+1 < len(path); i++ {
		switch relOnPath(t, topo, path[i], path[i+1]) {
		case +1:
			if state != climbing {
				t.Fatalf("valley in path %v: uphill after %d", path, state)
			}
		case 0:
			if state != climbing {
				t.Fatalf("second lateral step in path %v", path)
			}
			state = peered
		case -1:
			state = descending
		}
	}
}

func TestASPathTrivial(t *testing.T) {
	r := testRouter(t)
	asn := r.Topology().ASes[0].ASN
	p, err := r.ASPath(asn, asn)
	if err != nil || len(p) != 1 || p[0] != asn {
		t.Fatalf("ASPath(x,x) = %v, %v", p, err)
	}
}

func TestASPathUnknownAS(t *testing.T) {
	r := testRouter(t)
	if _, err := r.ASPath(999999, r.Topology().ASes[0].ASN); err == nil {
		t.Fatal("unknown source accepted")
	}
	if _, err := r.ASPath(r.Topology().ASes[0].ASN, 999999); err == nil {
		t.Fatal("unknown destination accepted")
	}
}

func TestAllEyeballPairsRoutable(t *testing.T) {
	r := testRouter(t)
	eyes := r.Topology().ASesOfType(topology.Eyeball)
	// Sample pairs across the full list (all-pairs would be ~40k paths).
	for i := 0; i < len(eyes); i += 7 {
		for j := 1; j < len(eyes); j += 13 {
			if i == j {
				continue
			}
			p, err := r.ASPath(eyes[i].ASN, eyes[j].ASN)
			if err != nil {
				t.Fatalf("no route %v -> %v: %v", eyes[i].ASN, eyes[j].ASN, err)
			}
			if p[0] != eyes[i].ASN || p[len(p)-1] != eyes[j].ASN {
				t.Fatalf("path endpoints wrong: %v", p)
			}
		}
	}
}

func TestPathsAreValleyFree(t *testing.T) {
	r := testRouter(t)
	topo := r.Topology()
	all := topo.ASes
	// Deterministic sample over all type combinations.
	for i := 0; i < len(all); i += 11 {
		for j := 5; j < len(all); j += 17 {
			if all[i].ASN == all[j].ASN {
				continue
			}
			p, err := r.ASPath(all[i].ASN, all[j].ASN)
			if err != nil {
				t.Fatalf("no route %v(%v) -> %v(%v): %v",
					all[i].ASN, all[i].Type, all[j].ASN, all[j].Type, err)
			}
			checkValleyFree(t, topo, p)
		}
	}
}

func TestPathsLoopFree(t *testing.T) {
	r := testRouter(t)
	all := r.Topology().ASes
	for i := 0; i < len(all); i += 13 {
		for j := 3; j < len(all); j += 19 {
			if all[i].ASN == all[j].ASN {
				continue
			}
			p, err := r.ASPath(all[i].ASN, all[j].ASN)
			if err != nil {
				t.Fatal(err)
			}
			seen := make(map[topology.ASN]bool, len(p))
			for _, asn := range p {
				if seen[asn] {
					t.Fatalf("loop in path %v", p)
				}
				seen[asn] = true
			}
		}
	}
}

func TestCustomerRoutePreferredOverShorterProviderRoute(t *testing.T) {
	// Build a diamond where the policy-preferred route is longer:
	//   dst is a customer two levels below src via customers, and also
	//   reachable in one hop via src's provider-learned route... simpler:
	//   src has a customer route of length 2 and a peer route of length 1;
	//   Gao-Rexford must pick the customer route.
	topo := buildMiniTopo(t)
	r := New(topo)
	// In the mini topology: AS 1 (provider) - AS 2 (middle) - AS 3 (leaf),
	// AS 4 peers with AS 1 and is a provider of AS 3.
	p, err := r.ASPath(1, 3)
	if err != nil {
		t.Fatal(err)
	}
	want := []topology.ASN{1, 2, 3}
	if len(p) != 3 || p[0] != want[0] || p[1] != want[1] || p[2] != want[2] {
		t.Fatalf("path = %v, want %v (customer route preferred over peer shortcut)", p, want)
	}
	if cls := classOf(r, 1, 3); cls != ViaCustomer {
		t.Fatalf("class of 1 -> 3 = %v, want customer", cls)
	}
}

// classOf reads the class of src's route from dst's routing tree.
func classOf(r *Router, src, dst topology.ASN) RouteClass {
	return r.treeFor(r.indexOf(dst)).class[r.indexOf(src)]
}

func TestPeerPreferredOverProvider(t *testing.T) {
	topo := buildMiniTopo(t)
	r := New(topo)
	// AS 5 is a customer of 4; from 5 to 3: via provider 4 (which is 3's
	// provider): 5 up to 4 down to 3, class provider. There is no peer or
	// customer alternative, so class must be provider.
	if cls := classOf(r, 5, 3); cls != ViaProvider {
		t.Fatalf("class of 5 -> 3 = %v, want provider", cls)
	}
}

// buildMiniTopo constructs a tiny hand-made topology:
//
//	1 (tier1) <-peer-> 4 (tier1)
//	2 customer of 1; 3 customer of 2 and of 4; 5 customer of 4.
func buildMiniTopo(t *testing.T) *topology.Topology {
	t.Helper()
	topo := topology.NewManual(worlddata.Cities())
	add := func(asn topology.ASN, ty topology.ASType, city int) {
		topo.AddAS(&topology.AS{ASN: asn, Name: "m", Type: ty, CC: "GB", Continent: "EU", PoPs: []int{city}})
	}
	add(1, topology.Tier1, 0)
	add(4, topology.Tier1, 1)
	add(2, topology.Transit, 2)
	add(3, topology.Eyeball, 3)
	add(5, topology.Eyeball, 4)
	topo.AddLink(1, 4, topology.P2P, []int{0})
	topo.AddLink(2, 1, topology.C2P, []int{0})
	topo.AddLink(3, 2, topology.C2P, []int{2})
	topo.AddLink(3, 4, topology.C2P, []int{1})
	topo.AddLink(5, 4, topology.C2P, []int{1})
	return topo
}

func TestExpandBasics(t *testing.T) {
	r := testRouter(t)
	topo := r.Topology()
	eyes := topo.ASesOfType(topology.Eyeball)
	src, dst := eyes[0], eyes[len(eyes)-1]
	m, err := r.Walk(src.ASN, src.HomeCity(), dst.ASN, dst.HomeCity())
	if err != nil {
		t.Fatal(err)
	}
	path, err := r.ASPath(src.ASN, dst.ASN)
	if err != nil {
		t.Fatal(err)
	}
	if m.ASHops != len(path)-1 {
		t.Fatalf("AS hops = %d, want %d for path %v", m.ASHops, len(path)-1, path)
	}
	if m.DistanceKm <= 0 {
		t.Fatalf("distance = %v, want > 0", m.DistanceKm)
	}
	// One segment at most per crossing, plus the final one.
	if m.CityHops < 1 || m.CityHops > m.ASHops+1 {
		t.Fatalf("city hops = %d for %d AS hops", m.CityHops, m.ASHops)
	}
}

func TestExpandSameAS(t *testing.T) {
	r := testRouter(t)
	topo := r.Topology()
	var multi *topology.AS
	for _, a := range topo.ASes {
		if len(a.PoPs) >= 2 {
			multi = a
			break
		}
	}
	if multi == nil {
		t.Skip("no multi-PoP AS")
	}
	m, err := r.Walk(multi.ASN, multi.PoPs[0], multi.ASN, multi.PoPs[1])
	if err != nil {
		t.Fatal(err)
	}
	want := geo.Distance(topo.CityLoc(multi.PoPs[0]), topo.CityLoc(multi.PoPs[1]))
	if m != (PathMetrics{DistanceKm: want, ASHops: 0, CityHops: 1}) {
		t.Fatalf("intra-AS walk = %+v, want one %v km segment", m, want)
	}
}

func TestExpandSameCity(t *testing.T) {
	r := testRouter(t)
	topo := r.Topology()
	a := topo.ASes[0]
	m, err := r.Walk(a.ASN, a.HomeCity(), a.ASN, a.HomeCity())
	if err != nil {
		t.Fatal(err)
	}
	if m != (PathMetrics{}) {
		t.Fatalf("same-city walk = %+v", m)
	}
}

func TestExpandDistanceAtLeastGeodesic(t *testing.T) {
	r := testRouter(t)
	topo := r.Topology()
	eyes := topo.ASesOfType(topology.Eyeball)
	checked := 0
	for i := 0; i < len(eyes); i += 9 {
		for j := 4; j < len(eyes); j += 21 {
			src, dst := eyes[i], eyes[j]
			if src.ASN == dst.ASN {
				continue
			}
			m, err := r.Walk(src.ASN, src.HomeCity(), dst.ASN, dst.HomeCity())
			if err != nil {
				t.Fatal(err)
			}
			direct := topo.CityLoc(src.HomeCity()).DistanceTo(topo.CityLoc(dst.HomeCity()))
			if m.DistanceKm < direct-1e-6 {
				t.Fatalf("PoP path shorter than geodesic: %.1f < %.1f", m.DistanceKm, direct)
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("no pairs checked")
	}
}

func TestPathInflationExists(t *testing.T) {
	// The substrate must produce geographically inflated paths for the
	// paper's TIVs to exist: a meaningful share of eyeball pairs should
	// see >25% geographic stretch.
	r := testRouter(t)
	topo := r.Topology()
	eyes := topo.ASesOfType(topology.Eyeball)
	inflated, total := 0, 0
	for i := 0; i < len(eyes); i += 5 {
		for j := 2; j < len(eyes); j += 11 {
			src, dst := eyes[i], eyes[j]
			if src.ASN == dst.ASN || src.CC == dst.CC {
				continue
			}
			m, err := r.Walk(src.ASN, src.HomeCity(), dst.ASN, dst.HomeCity())
			if err != nil {
				t.Fatal(err)
			}
			direct := topo.CityLoc(src.HomeCity()).DistanceTo(topo.CityLoc(dst.HomeCity()))
			if direct < 500 {
				continue
			}
			total++
			if m.DistanceKm > 1.25*direct {
				inflated++
			}
		}
	}
	if total < 50 {
		t.Fatalf("only %d pairs sampled", total)
	}
	frac := float64(inflated) / float64(total)
	if frac < 0.10 {
		t.Fatalf("only %.1f%% of inter-country paths inflated >25%%; TIVs cannot emerge", frac*100)
	}
}

func TestDeterministicPaths(t *testing.T) {
	r1 := testRouter(t)
	r2 := New(cachedTopo)
	eyes := cachedTopo.ASesOfType(topology.Eyeball)
	for i := 0; i < 40; i++ {
		src, dst := eyes[i%len(eyes)], eyes[(i*7+3)%len(eyes)]
		if src.ASN == dst.ASN {
			continue
		}
		p1, err1 := r1.ASPath(src.ASN, dst.ASN)
		p2, err2 := r2.ASPath(src.ASN, dst.ASN)
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		if len(p1) != len(p2) {
			t.Fatalf("nondeterministic path lengths for %d->%d", src.ASN, dst.ASN)
		}
		for k := range p1 {
			if p1[k] != p2[k] {
				t.Fatalf("nondeterministic path for %d->%d: %v vs %v", src.ASN, dst.ASN, p1, p2)
			}
		}
	}
}

func TestTreeForSingleflight(t *testing.T) {
	// Concurrent callers for the same cold destination must share one
	// computation: the pre-singleflight Router dropped its lock between
	// the miss check and compute, so 8 goroutines could build 8 copies
	// of the same tree.
	topo := buildMiniTopo(t)
	r := New(topo)
	dsts := []topology.ASN{1, 2, 3, 4, 5}
	const workers = 8
	var wg sync.WaitGroup
	start := make(chan struct{})
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-start
			for i := 0; i < 50; i++ {
				dst := dsts[(i+w)%len(dsts)]
				src := dsts[(i+w+1)%len(dsts)]
				if _, err := r.ASPath(src, dst); err != nil {
					t.Errorf("ASPath(%d,%d): %v", src, dst, err)
					return
				}
			}
		}(w)
	}
	close(start)
	wg.Wait()
	if got := r.TreeComputations(); got != int64(len(dsts)) {
		t.Fatalf("%d tree computations for %d destinations under %d goroutines (duplicated work)",
			got, len(dsts), workers)
	}
	if got := r.CachedTrees(); got != len(dsts) {
		t.Fatalf("CachedTrees = %d, want %d", got, len(dsts))
	}
}

func TestWarmPrecomputesTrees(t *testing.T) {
	topo := buildMiniTopo(t)
	warm := New(topo)
	all := []topology.ASN{1, 2, 3, 4, 5}
	// Duplicates must be deduplicated; a second Warm must be free.
	dsts := append(append([]topology.ASN{}, all...), all...)
	if err := warm.Warm(dsts, 4); err != nil {
		t.Fatal(err)
	}
	if got := warm.TreeComputations(); got != int64(len(all)) {
		t.Fatalf("Warm computed %d trees, want %d", got, len(all))
	}
	if err := warm.Warm(all, 4); err != nil {
		t.Fatal(err)
	}
	if got := warm.TreeComputations(); got != int64(len(all)) {
		t.Fatalf("second Warm recomputed trees: %d computations", got)
	}

	// Warmed routes must be identical to lazily computed ones.
	cold := New(topo)
	for _, src := range all {
		for _, dst := range all {
			if src == dst {
				continue
			}
			pw, err1 := warm.ASPath(src, dst)
			pc, err2 := cold.ASPath(src, dst)
			if err1 != nil || err2 != nil {
				t.Fatal(err1, err2)
			}
			if len(pw) != len(pc) {
				t.Fatalf("warm vs cold path lengths differ for %d->%d", src, dst)
			}
			for i := range pw {
				if pw[i] != pc[i] {
					t.Fatalf("warm vs cold paths differ for %d->%d: %v vs %v", src, dst, pw, pc)
				}
			}
		}
	}
	// No lazy computation should have happened on the warmed router.
	if got := warm.TreeComputations(); got != int64(len(all)) {
		t.Fatalf("warmed router recomputed trees on use: %d computations", got)
	}
}

func TestWarmUnknownDestination(t *testing.T) {
	r := New(buildMiniTopo(t))
	if err := r.Warm([]topology.ASN{1, 999999}, 2); err == nil {
		t.Fatal("Warm accepted an unknown destination")
	}
}

func TestIndexOfEveryAS(t *testing.T) {
	r := testRouter(t)
	known := make(map[topology.ASN]bool, len(r.asns))
	for i, asn := range r.asns {
		if got := r.indexOf(asn); got != int32(i) {
			t.Fatalf("indexOf(%d) = %d, want %d", asn, got, i)
		}
		known[asn] = true
	}
	for _, asn := range r.asns {
		for _, probe := range []topology.ASN{asn + 1, asn - 1, -asn, asn << 20} {
			if got := r.indexOf(probe); !known[probe] && got != -1 {
				t.Fatalf("indexOf(%d) = %d for an AS not in the topology", probe, got)
			}
		}
	}
}
