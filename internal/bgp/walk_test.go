package bgp

import (
	"errors"
	"math"
	"math/rand"
	"sync"
	"testing"

	"shortcuts/internal/datasets/apnic"
	"shortcuts/internal/geo"
	"shortcuts/internal/rng"
	"shortcuts/internal/topology"
	"shortcuts/internal/worlddata"
)

// refExpand is the city-level expansion the walk replaces, written out
// in full: the AS path, each crossing's link from LinkBetween, its
// hot-potato exit by a nearest-candidate scan with geo.Distance, the
// city polyline with repeated cities collapsed, and the polyline's
// segments summed in order.
func refExpand(r *Router, srcAS topology.ASN, srcCity int, dstAS topology.ASN, dstCity int) (PathMetrics, error) {
	topo := r.Topology()
	if srcCity < 0 || srcCity >= len(topo.Cities) || dstCity < 0 || dstCity >= len(topo.Cities) {
		return PathMetrics{}, errors.New("city out of range")
	}
	asPath, err := r.ASPath(srcAS, dstAS)
	if err != nil {
		return PathMetrics{}, err
	}
	cities := []int{srcCity}
	cur := srcCity
	for i := 0; i+1 < len(asPath); i++ {
		link := topo.LinkBetween(asPath[i], asPath[i+1])
		if link == nil {
			return PathMetrics{}, errors.New("missing link")
		}
		exit, bestD := link.Cities[0], geo.Distance(topo.CityLoc(cur), topo.CityLoc(link.Cities[0]))
		for _, c := range link.Cities[1:] {
			if d := geo.Distance(topo.CityLoc(cur), topo.CityLoc(c)); d < bestD {
				exit, bestD = c, d
			}
		}
		if exit != cur {
			cities = append(cities, exit)
			cur = exit
		}
	}
	if cur != dstCity {
		cities = append(cities, dstCity)
	}
	m := PathMetrics{ASHops: len(asPath) - 1, CityHops: len(cities) - 1}
	for i := 1; i < len(cities); i++ {
		m.DistanceKm += geo.Distance(topo.CityLoc(cities[i-1]), topo.CityLoc(cities[i]))
	}
	return m, nil
}

// checkWalk compares one walk with refExpand: the distance bit for bit,
// both hop counts, and whether an error is returned.
func checkWalk(t testing.TB, r *Router, srcAS topology.ASN, srcCity int, dstAS topology.ASN, dstCity int) {
	t.Helper()
	got, err := r.Walk(srcAS, srcCity, dstAS, dstCity)
	want, refErr := refExpand(r, srcAS, srcCity, dstAS, dstCity)
	if (err != nil) != (refErr != nil) {
		t.Fatalf("walk (%d@%d -> %d@%d) error %v, reference error %v", srcAS, srcCity, dstAS, dstCity, err, refErr)
	}
	if math.Float64bits(got.DistanceKm) != math.Float64bits(want.DistanceKm) ||
		got.ASHops != want.ASHops || got.CityHops != want.CityHops {
		t.Fatalf("walk (%d@%d -> %d@%d) = %+v, reference %+v", srcAS, srcCity, dstAS, dstCity, got, want)
	}
}

// attachment is an (AS, PoP city) point a walk starts or ends at.
type attachment struct {
	as   topology.ASN
	city int
}

func attachments(topo *topology.Topology) []attachment {
	var out []attachment
	for _, a := range topo.ASes {
		for _, c := range a.PoPs {
			out = append(out, attachment{a.ASN, c})
		}
	}
	return out
}

var (
	smallOnce sync.Once
	smallTopo *topology.Topology
	smallErr  error
)

// smallWorld returns the seed-1 small-world topology, generated once.
func smallWorld(t testing.TB) *topology.Topology {
	t.Helper()
	smallOnce.Do(func() {
		g := rng.New(1)
		ds := apnic.Generate(g.Split("apnic"), apnic.DefaultParams(worlddata.CountryCodes()))
		smallTopo, smallErr = topology.Generate(g, topology.SmallParams(), ds)
	})
	if smallErr != nil {
		t.Fatalf("Generate: %v", smallErr)
	}
	return smallTopo
}

func TestWalkMatchesExpansion(t *testing.T) {
	// -short (the race job) thins the small world's sources and the
	// default world's sample tenfold.
	thin := 1
	if testing.Short() {
		thin = 10
	}
	t.Run("small world, every ordered attachment pair", func(t *testing.T) {
		r := New(smallWorld(t))
		at := attachments(r.Topology())
		for i := 0; i < len(at); i += thin {
			a := at[i]
			for _, b := range at {
				checkWalk(t, r, a.as, a.city, b.as, b.city)
			}
		}
	})
	t.Run("default world, sampled pairs", func(t *testing.T) {
		r := testRouter(t)
		topo := r.Topology()
		at := attachments(topo)
		g := rand.New(rand.NewSource(1))
		for range 200_000 / thin {
			a, b := at[g.Intn(len(at))], at[g.Intn(len(at))]
			checkWalk(t, r, a.as, a.city, b.as, b.city)
		}
		// Same AS: every ordered pair of each AS's PoPs.
		for _, a := range topo.ASes {
			for _, c := range a.PoPs {
				for _, d := range a.PoPs {
					checkWalk(t, r, a.ASN, c, a.ASN, d)
				}
			}
		}
		// Same city: ordered pairs of the first 20 ASes with a PoP there.
		byCity := make([][]topology.ASN, len(topo.Cities))
		for _, a := range at {
			if len(byCity[a.city]) < 20 {
				byCity[a.city] = append(byCity[a.city], a.as)
			}
		}
		for c, ases := range byCity {
			for _, x := range ases {
				for _, y := range ases {
					checkWalk(t, r, x, c, y, c)
				}
			}
		}
	})
	t.Run("mini topology", func(t *testing.T) {
		r := New(buildMiniTopo(t))
		nc := len(r.Topology().Cities)
		for _, src := range r.asns {
			for _, dst := range r.asns {
				for _, sc := range []int{0, 1, 2, 3, 4, nc - 1} {
					for _, dc := range []int{0, 1, 2, 3, 4, nc - 1} {
						checkWalk(t, r, src, sc, dst, dc)
					}
				}
			}
		}
	})
	t.Run("errors", func(t *testing.T) {
		topo := buildMiniTopo(t)
		// AS 6 has a PoP but no link: nothing routes to or from it.
		topo.AddAS(&topology.AS{ASN: 6, Name: "m", Type: topology.Eyeball, CC: "GB", Continent: "EU", PoPs: []int{5}})
		r := New(topo)
		nc := len(topo.Cities)
		walkErr := func(what string, srcAS topology.ASN, srcCity int, dstAS topology.ASN, dstCity int) {
			t.Helper()
			if _, err := r.Walk(srcAS, srcCity, dstAS, dstCity); err == nil {
				t.Fatalf("%s: walk returned no error", what)
			}
			checkWalk(t, r, srcAS, srcCity, dstAS, dstCity)
		}
		walkErr("source city below range", 1, -1, 3, 3)
		walkErr("source city above range", 1, nc, 3, 3)
		walkErr("destination city below range", 1, 0, 3, -1)
		walkErr("destination city above range", 1, 0, 3, nc)
		walkErr("unknown source", 999, 0, 3, 3)
		walkErr("unknown destination", 1, 0, 999, 3)
		walkErr("unknown source and destination", 999, 0, 999, 3)
		walkErr("no route to", 1, 0, 6, 5)
		walkErr("no route from", 6, 5, 1, 0)

		// Corrupt trees toward AS 1 by hand; each is published as if
		// computed, so both the walk and the reference read it.
		corrupt := func(edit func(tr *tree)) {
			tr := r.compute(r.indexOf(1))
			edit(tr)
			r.trees[r.indexOf(1)].Store(tr)
		}
		corrupt(func(tr *tree) { tr.next[r.indexOf(5)] = hop{-1, -1} })
		walkErr("broken tree", 5, 4, 1, 0)
		// 3 -> 2 -> 3 -> ...: a cycle over real links.
		corrupt(func(tr *tree) {
			tr.next[r.indexOf(2)] = hop{r.indexOf(3), tr.next[r.indexOf(3)].link}
		})
		walkErr("path loop", 3, 3, 1, 0)
		// 5 is not adjacent to 1, so no link joins the hop.
		corrupt(func(tr *tree) { tr.next[r.indexOf(5)] = hop{r.indexOf(1), -1} })
		walkErr("missing link", 5, 4, 1, 0)
	})
}

func TestWalkAllocs(t *testing.T) {
	r := testRouter(t)
	eyes := r.Topology().ASesOfType(topology.Eyeball)
	src, dst := eyes[0], eyes[len(eyes)-1]
	if err := r.Warm([]topology.ASN{dst.ASN}, 1); err != nil {
		t.Fatal(err)
	}
	var m PathMetrics
	allocs := testing.AllocsPerRun(100, func() {
		m, _ = r.Walk(src.ASN, src.HomeCity(), dst.ASN, dst.HomeCity())
	})
	if allocs != 0 {
		t.Fatalf("walk on a warm tree allocates %v times, want 0", allocs)
	}
	if m.ASHops == 0 {
		t.Fatalf("walk %+v crosses no AS boundary; pick a multi-hop pair", m)
	}
}

// TestWalkRacesWarm walks cold destinations on a fresh router while
// Warm computes the same trees: readers and the publishing tree builds
// race on the lock-free tree table and the exit memo, and every walk
// must equal a sequential router's.
func TestWalkRacesWarm(t *testing.T) {
	topo := smallWorld(t)
	at := attachments(topo)
	var dsts []topology.ASN
	for i := 0; i < len(topo.ASes); i += 3 {
		dsts = append(dsts, topo.ASes[i].ASN)
	}
	type walk struct {
		src attachment
		dst topology.ASN
		m   PathMetrics
		err bool
	}
	var walks []walk
	seq := New(topo)
	for i, d := range dsts {
		src := at[(i*7)%len(at)]
		home := topo.AS(d).HomeCity()
		m, err := seq.Walk(src.as, src.city, d, home)
		walks = append(walks, walk{src, d, m, err != nil})
	}

	r := New(topo)
	const walkers = 4
	var wg sync.WaitGroup
	start := make(chan struct{})
	wg.Add(walkers + 1)
	go func() {
		defer wg.Done()
		<-start
		if err := r.Warm(dsts, 2); err != nil {
			t.Error(err)
		}
	}()
	for w := range walkers {
		go func() {
			defer wg.Done()
			<-start
			for i := range walks {
				wk := walks[(i+w*len(walks)/walkers)%len(walks)]
				m, err := r.Walk(wk.src.as, wk.src.city, wk.dst, topo.AS(wk.dst).HomeCity())
				if (err != nil) != wk.err || m != wk.m {
					t.Errorf("walk %+v -> %d = %+v, %v; sequential %+v (error %v)", wk.src, wk.dst, m, err, wk.m, wk.err)
					return
				}
			}
		}()
	}
	close(start)
	wg.Wait()
	if got := r.TreeComputations(); got != int64(len(dsts)) {
		t.Fatalf("%d tree computations for %d destinations", got, len(dsts))
	}
}

func FuzzWalk(f *testing.F) {
	f.Add(0, 0, 1, 0)
	f.Add(3, 1, 3, 2)
	f.Add(-1, 0, 5, 97)
	f.Add(10, -1, 1<<20, 3)
	f.Fuzz(func(t *testing.T, src, srcCity, dst, dstCity int) {
		r := fuzzRouter(t)
		asn := func(i int) topology.ASN {
			if i >= 0 && i < len(r.asns) {
				return r.asns[i]
			}
			return topology.ASN(i) // out of range: an unknown AS, or by chance a known one
		}
		checkWalk(t, r, asn(src), srcCity, asn(dst), dstCity)
	})
}

var (
	fuzzOnce sync.Once
	fuzzR    *Router
)

// fuzzRouter is one small-world router shared by every fuzz input, so
// trees and exits warm up across inputs as they do in a campaign.
func fuzzRouter(t testing.TB) *Router {
	topo := smallWorld(t)
	fuzzOnce.Do(func() { fuzzR = New(topo) })
	return fuzzR
}
