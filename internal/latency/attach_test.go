package latency

import (
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"

	"shortcuts/internal/bgp"
	"shortcuts/internal/geo"
	"shortcuts/internal/rng"
	"shortcuts/internal/topology"
)

// refState is an endpoint pair's path state computed from its full
// identity in one pass: both BGP expansions, the access term and every
// draw taken from the canonical endpoint pair, with no attachment cache
// in between. The cache must reproduce it bit for bit.
type refState struct {
	static, fwdAsym, revAsym, diurnalAmp, midLon float64
	hp                                           uint64
}

// refFold is the FNV-1a fold of one endpoint identity: 8 bytes of AS,
// 4 of city and, withAccess, 8 of access delay.
func refFold(h uint64, k EndpointKey, withAccess bool) uint64 {
	h = rng.FNVUint64(h, uint64(k.AS))
	h = rng.FNVUint32(h, uint32(k.City))
	if withAccess {
		h = rng.FNVUint64(h, uint64(k.Access))
	}
	return h
}

func refPathState(t *testing.T, e *Engine, a, b Endpoint) refState {
	t.Helper()
	lo, hi := a.Key(), b.Key()
	if less(hi, lo) {
		lo, hi = hi, lo
	}
	fwd, err := e.router.Expand(lo.AS, lo.City, hi.AS, hi.City)
	if err != nil {
		t.Fatal(err)
	}
	rev, err := e.router.Expand(hi.AS, hi.City, lo.AS, lo.City)
	if err != nil {
		t.Fatal(err)
	}
	oneway := func(p *bgp.PopPath) time.Duration {
		return geo.PropDelay(p.DistanceKm*e.p.RouteDirectness) +
			time.Duration(p.ASHops())*e.p.PerASHop + time.Duration(p.CityHops())*e.p.PerCityHop
	}
	wide := oneway(fwd) + oneway(rev)
	lineFactor := func(k EndpointKey) float64 {
		g := e.base.Derive("endpoint", refFold(rng.FNVOffset64, k, true))
		return g.LogNormal(0, e.p.AccessCongestionSigma)
	}
	access := 2 * (time.Duration(float64(lo.Access)*lineFactor(lo)) +
		time.Duration(float64(hi.Access)*lineFactor(hi)))
	g := e.base.Derive("path", refFold(refFold(rng.FNVOffset64, lo, false), hi, false))
	congestion := e.p.CongestionMedian * g.LogNormal(0, e.p.CoreCongestionSigma)
	if g.Bool(e.p.BadPathProb) {
		congestion *= g.Uniform(e.p.BadPathMin, e.p.BadPathMax)
	}
	topo := e.router.Topology()
	mid := geo.Midpoint(topo.CityLoc(lo.City), topo.CityLoc(hi.City))
	asym := g.Normal(0, e.p.AsymmetrySigma)
	return refState{
		static:     float64(wide)*congestion + float64(access),
		fwdAsym:    1 + asym,
		revAsym:    1 - asym,
		diurnalAmp: g.Uniform(0, e.p.DiurnalAmpMax),
		midLon:     mid.Lon,
		hp:         refFold(refFold(rng.FNVOffset64, lo, true), hi, true),
	}
}

// checkResolved compares every field of a state resolved from a towards
// b with the full-identity reference of the pair, bit for bit.
func checkResolved(t *testing.T, what string, got pathState, ref refState, a, b Endpoint) {
	t.Helper()
	asym := ref.fwdAsym
	if less(b.Key(), a.Key()) {
		asym = ref.revAsym
	}
	same := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	if !same(got.static, ref.static) || !same(got.asym, asym) || !same(got.diurnalAmp, ref.diurnalAmp) ||
		!same(got.midLon, ref.midLon) || got.hp != ref.hp {
		t.Fatalf("%s %+v -> %+v: resolved %+v, full-identity reference %+v (asym %v)", what, a, b, got, ref, asym)
	}
}

// FuzzResolveBatch maps fuzzed integers to two eyeball endpoints (AS,
// PoP, access delay), resolves both directions in one ResolveBatch and
// checks each handle, and BaseRTT, against the full-identity reference.
func FuzzResolveBatch(f *testing.F) {
	f.Add(uint16(0), uint16(0), uint32(6_000_000), uint16(1), uint16(0), uint32(8_000_000))
	f.Add(uint16(3), uint16(1), uint32(0), uint16(3), uint16(1), uint32(0))               // one endpoint at both ends
	f.Add(uint16(7), uint16(2), uint32(1_500_000), uint16(7), uint16(2), uint32(900_000)) // access breaks the tie
	f.Fuzz(func(t *testing.T, asA, popA uint16, accA uint32, asB, popB uint16, accB uint32) {
		e := testEngine(t)
		eyes := cachedTopo.ASesOfType(topology.Eyeball)
		at := func(as, pop uint16, access uint32) Endpoint {
			x := eyes[int(as)%len(eyes)]
			return Endpoint{AS: x.ASN, City: x.PoPs[int(pop)%len(x.PoPs)], Access: time.Duration(access)}
		}
		a, b := at(asA, popA, accA), at(asB, popB, accB)
		pairs := []EndpointPair{{A: a, B: b}, {A: b, B: a}}
		handles := make([]PairHandle, len(pairs))
		if err := e.View(nil).ResolveBatch(pairs, handles); err != nil {
			t.Fatal(err)
		}
		ref := refPathState(t, e, a, b)
		for i, p := range pairs {
			checkResolved(t, "ResolveBatch", handles[i].st, ref, p.A, p.B)
		}
		rtt, err := e.BaseRTT(a, b)
		if err != nil {
			t.Fatal(err)
		}
		if rtt != time.Duration(ref.static) {
			t.Fatalf("BaseRTT %+v -> %+v = %v, full-identity reference %v", a, b, rtt, time.Duration(ref.static))
		}
	})
}

// bitIdentityPairs draws the pair set of TestAttachmentCacheBitIdentical:
// random eyeball pairs at random PoPs, endpoints that share an
// attachment but differ in access delay, and ties where both ends share
// (AS, city) and only the access delay orders them.
func bitIdentityPairs(topo *topology.Topology) []EndpointPair {
	eyes := topo.ASesOfType(topology.Eyeball)
	r := rand.New(rand.NewSource(12))
	at := func(as *topology.AS, access time.Duration) Endpoint {
		return Endpoint{AS: as.ASN, City: as.PoPs[r.Intn(len(as.PoPs))], Access: access}
	}
	eye := func() *topology.AS { return eyes[r.Intn(len(eyes))] }
	access := func() time.Duration { return time.Duration(r.Int63n(int64(20 * time.Millisecond))) }
	var pairs []EndpointPair
	for k := 0; k < 300; k++ {
		pairs = append(pairs, EndpointPair{A: at(eye(), access()), B: at(eye(), access())})
	}
	for k := 0; k < 30; k++ {
		a, b := at(eye(), access()), at(eye(), access())
		for v := 0; v < 4; v++ {
			a2, b2 := a, b
			a2.Access, b2.Access = access(), access()
			pairs = append(pairs, EndpointPair{A: a2, B: b}, EndpointPair{A: b, B: a2}, EndpointPair{A: a, B: b2})
		}
	}
	for k := 0; k < 30; k++ {
		a := at(eye(), access())
		b := a
		b.Access = access()
		pairs = append(pairs, EndpointPair{A: a, B: b}, EndpointPair{A: b, B: a})
	}
	return pairs
}

// TestAttachmentCacheBitIdentical pins the attachment-keyed cache to the
// full-identity state: every field of every resolved state, through
// resolvePair, BaseRTT and ResolveBatch, on two engines.
func TestAttachmentCacheBitIdentical(t *testing.T) {
	base := testEngine(t)
	pairs := bitIdentityPairs(cachedTopo)
	for _, seed := range []int64{5, 6} {
		e := New(base.router, DefaultParams(), rng.New(seed))
		// Half the pairs resolve one by one first, so the batch meets
		// both cached and cold attachment pairs.
		for _, p := range pairs[:len(pairs)/2] {
			ref := refPathState(t, e, p.A, p.B)
			st, err := e.resolvePair(p.A, p.B)
			if err != nil {
				t.Fatal(err)
			}
			checkResolved(t, "resolvePair", st, ref, p.A, p.B)
			rtt, err := e.BaseRTT(p.A, p.B)
			if err != nil {
				t.Fatal(err)
			}
			if rtt != time.Duration(ref.static) {
				t.Fatalf("BaseRTT %+v -> %+v = %v, full-identity reference %v", p.A, p.B, rtt, time.Duration(ref.static))
			}
		}
		handles := make([]PairHandle, len(pairs))
		if err := e.View(nil).ResolveBatch(pairs, handles); err != nil {
			t.Fatal(err)
		}
		for i, p := range pairs {
			checkResolved(t, "ResolveBatch", handles[i].st, refPathState(t, e, p.A, p.B), p.A, p.B)
		}
	}
}

// TestAttachmentFirstAdmissionRace has several goroutines resolve
// distinct endpoint pairs on one uncached attachment pair at once, half
// through resolvePair and half through ResolveBatch, for a run of
// attachment pairs. Every result must match the full-identity
// reference, and each attachment pair is admitted exactly once.
func TestAttachmentFirstAdmissionRace(t *testing.T) {
	e := New(testEngine(t).router, DefaultParams(), rng.New(8))
	eyes := cachedTopo.ASesOfType(topology.Eyeball)
	const attachPairs, workers = 16, 8
	for k := 0; k < attachPairs; k++ {
		src, dst := eyes[k], eyes[len(eyes)-1-k]
		ends := make([]EndpointPair, workers)
		for w := range ends {
			ends[w] = EndpointPair{
				A: Endpoint{AS: src.ASN, City: src.HomeCity(), Access: time.Duration(w+1) * 700 * time.Microsecond},
				B: Endpoint{AS: dst.ASN, City: dst.HomeCity(), Access: 4 * time.Millisecond},
			}
		}
		got := make([]pathState, workers)
		errs := make([]error, workers)
		start := make(chan struct{})
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				<-start
				p := ends[w]
				if w%2 == 0 {
					got[w], errs[w] = e.resolvePair(p.A, p.B)
					return
				}
				var h [1]PairHandle
				errs[w] = e.View(nil).ResolveBatch(ends[w:w+1], h[:])
				got[w] = h[0].st
			}(w)
		}
		close(start)
		wg.Wait()
		for w, p := range ends {
			if errs[w] != nil {
				t.Fatal(errs[w])
			}
			checkResolved(t, "racing resolve", got[w], refPathState(t, e, p.A, p.B), p.A, p.B)
		}
		if n := e.CachedPairs(); n != k+1 {
			t.Fatalf("after %d attachment pairs the cache holds %d entries", k+1, n)
		}
	}
}
