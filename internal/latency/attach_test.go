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
// identity in one pass: both BGP expansions, the line factors drawn
// inline, the path midpoint and every draw taken from the canonical
// endpoint pair, with no attachment cache, line binding or schedule in
// between. The cache must reproduce it bit for bit.
type refState struct {
	static, fwdAsym, revAsym, diurnalAmp, midLon float64
	cityPair                                     int32 // lo.City*nc + hi.City, the schedule row
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
		cityPair:   int32(lo.City*len(topo.Cities) + hi.City),
		hp:         refFold(refFold(rng.FNVOffset64, lo, true), hi, true),
	}
}

// refAsym is the reference's asymmetry factor for the pair priced from
// a to b.
func refAsym(ref refState, a, b Endpoint) float64 {
	if less(b.Key(), a.Key()) {
		return ref.revAsym
	}
	return ref.fwdAsym
}

// checkResolved compares every field of a state resolved from a towards
// b with the full-identity reference of the pair, bit for bit.
func checkResolved(t *testing.T, what string, got pathState, ref refState, a, b Endpoint) {
	t.Helper()
	asym := refAsym(ref, a, b)
	same := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	if !same(got.static, ref.static) || !same(got.asym, asym) || !same(got.diurnalAmp, ref.diurnalAmp) ||
		got.cityPair != ref.cityPair || got.hp != ref.hp {
		t.Fatalf("%s %+v -> %+v: resolved %+v, full-identity reference %+v (asym %v)", what, a, b, got, ref, asym)
	}
}

// refLoad is the diurnal load of slot `slot` of the schedule t0,
// t0+interval, ... on the reference's path: the UTC hour fraction, the
// local hour at the path midpoint, and 0.5+0.5*cos(phase).
func refLoad(ref refState, t0 time.Time, interval time.Duration, slot int) float64 {
	u := t0.Add(time.Duration(slot) * interval).UTC()
	hourFrac := float64(u.Hour()) + float64(u.Minute())/60
	localHour := hourFrac + ref.midLon/15
	phase := (localHour - 21) / 24 * 2 * math.Pi
	return 0.5 + 0.5*math.Cos(phase)
}

// checkLoads compares the schedule row a handle prices on with the
// reference's loads, bit for bit: a train's RTTs are whole
// nanoseconds, which can hide a load that is off in its last bits.
func checkLoads(t *testing.T, sched *Schedule, h *PairHandle, ref refState, t0 time.Time, interval time.Duration) {
	t.Helper()
	row := sched.load[int(h.st.cityPair)*sched.n:][:sched.n]
	for slot, got := range row {
		if want := refLoad(ref, t0, interval, slot); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("city pair %d slot %d from %v every %v: load %v, reference %v", h.st.cityPair, slot, t0, interval, got, want)
		}
	}
}

// refTrain prices the train from a to b at round on the slots t0,
// t0+interval, ... under eff, from the reference state with the
// formulas written out: the factor 1 + amp*refLoad and the per-ping
// draws in pingSlot's order.
func refTrain(e *Engine, ref refState, a, b Endpoint, round int, t0 time.Time, interval time.Duration, eff Effect, out []PingSample) {
	asym := refAsym(ref, a, b)
	for slot := range out {
		out[slot] = PingSample{}
		if eff.Down {
			continue
		}
		g := e.base.Derive("ping", ref.hp^uint64(round)<<32^uint64(slot)<<16)
		if g.Bool(e.p.LossProb) || (eff.ExtraLoss > 0 && g.Bool(eff.ExtraLoss)) {
			continue
		}
		factor := 1 + ref.diurnalAmp*refLoad(ref, t0, interval, slot)
		rtt := ref.static * factor * asym * g.LogNormal(0, e.p.JitterSigma)
		if g.Bool(e.p.SpikeProb) {
			spike := time.Duration(g.Pareto(float64(e.p.SpikeMin), e.p.SpikeAlpha))
			if spike > e.p.SpikeCap {
				spike = e.p.SpikeCap
			}
			rtt += float64(spike)
		}
		out[slot] = PingSample{RTT: time.Duration(rtt * eff.RTTFactor), OK: true}
	}
}

// endpointPair is an unbound (source, destination) pair of a test grid.
type endpointPair struct {
	A, B Endpoint
}

// bind binds every pair's endpoints to their lines on e.
func bind(e *Engine, pairs []endpointPair) []LinePair {
	out := make([]LinePair, len(pairs))
	for i, p := range pairs {
		out[i] = LinePair{A: e.Line(p.A), B: e.Line(p.B)}
	}
	return out
}

// FuzzResolveBatch maps fuzzed integers to two eyeball endpoints (AS,
// PoP, access delay) and a slot schedule (start second, interval in
// seconds), resolves both directions in one ResolveBatch and checks
// each handle, its train on the schedule, and BaseRTT against the
// full-identity reference.
func FuzzResolveBatch(f *testing.F) {
	f.Add(uint16(0), uint16(0), uint32(6_000_000), uint16(1), uint16(0), uint32(8_000_000), uint32(0), uint16(300))
	f.Add(uint16(3), uint16(1), uint32(0), uint16(3), uint16(1), uint32(0), uint32(86_100), uint16(300))              // one endpoint at both ends; crosses midnight
	f.Add(uint16(7), uint16(2), uint32(1_500_000), uint16(7), uint16(2), uint32(900_000), uint32(47_261), uint16(37)) // access breaks the tie
	f.Fuzz(func(t *testing.T, asA, popA uint16, accA uint32, asB, popB uint16, accB uint32, startSec uint32, intervalSec uint16) {
		e := testEngine(t)
		eyes := cachedTopo.ASesOfType(topology.Eyeball)
		at := func(as, pop uint16, access uint32) Endpoint {
			x := eyes[int(as)%len(eyes)]
			return Endpoint{AS: x.ASN, City: x.PoPs[int(pop)%len(x.PoPs)], Access: time.Duration(access)}
		}
		a, b := at(asA, popA, accA), at(asB, popB, accB)
		pairs := []endpointPair{{A: a, B: b}, {A: b, B: a}}
		handles := make([]PairHandle, len(pairs))
		if err := e.View(nil).ResolveBatch(bind(e, pairs), handles); err != nil {
			t.Fatal(err)
		}
		ref := refPathState(t, e, a, b)
		t0 := time.Unix(int64(startSec), 0)
		interval := time.Duration(intervalSec) * time.Second
		sched := e.Schedule(t0, interval, 6)
		got, want := make([]PingSample, 6), make([]PingSample, 6)
		for i, p := range pairs {
			checkResolved(t, "ResolveBatch", handles[i].st, ref, p.A, p.B)
			checkLoads(t, sched, &handles[i], ref, t0, interval)
			e.View(nil).PingTrainSchedHandle(&handles[i], 1, sched, got)
			refTrain(e, ref, p.A, p.B, 1, t0, interval, NeutralEffect(), want)
			for s := range got {
				if got[s] != want[s] {
					t.Fatalf("%+v -> %+v slot %d from %v every %v: train %+v, reference %+v", p.A, p.B, s, t0.UTC(), interval, got[s], want[s])
				}
			}
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
func bitIdentityPairs(topo *topology.Topology) []endpointPair {
	eyes := topo.ASesOfType(topology.Eyeball)
	r := rand.New(rand.NewSource(12))
	at := func(as *topology.AS, access time.Duration) Endpoint {
		return Endpoint{AS: as.ASN, City: as.PoPs[r.Intn(len(as.PoPs))], Access: access}
	}
	eye := func() *topology.AS { return eyes[r.Intn(len(eyes))] }
	access := func() time.Duration { return time.Duration(r.Int63n(int64(20 * time.Millisecond))) }
	var pairs []endpointPair
	for k := 0; k < 300; k++ {
		pairs = append(pairs, endpointPair{A: at(eye(), access()), B: at(eye(), access())})
	}
	for k := 0; k < 30; k++ {
		a, b := at(eye(), access()), at(eye(), access())
		for v := 0; v < 4; v++ {
			a2, b2 := a, b
			a2.Access, b2.Access = access(), access()
			pairs = append(pairs, endpointPair{A: a2, B: b}, endpointPair{A: b, B: a2}, endpointPair{A: a, B: b2})
		}
	}
	for k := 0; k < 30; k++ {
		a := at(eye(), access())
		b := a
		b.Access = access()
		pairs = append(pairs, endpointPair{A: a, B: b}, endpointPair{A: b, B: a})
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
			st, err := e.resolvePair(e.Line(p.A), e.Line(p.B))
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
		if err := e.View(nil).ResolveBatch(bind(e, pairs), handles); err != nil {
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
// attachment pairs, and price a train off each result. On the first
// attachment pair every goroutine also builds its slot schedule on the
// fresh engine, so they race to build its midpoint table. Every state
// and train must match the full-identity reference, and each attachment
// pair is admitted exactly once.
func TestAttachmentFirstAdmissionRace(t *testing.T) {
	e := New(testEngine(t).router, DefaultParams(), rng.New(8))
	eyes := cachedTopo.ASesOfType(topology.Eyeball)
	const attachPairs, workers = 16, 8
	t0 := time.Date(2017, 4, 20, 23, 55, 0, 0, time.UTC)
	scheds := make([]*Schedule, workers)
	for k := 0; k < attachPairs; k++ {
		src, dst := eyes[k], eyes[len(eyes)-1-k]
		ends := make([]endpointPair, workers)
		for w := range ends {
			ends[w] = endpointPair{
				A: Endpoint{AS: src.ASN, City: src.HomeCity(), Access: time.Duration(w+1) * 700 * time.Microsecond},
				B: Endpoint{AS: dst.ASN, City: dst.HomeCity(), Access: 4 * time.Millisecond},
			}
		}
		got := make([]pathState, workers)
		trains := make([][]PingSample, workers)
		errs := make([]error, workers)
		start := make(chan struct{})
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				<-start
				if scheds[w] == nil {
					scheds[w] = e.Schedule(t0, 5*time.Minute, 6)
				}
				p := ends[w]
				var h [1]PairHandle
				if w%2 == 0 {
					h[0].st, errs[w] = e.resolvePair(e.Line(p.A), e.Line(p.B))
					h[0].eff = NeutralEffect()
				} else {
					errs[w] = e.View(nil).ResolveBatch(bind(e, ends[w:w+1]), h[:])
				}
				got[w] = h[0].st
				trains[w] = make([]PingSample, 6)
				e.View(nil).PingTrainSchedHandle(&h[0], k, scheds[w], trains[w])
			}(w)
		}
		close(start)
		wg.Wait()
		want := make([]PingSample, 6)
		for w, p := range ends {
			if errs[w] != nil {
				t.Fatal(errs[w])
			}
			ref := refPathState(t, e, p.A, p.B)
			checkResolved(t, "racing resolve", got[w], ref, p.A, p.B)
			refTrain(e, ref, p.A, p.B, k, t0, 5*time.Minute, NeutralEffect(), want)
			for s := range want {
				if trains[w][s] != want[s] {
					t.Fatalf("racing train %+v -> %+v slot %d: %+v, reference %+v", p.A, p.B, s, trains[w][s], want[s])
				}
			}
		}
		if n := e.CachedPairs(); n != k+1 {
			t.Fatalf("after %d attachment pairs the cache holds %d entries", k+1, n)
		}
	}
}
