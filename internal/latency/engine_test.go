package latency

import (
	"testing"
	"time"

	"shortcuts/internal/bgp"
	"shortcuts/internal/datasets/apnic"
	"shortcuts/internal/geo"
	"shortcuts/internal/rng"
	"shortcuts/internal/topology"
	"shortcuts/internal/worlddata"
)

var (
	cachedEngine *Engine
	cachedTopo   *topology.Topology
)

func testEngine(t *testing.T) *Engine {
	t.Helper()
	if cachedEngine != nil {
		return cachedEngine
	}
	g := rng.New(1)
	ds := apnic.Generate(g.Split("apnic"), apnic.DefaultParams(worlddata.CountryCodes()))
	topo, err := topology.Generate(g, topology.DefaultParams(), ds)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	cachedTopo = topo
	cachedEngine = New(bgp.New(topo), DefaultParams(), g)
	return cachedEngine
}

func testEndpoints(t *testing.T) (Endpoint, Endpoint) {
	t.Helper()
	e := testEngine(t)
	eyes := e.router.Topology().ASesOfType(topology.Eyeball)
	a := Endpoint{AS: eyes[0].ASN, City: eyes[0].HomeCity(), Access: 6 * time.Millisecond}
	b := Endpoint{AS: eyes[len(eyes)-1].ASN, City: eyes[len(eyes)-1].HomeCity(), Access: 8 * time.Millisecond}
	return a, b
}

// pingTrain prices one train from a to b through the one pricing
// primitive: a single-pair ResolveBatch, then PingTrainSchedHandle on
// the slot schedule hourFrac. It skips t.Helper, whose caller lookup
// would dominate the benchmarks that time this helper.
func pingTrain(t testing.TB, v View, a, b Endpoint, round int, hourFrac []float64, out []PingSample) {
	pairs := [1]EndpointPair{{A: a, B: b}}
	var h [1]PairHandle
	if err := v.ResolveBatch(pairs[:], h[:]); err != nil {
		t.Fatal(err)
	}
	v.PingTrainSchedHandle(&h[0], round, hourFrac, out)
}

func TestBaseRTTPositiveAndStable(t *testing.T) {
	e := testEngine(t)
	a, b := testEndpoints(t)
	r1, err := e.BaseRTT(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if r1 <= 0 {
		t.Fatalf("BaseRTT = %v, want > 0", r1)
	}
	r2, err := e.BaseRTT(a, b)
	if err != nil || r1 != r2 {
		t.Fatalf("BaseRTT unstable: %v vs %v (%v)", r1, r2, err)
	}
}

func TestBaseRTTSymmetric(t *testing.T) {
	e := testEngine(t)
	a, b := testEndpoints(t)
	r1, _ := e.BaseRTT(a, b)
	r2, err := e.BaseRTT(b, a)
	if err != nil || r1 != r2 {
		t.Fatalf("BaseRTT not symmetric: %v vs %v (%v)", r1, r2, err)
	}
}

func TestBaseRTTAboveSpeedOfLight(t *testing.T) {
	e := testEngine(t)
	topo := e.router.Topology()
	eyes := topo.ASesOfType(topology.Eyeball)
	for i := 0; i < len(eyes); i += 9 {
		for j := 3; j < len(eyes); j += 17 {
			if eyes[i].ASN == eyes[j].ASN {
				continue
			}
			a := Endpoint{AS: eyes[i].ASN, City: eyes[i].HomeCity(), Access: time.Millisecond}
			b := Endpoint{AS: eyes[j].ASN, City: eyes[j].HomeCity(), Access: time.Millisecond}
			rtt, err := e.BaseRTT(a, b)
			if err != nil {
				t.Fatal(err)
			}
			min := geo.MinRTT(topo.CityLoc(a.City), topo.CityLoc(b.City))
			if rtt < min {
				t.Fatalf("RTT %v beats speed of light %v for %d->%d", rtt, min, a.AS, b.AS)
			}
		}
	}
}

func TestBaseRTTRealisticMagnitudes(t *testing.T) {
	// Transatlantic eyeball-to-eyeball RTTs should land in tens to a few
	// hundred ms — the sanity band for the whole calibration.
	e := testEngine(t)
	topo := e.router.Topology()
	var gb, us *topology.AS
	for _, eye := range topo.ASesOfType(topology.Eyeball) {
		if eye.CC == "GB" && gb == nil {
			gb = eye
		}
		if eye.CC == "US" && us == nil {
			us = eye
		}
	}
	if gb == nil || us == nil {
		t.Skip("missing GB or US eyeball")
	}
	a := Endpoint{AS: gb.ASN, City: gb.HomeCity(), Access: 6 * time.Millisecond}
	b := Endpoint{AS: us.ASN, City: us.HomeCity(), Access: 6 * time.Millisecond}
	rtt, err := e.BaseRTT(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if rtt < 60*time.Millisecond || rtt > 400*time.Millisecond {
		t.Fatalf("GB-US eyeball RTT = %v, want 60-400ms", rtt)
	}
}

func TestAccessDelayCharged(t *testing.T) {
	// 10ms one-way access appears twice in the RTT, scaled by a
	// per-endpoint line-quality factor (log-normal, sigma 0.35). A single
	// endpoint's factor can legitimately land anywhere in ~[0.35, 2.9],
	// so assert on the mean delta across several endpoint identities,
	// which concentrates near 2 x 10ms x E[factor].
	e := testEngine(t)
	eyes := e.router.Topology().ASesOfType(topology.Eyeball)
	_, b := testEndpoints(t)
	var sum float64
	n := 0
	for i := 0; i < len(eyes) && n < 12; i += 2 {
		if eyes[i].ASN == b.AS {
			continue
		}
		thin := Endpoint{AS: eyes[i].ASN, City: eyes[i].HomeCity()}
		fat := thin
		fat.Access = 10 * time.Millisecond
		rThin, err1 := e.BaseRTT(thin, b)
		rFat, err2 := e.BaseRTT(fat, b)
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		if rFat <= rThin {
			t.Fatalf("endpoint %d: fat access RTT %v not above thin %v", i, rFat, rThin)
		}
		sum += float64(rFat - rThin)
		n++
	}
	if n < 8 {
		t.Fatalf("only %d endpoints sampled", n)
	}
	mean := time.Duration(sum / float64(n))
	if mean < 12*time.Millisecond || mean > 40*time.Millisecond {
		t.Fatalf("mean access delta = %v over %d endpoints, want ~2x10ms scaled", mean, n)
	}
}

func TestPingDeterministicPerSlot(t *testing.T) {
	e := testEngine(t)
	a, b := testEndpoints(t)
	hourFrac := SlotHourFracs(time.Date(2017, 4, 20, 12, 0, 0, 0, time.UTC), 0, 4, nil)
	t1, t2 := make([]PingSample, 4), make([]PingSample, 4)
	pingTrain(t, e.View(nil), a, b, 3, hourFrac, t1)
	pingTrain(t, e.View(nil), a, b, 3, hourFrac, t2)
	if t1[2] != t2[2] {
		t.Fatalf("same-slot pings differ: %+v vs %+v", t1[2], t2[2])
	}
	if t1[2].RTT == t1[3].RTT {
		t.Fatal("different slots produced identical RTTs (no noise)")
	}
}

func TestPingDirectionNearlySymmetric(t *testing.T) {
	// Paper: for ~80% of pairs, reversing ping direction changes the
	// median RTT by <5%.
	e := testEngine(t)
	topo := e.router.Topology()
	eyes := topo.ASesOfType(topology.Eyeball)
	at := time.Date(2017, 4, 20, 6, 0, 0, 0, time.UTC)
	within5 := 0
	total := 0
	for i := 0; i < len(eyes)-1; i += 4 {
		a := Endpoint{AS: eyes[i].ASN, City: eyes[i].HomeCity(), Access: 5 * time.Millisecond}
		b := Endpoint{AS: eyes[i+1].ASN, City: eyes[i+1].HomeCity(), Access: 5 * time.Millisecond}
		fwd := medianPing(t, e, a, b, at)
		rev := medianPing(t, e, b, a, at)
		if fwd == 0 || rev == 0 {
			continue
		}
		total++
		ratio := float64(fwd-rev) / float64(rev)
		if ratio < 0 {
			ratio = -ratio
		}
		if ratio < 0.05 {
			within5++
		}
	}
	if total < 20 {
		t.Fatalf("only %d pairs sampled", total)
	}
	frac := float64(within5) / float64(total)
	if frac < 0.6 {
		t.Fatalf("only %.0f%% of pairs within 5%% across directions, want >= 60%%", frac*100)
	}
}

func medianPing(t *testing.T, e *Engine, a, b Endpoint, at time.Time) time.Duration {
	t.Helper()
	train := make([]PingSample, 6)
	pingTrain(t, e.View(nil), a, b, 0, SlotHourFracs(at, 0, len(train), nil), train)
	var vals []time.Duration
	for _, p := range train {
		if p.OK {
			vals = append(vals, p.RTT)
		}
	}
	if len(vals) < 3 {
		return 0
	}
	for i := 1; i < len(vals); i++ {
		for j := i; j > 0 && vals[j] < vals[j-1]; j-- {
			vals[j], vals[j-1] = vals[j-1], vals[j]
		}
	}
	return vals[len(vals)/2]
}

func TestLossRateApproximate(t *testing.T) {
	e := testEngine(t)
	a, b := testEndpoints(t)
	at := time.Date(2017, 4, 25, 9, 0, 0, 0, time.UTC)
	lost := 0
	n := 4000
	train := make([]PingSample, n)
	pingTrain(t, e.View(nil), a, b, 99, SlotHourFracs(at, 0, n, nil), train)
	for _, p := range train {
		if !p.OK {
			lost++
		}
	}
	rate := float64(lost) / float64(n)
	if rate < 0.01 || rate > 0.06 {
		t.Fatalf("loss rate = %.3f, want ~0.03", rate)
	}
}

func TestDiurnalFactorShape(t *testing.T) {
	peak := diurnalFactorHour(21, 0.05, 0)
	trough := diurnalFactorHour(9, 0.05, 0)
	if peak <= trough {
		t.Fatalf("peak %v <= trough %v", peak, trough)
	}
	if peak > 1.051 || trough < 0.999 {
		t.Fatalf("diurnal out of band: peak %v trough %v", peak, trough)
	}
	if got := diurnalFactorHour(hourFracOf(time.Now()), 0, 0); got != 1 {
		t.Fatalf("zero-amplitude factor = %v, want 1", got)
	}
}

func TestTraceDirectional(t *testing.T) {
	e := testEngine(t)
	a, b := testEndpoints(t)
	fwd, err := e.Trace(a, b)
	if err != nil {
		t.Fatal(err)
	}
	rev, err := e.Trace(b, a)
	if err != nil {
		t.Fatal(err)
	}
	if fwd.Cities[0] != a.City || fwd.Cities[len(fwd.Cities)-1] != b.City {
		t.Fatalf("forward trace endpoints wrong: %v", fwd.Cities)
	}
	if rev.Cities[0] != b.City || rev.Cities[len(rev.Cities)-1] != a.City {
		t.Fatalf("reverse trace endpoints wrong: %v", rev.Cities)
	}
}

// TestCachedPairsGrows pins what the cache counts: attachment pairs. A
// variant of a cached pair that differs only in access delay, in either
// direction, shares its entry; a new attachment pair adds exactly one.
func TestCachedPairsGrows(t *testing.T) {
	e := New(testEngine(t).router, DefaultParams(), rng.New(2))
	a, b := testEndpoints(t)
	price := func(x, y Endpoint) int {
		t.Helper()
		if _, err := e.BaseRTT(x, y); err != nil {
			t.Fatal(err)
		}
		return e.CachedPairs()
	}
	if n := price(a, b); n != 1 {
		t.Fatalf("first pair cached %d entries, want 1", n)
	}
	c := a
	c.Access = 123 * time.Microsecond // distinct endpoint identity, same attachment
	if n := price(c, b); n != 1 {
		t.Fatalf("access-only variant changed CachedPairs to %d, want 1", n)
	}
	if n := price(b, c); n != 1 {
		t.Fatalf("reversed variant changed CachedPairs to %d, want 1", n)
	}
	eye := cachedTopo.ASesOfType(topology.Eyeball)[1] // neither a's AS nor b's
	d := Endpoint{AS: eye.ASN, City: eye.HomeCity(), Access: a.Access}
	if n := price(d, b); n != 2 {
		t.Fatalf("new attachment pair left CachedPairs at %d, want 2", n)
	}
}

func TestEngineDeterministicAcrossInstances(t *testing.T) {
	build := func() (*Engine, Endpoint, Endpoint) {
		g := rng.New(42)
		ds := apnic.Generate(g.Split("apnic"), apnic.DefaultParams(worlddata.CountryCodes()))
		topo, err := topology.Generate(g, topology.SmallParams(), ds)
		if err != nil {
			t.Fatal(err)
		}
		eng := New(bgp.New(topo), DefaultParams(), g)
		eyes := topo.ASesOfType(topology.Eyeball)
		a := Endpoint{AS: eyes[0].ASN, City: eyes[0].HomeCity(), Access: 5 * time.Millisecond}
		b := Endpoint{AS: eyes[9].ASN, City: eyes[9].HomeCity(), Access: 7 * time.Millisecond}
		return eng, a, b
	}
	e1, a1, b1 := build()
	e2, a2, b2 := build()
	hourFrac := SlotHourFracs(time.Date(2017, 5, 1, 15, 0, 0, 0, time.UTC), 0, 20, nil)
	t1, t2 := make([]PingSample, 20), make([]PingSample, 20)
	pingTrain(t, e1.View(nil), a1, b1, 1, hourFrac, t1)
	pingTrain(t, e2.View(nil), a2, b2, 1, hourFrac, t2)
	for s := range t1 {
		if t1[s] != t2[s] {
			t.Fatalf("engines diverge at slot %d: %+v vs %+v", s, t1[s], t2[s])
		}
	}
}

func TestShardCountDoesNotAffectPings(t *testing.T) {
	// The shard count is a pure concurrency knob: every count must price
	// every pair and ping identically.
	g := rng.New(7)
	ds := apnic.Generate(g.Split("apnic"), apnic.DefaultParams(worlddata.CountryCodes()))
	topo, err := topology.Generate(g, topology.SmallParams(), ds)
	if err != nil {
		t.Fatal(err)
	}
	router := bgp.New(topo)
	eyes := topo.ASesOfType(topology.Eyeball)
	hourFrac := SlotHourFracs(time.Date(2017, 4, 22, 18, 0, 0, 0, time.UTC), 0, 3, nil)
	ref, got := make([]PingSample, 3), make([]PingSample, 3)

	var engines []*Engine
	for _, shards := range []int{1, 2, 8, 64} {
		p := DefaultParams()
		p.CacheShards = shards
		engines = append(engines, New(router, p, rng.New(7)))
	}
	if got := engines[0].NumShards(); got != 1 {
		t.Fatalf("NumShards = %d, want 1", got)
	}
	for i := 0; i < len(eyes)-1; i += 3 {
		a := Endpoint{AS: eyes[i].ASN, City: eyes[i].HomeCity(), Access: 4 * time.Millisecond}
		b := Endpoint{AS: eyes[i+1].ASN, City: eyes[i+1].HomeCity(), Access: 6 * time.Millisecond}
		pingTrain(t, engines[0].View(nil), a, b, 2, hourFrac, ref)
		for _, e := range engines[1:] {
			pingTrain(t, e.View(nil), a, b, 2, hourFrac, got)
			for slot := range ref {
				if got[slot] != ref[slot] {
					t.Fatalf("shards=%d diverges at slot %d: %+v vs %+v", e.NumShards(), slot, got[slot], ref[slot])
				}
			}
		}
	}
	// Every engine priced the same pair set, however it is sharded.
	want := engines[0].CachedPairs()
	for _, e := range engines[1:] {
		if got := e.CachedPairs(); got != want {
			t.Fatalf("shards=%d cached %d pairs, want %d", e.NumShards(), got, want)
		}
	}
}

func TestShardCountRoundsUpToPowerOfTwo(t *testing.T) {
	g := rng.New(3)
	ds := apnic.Generate(g.Split("apnic"), apnic.DefaultParams(worlddata.CountryCodes()))
	topo, err := topology.Generate(g, topology.SmallParams(), ds)
	if err != nil {
		t.Fatal(err)
	}
	router := bgp.New(topo)
	for _, c := range []struct{ in, want int }{
		{0, DefaultCacheShards}, {-4, DefaultCacheShards},
		{1, 1}, {2, 2}, {3, 4}, {5, 8}, {33, 64},
	} {
		p := DefaultParams()
		p.CacheShards = c.in
		if got := New(router, p, rng.New(3)).NumShards(); got != c.want {
			t.Fatalf("CacheShards=%d -> %d shards, want %d", c.in, got, c.want)
		}
	}
}

func TestOrderIndependence(t *testing.T) {
	// Path state must not depend on which pair was priced first.
	g1 := rng.New(9)
	ds := apnic.Generate(g1.Split("apnic"), apnic.DefaultParams(worlddata.CountryCodes()))
	topo, err := topology.Generate(g1, topology.SmallParams(), ds)
	if err != nil {
		t.Fatal(err)
	}
	eyes := topo.ASesOfType(topology.Eyeball)
	a := Endpoint{AS: eyes[0].ASN, City: eyes[0].HomeCity(), Access: time.Millisecond}
	b := Endpoint{AS: eyes[5].ASN, City: eyes[5].HomeCity(), Access: time.Millisecond}
	c := Endpoint{AS: eyes[10].ASN, City: eyes[10].HomeCity(), Access: time.Millisecond}

	e1 := New(bgp.New(topo), DefaultParams(), rng.New(9))
	e2 := New(bgp.New(topo), DefaultParams(), rng.New(9))
	// e1 prices (a,b) then (a,c); e2 prices (a,c) then (a,b).
	ab1, _ := e1.BaseRTT(a, b)
	ac1, _ := e1.BaseRTT(a, c)
	ac2, _ := e2.BaseRTT(a, c)
	ab2, _ := e2.BaseRTT(a, b)
	if ab1 != ab2 || ac1 != ac2 {
		t.Fatalf("order-dependent pricing: ab %v/%v ac %v/%v", ab1, ab2, ac1, ac2)
	}
}
