package latency

import (
	"math"
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
// path: both endpoints bound to their lines, a single-pair
// ResolveBatch, then PingTrainSchedHandle on sched. It skips t.Helper,
// whose caller lookup would dominate the benchmarks that time this
// helper.
func pingTrain(t testing.TB, v View, a, b Endpoint, round int, sched *Schedule, out []PingSample) {
	pairs := [1]LinePair{{A: v.e.Line(a), B: v.e.Line(b)}}
	var h [1]PairHandle
	if err := v.ResolveBatch(pairs[:], h[:]); err != nil {
		t.Fatal(err)
	}
	v.PingTrainSchedHandle(&h[0], round, sched, out)
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
	sched := e.Schedule(time.Date(2017, 4, 20, 12, 0, 0, 0, time.UTC), 0, 4)
	t1, t2 := make([]PingSample, 4), make([]PingSample, 4)
	pingTrain(t, e.View(nil), a, b, 3, sched, t1)
	pingTrain(t, e.View(nil), a, b, 3, sched, t2)
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
	sched := e.Schedule(time.Date(2017, 4, 20, 6, 0, 0, 0, time.UTC), 0, 6)
	within5 := 0
	total := 0
	for i := 0; i < len(eyes)-1; i += 4 {
		a := Endpoint{AS: eyes[i].ASN, City: eyes[i].HomeCity(), Access: 5 * time.Millisecond}
		b := Endpoint{AS: eyes[i+1].ASN, City: eyes[i+1].HomeCity(), Access: 5 * time.Millisecond}
		fwd := medianPing(t, e, a, b, sched)
		rev := medianPing(t, e, b, a, sched)
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

func medianPing(t *testing.T, e *Engine, a, b Endpoint, sched *Schedule) time.Duration {
	t.Helper()
	train := make([]PingSample, 6)
	pingTrain(t, e.View(nil), a, b, 0, sched, train)
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
	// 4000 pings as 40 trains of 100: a schedule tables every city
	// pair, so one 4000-slot train would cost hundreds of megabytes.
	sched := e.Schedule(time.Date(2017, 4, 25, 9, 0, 0, 0, time.UTC), 0, 100)
	lost := 0
	n := 4000
	train := make([]PingSample, 100)
	for round := 99; round < 99+n/len(train); round++ {
		pingTrain(t, e.View(nil), a, b, round, sched, train)
		for _, p := range train {
			if !p.OK {
				lost++
			}
		}
	}
	rate := float64(lost) / float64(n)
	if rate < 0.01 || rate > 0.06 {
		t.Fatalf("loss rate = %.3f, want ~0.03", rate)
	}
}

// TestDiurnalFactorShape pins the load a Schedule tables: 1 at 21:00
// local time at the path midpoint and 0 at 09:00, to within the minute
// the slot's hour fraction resolves; and a path with no diurnal
// amplitude is priced as if its factor were exactly 1.
func TestDiurnalFactorShape(t *testing.T) {
	e := testEngine(t)
	const city = 5
	p := city*e.nc + city
	midLon := geo.Midpoint(cachedTopo.CityLoc(city), cachedTopo.CityLoc(city)).Lon
	loadAt := func(localHour float64) float64 {
		utc := math.Mod(localHour-midLon/15+48, 24)
		at := time.Date(2017, 4, 20, 0, 0, 0, 0, time.UTC).Add(time.Duration(math.Round(utc*60)) * time.Minute)
		return e.Schedule(at, 0, 1).load[p]
	}
	if peak, trough := loadAt(21), loadAt(9); peak < 0.9999 || peak > 1 || trough > 1e-4 || trough < 0 {
		t.Fatalf("diurnal load out of band: peak %v trough %v, want 1 and 0", peak, trough)
	}
	// An amplitude-0 ping at full load equals a ping whose factor is
	// 1 + amp*0: exactly 1.
	flat := pathState{static: 5e7, asym: 1, hp: 77}
	loaded := flat
	loaded.diurnalAmp = 0.05
	for slot := 0; slot < 32; slot++ {
		got, ok1 := e.pingSlot(&flat, 3, slot, 1, NeutralEffect())
		want, ok2 := e.pingSlot(&loaded, 3, slot, 0, NeutralEffect())
		if got != want || ok1 != ok2 {
			t.Fatalf("slot %d: zero-amplitude ping %v, unit-factor ping %v", slot, got, want)
		}
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
	at := time.Date(2017, 5, 1, 15, 0, 0, 0, time.UTC)
	t1, t2 := make([]PingSample, 20), make([]PingSample, 20)
	pingTrain(t, e1.View(nil), a1, b1, 1, e1.Schedule(at, 0, 20), t1)
	pingTrain(t, e2.View(nil), a2, b2, 1, e2.Schedule(at, 0, 20), t2)
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
	sched := engines[0].Schedule(time.Date(2017, 4, 22, 18, 0, 0, 0, time.UTC), 0, 3)
	for i := 0; i < len(eyes)-1; i += 3 {
		a := Endpoint{AS: eyes[i].ASN, City: eyes[i].HomeCity(), Access: 4 * time.Millisecond}
		b := Endpoint{AS: eyes[i+1].ASN, City: eyes[i+1].HomeCity(), Access: 6 * time.Millisecond}
		pingTrain(t, engines[0].View(nil), a, b, 2, sched, ref)
		for _, e := range engines[1:] {
			pingTrain(t, e.View(nil), a, b, 2, sched, got)
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
