package latency

import (
	"testing"
	"time"

	"shortcuts/internal/rng"
)

// TestPingTrainEmpty pins the primitive's empty edges, which campaign
// batches reach (the two-relay experiment's last relay row is empty):
// an empty batch resolves and admits nothing, and an empty train prices
// nothing.
func TestPingTrainEmpty(t *testing.T) {
	e := New(testEngine(t).router, DefaultParams(), rng.New(4))
	if err := e.View(nil).ResolveBatch(nil, nil); err != nil {
		t.Fatal(err)
	}
	if n := e.CachedPairs(); n != 0 {
		t.Fatalf("an empty batch cached %d attachment pairs", n)
	}
	a, b := testEndpoints(t)
	pingTrain(t, e.View(nil), a, b, 0, e.Schedule(time.Date(2017, 4, 20, 12, 0, 0, 0, time.UTC), 0, 0), nil)
}

// requireZeroAllocPricing warms the a→b path state through v, then
// fails unless resolve + price — the one way a ping is priced — takes
// zero allocations per train on the warm cache. This is a regression
// fence: any change that re-introduces heap traffic into ResolveBatch
// or PingTrainSchedHandle (a hash object, a split generator, an
// escaping buffer) fails here rather than silently costing every
// campaign.
func requireZeroAllocPricing(t *testing.T, v View, a, b Endpoint, sched *Schedule) {
	t.Helper()
	train := make([]PingSample, sched.n)
	pingTrain(t, v, a, b, 0, sched, train)
	round := 0
	allocs := testing.AllocsPerRun(1000, func() {
		pingTrain(t, v, a, b, round, sched, train)
		round++
	})
	if allocs != 0 {
		t.Fatalf("bind + resolve + price of a %d-ping train (overlay %v) allocated %.1f/op on a warm cache, want 0",
			sched.n, v.ov != nil, allocs)
	}
}

// TestPingTrainZeroAllocs pins a full six-ping train without an
// overlay to zero allocations.
func TestPingTrainZeroAllocs(t *testing.T) {
	e := testEngine(t)
	a, b := testEndpoints(t)
	sched := e.Schedule(time.Date(2017, 4, 20, 12, 0, 0, 0, time.UTC), 5*time.Minute, 6)
	requireZeroAllocPricing(t, e.View(nil), a, b, sched)
}

// TestPingZeroAllocs pins a single ping without an overlay: a one-slot
// schedule shares the train core, so it must stay free as well.
func TestPingZeroAllocs(t *testing.T) {
	e := testEngine(t)
	a, b := testEndpoints(t)
	sched := e.Schedule(time.Date(2017, 4, 20, 12, 0, 0, 0, time.UTC), 0, 1)
	requireZeroAllocPricing(t, e.View(nil), a, b, sched)
}

// TestBaseRTTWarmZeroAllocs pins the warmed load-independent query to
// zero allocations: hash + shard lookup only.
func TestBaseRTTWarmZeroAllocs(t *testing.T) {
	e := testEngine(t)
	a, b := testEndpoints(t)
	if _, err := e.BaseRTT(a, b); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		if _, err := e.BaseRTT(a, b); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("BaseRTT allocated %.1f/op on a warm cache, want 0", allocs)
	}
}

// TestTrainMatchesReference prices every slot of every train from the
// pair's full identity with the formulas written out (refPathState and
// refTrain: line factors drawn inline, geo.Midpoint, the cosine load,
// the per-ping draws in order) and requires ResolveBatch +
// PingTrainSchedHandle to match bit for bit, down to the load each
// handle's schedule row holds: over bitIdentityPairs, on
// five schedules (00:00 and 12:00 every 5 minutes, 23:55 every 5
// minutes across midnight, 13:07:41 every 37 seconds, and interval 0),
// at rounds 0, 1 and 44, on the neutral view and under an overlay.
func TestTrainMatchesReference(t *testing.T) {
	base := testEngine(t)
	e := New(base.router, DefaultParams(), rng.New(5))
	pairs := bitIdentityPairs(cachedTopo)
	handles := make([]PairHandle, len(pairs))
	refs := make([]refState, len(pairs))
	for i, p := range pairs {
		refs[i] = refPathState(t, e, p.A, p.B)
	}
	nc := len(cachedTopo.Cities)
	ov := neutralTables(nc)
	for c := 0; c < nc; c++ {
		ov.factor[c] = 1 + float64(c%7)/50
		if c%5 == 0 {
			ov.loss[c] = 0.2
		}
		ov.down[c] = c%11 == 0
	}
	day := time.Date(2017, 4, 20, 0, 0, 0, 0, time.UTC)
	schedules := []struct {
		t0       time.Time
		interval time.Duration
	}{
		{day, 5 * time.Minute},
		{day.Add(12 * time.Hour), 5 * time.Minute},
		{day.Add(23*time.Hour + 55*time.Minute), 5 * time.Minute},
		{day.Add(13*time.Hour + 7*time.Minute + 41*time.Second), 37 * time.Second},
		{day.Add(6*time.Hour + 30*time.Minute), 0},
	}
	got, want := make([]PingSample, 6), make([]PingSample, 6)
	checked := 0
	for _, v := range []View{e.View(nil), e.View(ov)} {
		if err := v.ResolveBatch(bind(e, pairs), handles); err != nil {
			t.Fatal(err)
		}
		for _, sc := range schedules {
			sched := e.Schedule(sc.t0, sc.interval, len(got))
			for i := range pairs {
				checkLoads(t, sched, &handles[i], refs[i], sc.t0, sc.interval)
			}
			for _, round := range []int{0, 1, 44} {
				for i, p := range pairs {
					eff := NeutralEffect()
					if v.ov != nil {
						eff = ov.PairEffect(p.A.City, p.B.City)
					}
					v.PingTrainSchedHandle(&handles[i], round, sched, got)
					refTrain(e, refs[i], p.A, p.B, round, sc.t0, sc.interval, eff, want)
					for s := range got {
						if got[s] != want[s] {
							t.Fatalf("%+v -> %+v round %d slot %d from %v every %v (overlay %v): train %+v, reference %+v",
								p.A, p.B, round, s, sc.t0, sc.interval, v.ov != nil, got[s], want[s])
						}
						if got[s].OK {
							checked++
						}
					}
				}
			}
		}
	}
	if checked < len(pairs)*len(schedules)*3*len(got) {
		t.Fatalf("only %d replies compared: the grid is mostly lost", checked)
	}
}
