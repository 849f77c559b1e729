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
	pingTrain(t, e.View(nil), a, b, 0, nil, nil)
}

// requireZeroAllocPricing warms the a→b path state through v, then
// fails unless resolve + price — the one way a ping is priced — takes
// zero allocations per train on the warm cache. This is a regression
// fence: any change that re-introduces heap traffic into ResolveBatch
// or PingTrainSchedHandle (a hash object, a split generator, an
// escaping buffer) fails here rather than silently costing every
// campaign.
func requireZeroAllocPricing(t *testing.T, v View, a, b Endpoint, hourFrac []float64) {
	t.Helper()
	train := make([]PingSample, len(hourFrac))
	pingTrain(t, v, a, b, 0, hourFrac, train)
	round := 0
	allocs := testing.AllocsPerRun(1000, func() {
		pingTrain(t, v, a, b, round, hourFrac, train)
		round++
	})
	if allocs != 0 {
		t.Fatalf("resolve + price of a %d-ping train (overlay %v) allocated %.1f/op on a warm cache, want 0",
			len(hourFrac), v.ov != nil, allocs)
	}
}

// TestPingTrainZeroAllocs pins a full six-ping train without an
// overlay to zero allocations.
func TestPingTrainZeroAllocs(t *testing.T) {
	e := testEngine(t)
	a, b := testEndpoints(t)
	hourFrac := SlotHourFracs(time.Date(2017, 4, 20, 12, 0, 0, 0, time.UTC), 5*time.Minute, 6, nil)
	requireZeroAllocPricing(t, e.View(nil), a, b, hourFrac)
}

// TestPingZeroAllocs pins a single ping without an overlay: a one-slot
// schedule shares the train core, so it must stay free as well.
func TestPingZeroAllocs(t *testing.T) {
	e := testEngine(t)
	a, b := testEndpoints(t)
	hourFrac := SlotHourFracs(time.Date(2017, 4, 20, 12, 0, 0, 0, time.UTC), 0, 1, nil)
	requireZeroAllocPricing(t, e.View(nil), a, b, hourFrac)
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
