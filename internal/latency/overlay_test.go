package latency

import (
	"testing"
	"time"
)

// tableOverlay is a minimal Overlay for tests: per-city factor/loss/down
// tables, the same shape the scenario package compiles to.
type tableOverlay struct {
	factor []float64
	loss   []float64
	down   []bool
}

func (o *tableOverlay) PairEffect(a, b int) Effect {
	eff := Effect{RTTFactor: 1}
	if o.down != nil && (o.down[a] || o.down[b]) {
		eff.Down = true
		return eff
	}
	if o.factor != nil {
		eff.RTTFactor = o.factor[a] * o.factor[b]
	}
	if o.loss != nil {
		eff.ExtraLoss = o.loss[a] + o.loss[b]
	}
	return eff
}

func neutralTables(n int) *tableOverlay {
	o := &tableOverlay{factor: make([]float64, n), loss: make([]float64, n), down: make([]bool, n)}
	for i := range o.factor {
		o.factor[i] = 1
	}
	return o
}

func overlayEndpoints(t *testing.T) (*Engine, Endpoint, Endpoint, int) {
	t.Helper()
	e := testEngine(t)
	a, b := testEndpoints(t)
	return e, a, b, len(cachedTopo.Cities)
}

// TestViewNeutralTablesMatchEngine proves an ACTIVE overlay whose
// tables are all-neutral (factor 1, loss 0, nothing down) prices
// bit-identically to the nil overlay: neutral multiplications are exact
// and neutral losses consume no draw.
func TestViewNeutralTablesMatchEngine(t *testing.T) {
	e, a, b, nc := overlayEndpoints(t)
	v := e.View(neutralTables(nc))
	sched := e.Schedule(time.Date(2017, 4, 21, 6, 0, 0, 0, time.UTC), 5*time.Minute, 6)
	train1 := make([]PingSample, 6)
	train2 := make([]PingSample, 6)
	for round := 0; round < 8; round++ {
		pingTrain(t, e.View(nil), a, b, round, sched, train1)
		pingTrain(t, v, a, b, round, sched, train2)
		for s := range train1 {
			if train1[s] != train2[s] {
				t.Fatalf("round %d slot %d: neutral overlay diverged: %+v vs %+v",
					round, s, train1[s], train2[s])
			}
		}
	}
}

// TestViewFactorScalesRTT proves a pure RTT factor multiplies every
// successful slot exactly, leaving loss outcomes untouched.
func TestViewFactorScalesRTT(t *testing.T) {
	e, a, b, nc := overlayEndpoints(t)
	ov := neutralTables(nc)
	ov.factor[a.City] = 2
	v := e.View(ov)
	sched := e.Schedule(time.Date(2017, 4, 21, 18, 0, 0, 0, time.UTC), 5*time.Minute, 6)
	base := make([]PingSample, 6)
	pert := make([]PingSample, 6)
	pingTrain(t, e.View(nil), a, b, 1, sched, base)
	pingTrain(t, v, a, b, 1, sched, pert)
	for s := range base {
		if base[s].OK != pert[s].OK {
			t.Fatalf("slot %d: loss outcome changed under pure factor overlay", s)
		}
		if !base[s].OK {
			continue
		}
		want := time.Duration(float64(base[s].RTT) * 2)
		got := pert[s].RTT
		// The factor applies to the float RTT before truncation, so
		// allow a nanosecond of rounding.
		if diff := got - want; diff < -time.Nanosecond || diff > time.Nanosecond {
			t.Fatalf("slot %d: RTT %v under 2x overlay, want ~%v", s, got, want)
		}
	}
}

// TestViewDownMasksPings proves the availability mask loses every ping
// touching a downed city.
func TestViewDownMasksPings(t *testing.T) {
	e, a, b, nc := overlayEndpoints(t)
	ov := neutralTables(nc)
	ov.down[b.City] = true
	v := e.View(ov)
	sched := e.Schedule(time.Date(2017, 4, 22, 0, 0, 0, 0, time.UTC), 5*time.Minute, 6)
	out := make([]PingSample, 6)
	pingTrain(t, v, a, b, 0, sched, out)
	for s, p := range out {
		if p.OK || p.RTT != 0 {
			t.Fatalf("slot %d: ping succeeded through a downed city: %+v", s, p)
		}
	}
}

// TestViewExtraLossRate proves added loss shows up at roughly the
// configured rate across many slots.
func TestViewExtraLossRate(t *testing.T) {
	e, a, b, nc := overlayEndpoints(t)
	ov := neutralTables(nc)
	ov.loss[a.City] = 0.5
	v := e.View(ov)
	sched := e.Schedule(time.Date(2017, 4, 22, 12, 0, 0, 0, time.UTC), 0, 1)
	const rounds = 400
	lostBase, lostOv := 0, 0
	var ping [1]PingSample
	for round := 0; round < rounds; round++ {
		pingTrain(t, e.View(nil), a, b, round, sched, ping[:])
		if !ping[0].OK {
			lostBase++
		}
		pingTrain(t, v, a, b, round, sched, ping[:])
		if !ping[0].OK {
			lostOv++
		}
	}
	baseRate := float64(lostBase) / rounds
	ovRate := float64(lostOv) / rounds
	// Expected: base ~3%, overlay ~ base + (1-base)*50%.
	if ovRate < baseRate+0.35 || ovRate > baseRate+0.60 {
		t.Fatalf("overlay loss rate %.2f (base %.2f), want base+~0.5", ovRate, baseRate)
	}
}

// TestViewPingZeroAllocs pins a single ping under an ACTIVE overlay to
// zero allocations, same as without one.
func TestViewPingZeroAllocs(t *testing.T) {
	e, a, b, nc := overlayEndpoints(t)
	ov := neutralTables(nc)
	ov.factor[a.City] = 1.3
	ov.loss[b.City] = 0.05
	sched := e.Schedule(time.Date(2017, 4, 23, 12, 0, 0, 0, time.UTC), 0, 1)
	requireZeroAllocPricing(t, e.View(ov), a, b, sched)
}

// TestViewPingTrainZeroAllocs pins a full six-ping train under an
// ACTIVE overlay to zero allocations.
func TestViewPingTrainZeroAllocs(t *testing.T) {
	e, a, b, nc := overlayEndpoints(t)
	ov := neutralTables(nc)
	ov.factor[a.City] = 1.3
	ov.loss[b.City] = 0.05
	sched := e.Schedule(time.Date(2017, 4, 23, 18, 0, 0, 0, time.UTC), 5*time.Minute, 6)
	requireZeroAllocPricing(t, e.View(ov), a, b, sched)
}
