package geo

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

func TestPropDelayKnownValues(t *testing.T) {
	// 1000 km at ~199,862 km/s is ~5.003 ms one way.
	got := PropDelay(1000)
	want := 5.003 * float64(time.Millisecond)
	if math.Abs(float64(got)-want) > float64(50*time.Microsecond) {
		t.Fatalf("PropDelay(1000km) = %v, want ~5.003ms", got)
	}
}

func TestPropDelayZeroAndNegative(t *testing.T) {
	if PropDelay(0) != 0 {
		t.Fatal("PropDelay(0) != 0")
	}
	if PropDelay(-5) != 0 {
		t.Fatal("PropDelay(-5) != 0")
	}
}

func TestPropDelayMonotone(t *testing.T) {
	f := func(a, b float64) bool {
		a, b = math.Abs(a), math.Abs(b)
		if math.IsNaN(a) || math.IsInf(a, 0) || math.IsNaN(b) || math.IsInf(b, 0) {
			return true
		}
		if a > 1e9 || b > 1e9 {
			return true
		}
		if a > b {
			a, b = b, a
		}
		return PropDelay(a) <= PropDelay(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMinRTTLondonNewYork(t *testing.T) {
	// Great-circle London-NY is ~5570 km; speed-of-light RTT ~55.7 ms.
	got := MinRTT(london, newYork)
	if got < 54*time.Millisecond || got > 58*time.Millisecond {
		t.Fatalf("MinRTT(London,NY) = %v, want ~56ms", got)
	}
}

func TestFeasibleRelayGeometry(t *testing.T) {
	// A relay on the line between the endpoints is feasible if the direct
	// RTT has any slack at all over the speed-of-light bound.
	mid := Midpoint(london, newYork)
	direct := time.Duration(float64(MinRTT(london, newYork)) * 1.5)
	if !FeasibleRelay(london, mid, newYork, direct) {
		t.Fatal("on-geodesic relay rejected despite 50% direct-path slack")
	}
	// Sydney can never be a feasible relay for London-NY at a realistic RTT.
	if FeasibleRelay(london, sydney, newYork, direct) {
		t.Fatal("Sydney accepted as relay for London-NY at 84ms direct")
	}
}

func TestFeasibleRelayRejectsNonPositiveRTT(t *testing.T) {
	if FeasibleRelay(london, frankfrt, newYork, 0) {
		t.Fatal("feasible with zero direct RTT")
	}
	if FeasibleRelay(london, frankfrt, newYork, -time.Millisecond) {
		t.Fatal("feasible with negative direct RTT")
	}
}

func TestFeasibleRelayBoundaryExact(t *testing.T) {
	// Exactly at the bound: rule uses <=, so it is feasible.
	ideal := 2 * (PropDelayBetween(london, frankfrt) + PropDelayBetween(frankfrt, newYork))
	if !FeasibleRelay(london, frankfrt, newYork, ideal) {
		t.Fatal("relay at exact speed-of-light bound rejected")
	}
	if FeasibleRelay(london, frankfrt, newYork, ideal-time.Nanosecond) {
		t.Fatal("relay just over the bound accepted")
	}
}

func TestFeasibleRelayNeverOnGeodesicExcluded(t *testing.T) {
	// Property: any relay is feasible when the direct RTT is enormous.
	f := func(lat, lon float64) bool {
		relay := Coord{clampLat(lat), clampLon(lon)}
		return FeasibleRelay(london, relay, newYork, time.Hour)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFiberSpeedConstant(t *testing.T) {
	want := 299792.458 * 2.0 / 3.0
	if math.Abs(FiberSpeedKmPerSec-want) > 1e-9 {
		t.Fatalf("FiberSpeedKmPerSec = %v, want %v", FiberSpeedKmPerSec, want)
	}
}
