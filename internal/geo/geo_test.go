package geo

import (
	"math"
	"testing"
	"testing/quick"
)

var (
	london   = Coord{51.5074, -0.1278}
	newYork  = Coord{40.7128, -74.0060}
	sydney   = Coord{-33.8688, 151.2093}
	tokyo    = Coord{35.6762, 139.6503}
	frankfrt = Coord{50.1109, 8.6821}
)

func TestDistanceKnownPairs(t *testing.T) {
	cases := []struct {
		name string
		a, b Coord
		want float64 // km
		tol  float64
	}{
		{"London-NewYork", london, newYork, 5570, 60},
		{"London-Sydney", london, sydney, 16990, 150},
		{"Tokyo-Sydney", tokyo, sydney, 7820, 100},
		{"London-Frankfurt", london, frankfrt, 640, 20},
	}
	for _, c := range cases {
		got := Distance(c.a, c.b)
		if math.Abs(got-c.want) > c.tol {
			t.Errorf("%s: Distance = %.0f km, want %.0f ± %.0f", c.name, got, c.want, c.tol)
		}
	}
}

func TestDistanceIdentity(t *testing.T) {
	if d := Distance(london, london); d != 0 {
		t.Fatalf("Distance(x,x) = %v, want 0", d)
	}
}

func TestDistanceSymmetry(t *testing.T) {
	f := func(lat1, lon1, lat2, lon2 float64) bool {
		a := Coord{clampLat(lat1), clampLon(lon1)}
		b := Coord{clampLat(lat2), clampLon(lon2)}
		d1 := Distance(a, b)
		d2 := Distance(b, a)
		return math.Abs(d1-d2) < 1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDistanceTriangleInequality(t *testing.T) {
	f := func(lat1, lon1, lat2, lon2, lat3, lon3 float64) bool {
		a := Coord{clampLat(lat1), clampLon(lon1)}
		b := Coord{clampLat(lat2), clampLon(lon2)}
		c := Coord{clampLat(lat3), clampLon(lon3)}
		return Distance(a, c) <= Distance(a, b)+Distance(b, c)+1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDistanceBounded(t *testing.T) {
	// No two points on Earth are farther apart than half the circumference.
	maxKm := math.Pi * EarthRadiusKm
	f := func(lat1, lon1, lat2, lon2 float64) bool {
		a := Coord{clampLat(lat1), clampLon(lon1)}
		b := Coord{clampLat(lat2), clampLon(lon2)}
		d := Distance(a, b)
		return d >= 0 && d <= maxKm+1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMidpointHalfway(t *testing.T) {
	m := Midpoint(london, newYork)
	d1 := Distance(london, m)
	d2 := Distance(m, newYork)
	if math.Abs(d1-d2) > 1.0 {
		t.Fatalf("midpoint legs differ: %.2f vs %.2f km", d1, d2)
	}
	total := Distance(london, newYork)
	if math.Abs(d1+d2-total) > 1.0 {
		t.Fatalf("midpoint is off the geodesic: %.2f + %.2f != %.2f", d1, d2, total)
	}
}

func TestMidpointValid(t *testing.T) {
	f := func(lat1, lon1, lat2, lon2 float64) bool {
		a := Coord{clampLat(lat1), clampLon(lon1)}
		b := Coord{clampLat(lat2), clampLon(lon2)}
		return Midpoint(a, b).Valid()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestValid(t *testing.T) {
	cases := []struct {
		c    Coord
		want bool
	}{
		{Coord{0, 0}, true},
		{Coord{90, 180}, true},
		{Coord{-90, -180}, true},
		{Coord{91, 0}, false},
		{Coord{0, 181}, false},
		{Coord{-90.5, 0}, false},
	}
	for _, c := range cases {
		if got := c.c.Valid(); got != c.want {
			t.Errorf("Valid(%v) = %v, want %v", c.c, got, c.want)
		}
	}
}

func TestIsZero(t *testing.T) {
	if !(Coord{}).IsZero() {
		t.Fatal("zero coord not IsZero")
	}
	if london.IsZero() {
		t.Fatal("London reported IsZero")
	}
}

func TestStringFormat(t *testing.T) {
	got := Coord{1.23456, -7.89}.String()
	if got != "(1.2346, -7.8900)" {
		t.Fatalf("String = %q", got)
	}
}

func clampLat(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return math.Mod(math.Abs(v), 180) - 90
}

func clampLon(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return math.Mod(math.Abs(v), 360) - 180
}
