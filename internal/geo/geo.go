// Package geo provides the geographic primitives used throughout the
// shortcuts library: WGS-84 coordinates, great-circle distances, and the
// speed-of-light-in-fiber propagation model the paper uses both for its
// latency substrate and for the relay feasibility filter (Section 2.4).
package geo

import (
	"fmt"
	"math"
)

// EarthRadiusKm is the mean Earth radius used for great-circle distances.
const EarthRadiusKm = 6371.0

// Coord is a WGS-84 coordinate. Latitude is in degrees north, longitude in
// degrees east.
type Coord struct {
	Lat float64
	Lon float64
}

// String implements fmt.Stringer.
func (c Coord) String() string {
	return fmt.Sprintf("(%.4f, %.4f)", c.Lat, c.Lon)
}

// Valid reports whether the coordinate lies within the WGS-84 domain.
func (c Coord) Valid() bool {
	return c.Lat >= -90 && c.Lat <= 90 && c.Lon >= -180 && c.Lon <= 180
}

// IsZero reports whether the coordinate is the zero value. The zero value
// (0, 0) is in the Gulf of Guinea and never corresponds to a real vantage
// point in this library, so it doubles as "unset".
func (c Coord) IsZero() bool {
	return c.Lat == 0 && c.Lon == 0
}

func radians(deg float64) float64 { return deg * math.Pi / 180 }

// Distance returns the great-circle distance in kilometres between a and b
// using the haversine formula, which is numerically stable for the small
// and antipodal distances that occur between vantage points.
func Distance(a, b Coord) float64 {
	if a == b {
		return 0
	}
	lat1 := radians(a.Lat)
	lat2 := radians(b.Lat)
	dLat := radians(b.Lat - a.Lat)
	dLon := radians(b.Lon - a.Lon)

	sinLat := math.Sin(dLat / 2)
	sinLon := math.Sin(dLon / 2)
	h := sinLat*sinLat + math.Cos(lat1)*math.Cos(lat2)*sinLon*sinLon
	if h > 1 {
		h = 1
	}
	return 2 * EarthRadiusKm * math.Asin(math.Sqrt(h))
}

// DistanceTo is a convenience method form of Distance.
func (c Coord) DistanceTo(o Coord) float64 { return Distance(c, o) }

// Midpoint returns the great-circle midpoint between a and b. It is used by
// the latency model to locate the "middle" of a path for diurnal load.
func Midpoint(a, b Coord) Coord {
	lat1 := radians(a.Lat)
	lon1 := radians(a.Lon)
	lat2 := radians(b.Lat)
	dLon := radians(b.Lon - a.Lon)

	bx := math.Cos(lat2) * math.Cos(dLon)
	by := math.Cos(lat2) * math.Sin(dLon)
	lat := math.Atan2(math.Sin(lat1)+math.Sin(lat2),
		math.Sqrt((math.Cos(lat1)+bx)*(math.Cos(lat1)+bx)+by*by))
	lon := lon1 + math.Atan2(by, math.Cos(lat1)+bx)

	// Normalise longitude to [-180, 180].
	lonDeg := math.Mod(lon*180/math.Pi+540, 360) - 180
	return Coord{Lat: lat * 180 / math.Pi, Lon: lonDeg}
}
