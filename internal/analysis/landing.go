package analysis

import (
	"sort"

	"shortcuts/internal/geo"
	"shortcuts/internal/measure"
	"shortcuts/internal/relays"
	"shortcuts/internal/worlddata"
)

// LandingBucket aggregates relay success by distance to the nearest
// submarine-cable landing point, the paper's future-work item (iii):
// intercontinental shortcuts should favour relays near cable landings.
type LandingBucket struct {
	MaxDistanceKm float64 // bucket upper bound; the last bucket is open
	Relays        int     // distinct improving COR relays in the bucket
	Improvements  int     // improvement events contributed
}

// LandingPointProximity buckets improving COR relays by the distance from
// their city to the nearest landing point. Buckets are the given
// ascending upper bounds plus a final open bucket.
func LandingPointProximity(res *measure.Results, boundsKm []float64) []LandingBucket {
	topo := res.World.Topo
	var landings []geo.Coord
	for _, lp := range worlddata.LandingPoints() {
		if c, ok := worlddata.CityByName(lp.CityName); ok {
			landings = append(landings, c.Loc)
		}
	}
	nearest := func(city int) float64 {
		best := -1.0
		loc := topo.CityLoc(city)
		for _, l := range landings {
			if d := geo.Distance(loc, l); best < 0 || d < best {
				best = d
			}
		}
		return best
	}

	bounds := append([]float64(nil), boundsKm...)
	sort.Float64s(bounds)
	buckets := make([]LandingBucket, len(bounds)+1)
	for i, b := range bounds {
		buckets[i].MaxDistanceKm = b
	}
	buckets[len(bounds)].MaxDistanceKm = -1 // open

	cat := res.World.Catalog
	events := make(map[int32]int)
	for i := range res.Observations {
		for _, e := range res.Observations[i].Improving {
			if cat.Type(int(e.Relay)) == relays.COR {
				events[e.Relay]++
			}
		}
	}
	for relay, n := range events {
		d := nearest(cat.City(int(relay)))
		placed := false
		for i, b := range bounds {
			if d <= b {
				buckets[i].Relays++
				buckets[i].Improvements += n
				placed = true
				break
			}
		}
		if !placed {
			buckets[len(bounds)].Relays++
			buckets[len(bounds)].Improvements += n
		}
	}
	return buckets
}
