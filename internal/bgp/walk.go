package bgp

import (
	"fmt"

	"shortcuts/internal/topology"
)

// PathMetrics is what the latency model prices of a route between two
// attachment points: the great-circle length of its city polyline and
// the AS boundaries and city-to-city segments it crosses.
type PathMetrics struct {
	DistanceKm       float64
	ASHops, CityHops int
}

// Walk follows the BGP route between two attachment points at the city
// level and measures it.
//
// Starting at the source city, each AS boundary is crossed at the
// interconnection city on the link that is nearest to the traffic's
// current location (hot-potato / early-exit routing). The final segment
// runs from the last crossing to the destination city. The paper's direct
// paths inflate exactly here: when adjacent providers interconnect only at
// remote hubs, traffic between nearby countries detours through them.
//
// A crossing adds a segment only when its exit differs from the current
// city, and segment lengths add up in path order. Once the tree toward
// dstAS is built, Walk takes no lock and allocates nothing.
func (r *Router) Walk(srcAS topology.ASN, srcCity int, dstAS topology.ASN, dstCity int) (PathMetrics, error) {
	if srcCity < 0 || srcCity >= r.nc {
		return PathMetrics{}, fmt.Errorf("bgp: source city %d out of range", srcCity)
	}
	if dstCity < 0 || dstCity >= r.nc {
		return PathMetrics{}, fmt.Errorf("bgp: destination city %d out of range", dstCity)
	}
	si, di, tr, err := r.route(srcAS, dstAS)
	if err != nil {
		return PathMetrics{}, err
	}
	var m PathMetrics
	cur := srcCity
	for at := si; at != di; {
		h := tr.next[at]
		if h.as < 0 {
			return PathMetrics{}, fmt.Errorf("bgp: broken tree from AS %d to AS %d", srcAS, dstAS)
		}
		if m.ASHops++; m.ASHops >= len(r.asns) {
			return PathMetrics{}, fmt.Errorf("bgp: path loop from AS %d to AS %d", srcAS, dstAS)
		}
		if h.link < 0 {
			return PathMetrics{}, fmt.Errorf("bgp: missing link %d-%d on computed path", r.asns[at], r.asns[h.as])
		}
		if exit := r.exit(h.link, cur); exit != cur {
			m.DistanceKm += r.km[cur*r.nc+exit]
			m.CityHops++
			cur = exit
		}
		at = h.as
	}
	if cur != dstCity {
		m.DistanceKm += r.km[cur*r.nc+dstCity]
		m.CityHops++
	}
	return m, nil
}

// exit returns link li's hot-potato exit for traffic currently at
// from, memoised per (link, fromCity).
func (r *Router) exit(li int32, from int) int {
	slot := &r.exits[int(li)*r.nc+from]
	if v := slot.Load(); v != 0 {
		return int(v - 1)
	}
	c := r.nearestCity(r.topo.Links[li].Cities, from)
	slot.Store(int32(c + 1))
	return c
}

// nearestCity returns the candidate city nearest to from, the first on
// ties; candidates is never empty for validated topologies.
func (r *Router) nearestCity(candidates []int, from int) int {
	km := r.km[from*r.nc:][:r.nc]
	best := candidates[0]
	for _, c := range candidates[1:] {
		if km[c] < km[best] {
			best = c
		}
	}
	return best
}
