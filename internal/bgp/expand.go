package bgp

import (
	"fmt"
	"sync/atomic"

	"shortcuts/internal/geo"
	"shortcuts/internal/topology"
)

// PopPath is an AS-level path expanded to the city level: the sequence of
// cities traffic traverses, the geodesic length of that polyline, and the
// AS hops it crosses. It is the geometric object the latency model prices.
type PopPath struct {
	ASPath []topology.ASN
	// Cities is the polyline of city indexes, starting at the source city
	// and ending at the destination city. Consecutive duplicates are
	// collapsed.
	Cities []int
	// DistanceKm is the great-circle length of the Cities polyline.
	DistanceKm float64
}

// ASHops returns the number of inter-AS boundaries crossed.
func (p *PopPath) ASHops() int { return len(p.ASPath) - 1 }

// CityHops returns the number of city-to-city segments.
func (p *PopPath) CityHops() int { return len(p.Cities) - 1 }

// Expand converts the BGP path between two attachment points into a
// PoP-level city polyline.
//
// Starting at the source city, each AS boundary is crossed at the
// interconnection city on the link that is nearest to the traffic's
// current location (hot-potato / early-exit routing). The final segment
// runs from the last crossing to the destination city. The paper's direct
// paths inflate exactly here: when adjacent providers interconnect only at
// remote hubs, traffic between nearby countries detours through them.
func (r *Router) Expand(srcAS topology.ASN, srcCity int, dstAS topology.ASN, dstCity int) (*PopPath, error) {
	p := &PopPath{}
	if err := r.ExpandInto(p, srcAS, srcCity, dstAS, dstCity); err != nil {
		return nil, err
	}
	return p, nil
}

// ExpandInto is Expand writing into a caller-owned PopPath, reusing its
// ASPath and Cities capacity, so a caller expanding many paths can
// recycle one buffer. On error the PopPath contents are undefined.
func (r *Router) ExpandInto(p *PopPath, srcAS topology.ASN, srcCity int, dstAS topology.ASN, dstCity int) error {
	if srcCity < 0 || srcCity >= len(r.topo.Cities) {
		return fmt.Errorf("bgp: source city %d out of range", srcCity)
	}
	if dstCity < 0 || dstCity >= len(r.topo.Cities) {
		return fmt.Errorf("bgp: destination city %d out of range", dstCity)
	}
	asPath, err := r.asPathInto(p.ASPath, srcAS, dstAS)
	if err != nil {
		return err
	}
	p.ASPath = asPath
	p.Cities = append(p.Cities[:0], srcCity)
	cur := srcCity
	for i := 0; i+1 < len(asPath); i++ {
		link := r.topo.LinkBetween(asPath[i], asPath[i+1])
		if link == nil {
			return fmt.Errorf("bgp: missing link %d-%d on computed path", asPath[i], asPath[i+1])
		}
		exit := r.exitCity(link, cur)
		if exit != cur {
			p.Cities = append(p.Cities, exit)
			cur = exit
		}
	}
	if cur != dstCity {
		p.Cities = append(p.Cities, dstCity)
	}
	p.DistanceKm = 0
	for i := 1; i < len(p.Cities); i++ {
		p.DistanceKm += geo.Distance(r.topo.CityLoc(p.Cities[i-1]), r.topo.CityLoc(p.Cities[i]))
	}
	return nil
}

// exitCity returns the link's hot-potato exit for traffic currently at
// from, memoised per (link, fromCity): the scan is a pure function of
// the immutable topology, so racing fills store identical values.
func (r *Router) exitCity(link *topology.Link, from int) int {
	li, ok := r.linkIdx[link]
	if !ok || len(link.Cities) == 1 {
		return r.nearestCity(link.Cities, from)
	}
	slot := &r.exits[int(li)*len(r.topo.Cities)+from]
	if v := atomic.LoadInt32(slot); v != 0 {
		return int(v - 1)
	}
	c := r.nearestCity(link.Cities, from)
	atomic.StoreInt32(slot, int32(c+1))
	return c
}

// nearestCity returns the candidate city nearest to from; candidates is
// never empty for validated topologies.
func (r *Router) nearestCity(candidates []int, from int) int {
	best := candidates[0]
	if len(candidates) == 1 {
		return best
	}
	fromLoc := r.topo.CityLoc(from)
	bestD := geo.Distance(fromLoc, r.topo.CityLoc(best))
	for _, c := range candidates[1:] {
		if d := geo.Distance(fromLoc, r.topo.CityLoc(c)); d < bestD {
			best, bestD = c, d
		}
	}
	return best
}
