// Package relays builds and samples the four relay populations the paper
// compares (Section 2.2-2.4):
//
//   - COR: pingable IPs verified to sit inside colocation facilities,
//     produced by the five-filter pipeline over the stale facility-mapping
//     dataset (single facility & active PeeringDB presence, pingability,
//     same IP-ownership, active facility presence of the ASN, RTT-based
//     geolocation via looking glasses);
//   - PLR: PlanetLab nodes at research sites;
//   - RAR_eye: RIPE Atlas probes inside verified eyeball networks;
//   - RAR_other: RIPE Atlas probes in all remaining networks.
//
// A Catalog holds every candidate relay with a stable index (analysis
// ranks relays by index); a Sampler draws the per-round subsets with the
// paper's per-facility / per-site / per-country quotas.
package relays

import (
	"fmt"
	"strconv"
	"time"

	"shortcuts/internal/atlas"
	"shortcuts/internal/datasets/facmap"
	"shortcuts/internal/datasets/peeringdb"
	"shortcuts/internal/datasets/prefix2as"
	"shortcuts/internal/latency"
	"shortcuts/internal/periscope"
	"shortcuts/internal/planetlab"
	"shortcuts/internal/rng"
	"shortcuts/internal/topology"
)

// Type enumerates the relay populations.
type Type int

// Relay populations in the paper's comparison.
const (
	COR Type = iota
	PLR
	RAREye
	RAROther
	NumTypes = 4
)

// String implements fmt.Stringer using the paper's labels.
func (t Type) String() string {
	switch t {
	case COR:
		return "COR"
	case PLR:
		return "PLR"
	case RAREye:
		return "RAR_eye"
	case RAROther:
		return "RAR_other"
	default:
		return fmt.Sprintf("Type(%d)", int(t))
	}
}

// Relay is one candidate relay.
type Relay struct {
	Index    int // stable position in the catalog
	Type     Type
	ID       string
	Endpoint latency.Endpoint
	CC       string
	City     int
	// Facility attribution, COR only.
	FacilityPDB  int
	FacilityName string
	// Liveness handles: ProbeID for RAR types, NodeID for PLR.
	ProbeID atlas.ProbeID
	NodeID  int
}

// Catalog is the full candidate relay inventory.
type Catalog struct {
	Relays []Relay
	byType [NumTypes][]int
	Funnel FunnelStats

	corByFacility map[int][]int // facility PDB -> catalog indices
	plrBySite     map[string][]int
	eyeByCountry  map[string]map[topology.ASN][]int
	otherByCC     map[string][]int
}

// OfType returns the catalog indices of all relays of a type.
func (c *Catalog) OfType(t Type) []int { return c.byType[t] }

// FunnelStats records the COR pipeline counts, the paper's
// 2675 -> 1008 -> 764 -> 725 -> 725 -> 356 funnel plus the facility and
// city spread of the survivors (58 facilities, 36 cities).
type FunnelStats struct {
	Initial                int
	SingleFacilityActive   int
	Pingable               int
	SameOwnership          int
	ActiveFacilityPresence int
	Geolocated             int
	Facilities             int
	Cities                 int
}

// Deps wires the data sources the catalog is built from.
type Deps struct {
	Topo      *topology.Topology
	Registry  *peeringdb.Registry
	FacMap    *facmap.Dataset
	Prefixes  *prefix2as.Table
	Periscope *periscope.Service
	Atlas     *atlas.Platform
	PlanetLab *planetlab.Registry
	// IsEyeball reports whether (asn, cc) is a verified eyeball tuple;
	// it splits RAR_eye from RAR_other.
	IsEyeball func(asn topology.ASN, cc string) bool
}

// BuildCatalog constructs the full relay inventory.
func BuildCatalog(g *rng.Rand, d Deps) (*Catalog, error) {
	g = g.Split("relays")
	c := &Catalog{
		corByFacility: make(map[int][]int),
		plrBySite:     make(map[string][]int),
		eyeByCountry:  make(map[string]map[topology.ASN][]int),
		otherByCC:     make(map[string][]int),
	}
	if err := c.buildCOR(g.Split("cor"), d); err != nil {
		return nil, err
	}
	c.buildPLR(d)
	c.buildRAR(d)
	return c, nil
}

func (c *Catalog) add(r Relay) int {
	r.Index = len(c.Relays)
	c.Relays = append(c.Relays, r)
	c.byType[r.Type] = append(c.byType[r.Type], r.Index)
	return r.Index
}

// buildCOR applies the paper's Section-2.2 filters, in order, to the
// facility-mapping snapshot.
func (c *Catalog) buildCOR(g *rng.Rand, d Deps) error {
	c.Funnel.Initial = len(d.FacMap.Records)

	// Filter 1: single-facility candidate set whose facility is still in
	// PeeringDB today.
	var stage []facmap.Record
	for _, rec := range d.FacMap.Records {
		if rec.SingleCandidate() && d.Registry.Exists(rec.CandidatePDBs[0]) {
			stage = append(stage, rec)
		}
	}
	c.Funnel.SingleFacilityActive = len(stage)

	// Filter 2: the interface still answers pings.
	var pingable []facmap.Record
	for _, rec := range stage {
		if rec.Truth.Online {
			pingable = append(pingable, rec)
		}
	}
	c.Funnel.Pingable = len(pingable)

	// Filter 3: the prefix-to-AS snapshot maps the IP to the same ASN,
	// uniquely (MOAS conflicts are discarded).
	var owned []facmap.Record
	for _, rec := range pingable {
		if origin, ok := d.Prefixes.OriginOf(rec.IP); ok && origin == rec.ASN {
			owned = append(owned, rec)
		}
	}
	c.Funnel.SameOwnership = len(owned)

	// Filter 4: the ASN is still listed at the candidate facility.
	var present []facmap.Record
	for _, rec := range owned {
		if d.Registry.MemberPresent(rec.CandidatePDBs[0], rec.ASN) {
			present = append(present, rec)
		}
	}
	c.Funnel.ActiveFacilityPresence = len(present)

	// Filter 5: RTT-based geolocation through looking glasses in the
	// facility's city.
	facilities := make(map[int]bool)
	cities := make(map[int]bool)
	for _, rec := range present {
		fac, ok := d.Registry.Facility(rec.CandidatePDBs[0])
		if !ok {
			continue
		}
		target := latency.Endpoint{
			AS:     rec.ASN,
			City:   rec.Truth.City,
			Access: time.Duration(g.IntBetween(50, 300)) * time.Microsecond,
		}
		pass, err := d.Periscope.GeolocateAtCity(fac.City, target)
		if err != nil {
			return fmt.Errorf("relays: geolocating %v: %w", rec.IP, err)
		}
		if !pass {
			continue
		}
		idx := c.add(Relay{
			Type:         COR,
			ID:           fmt.Sprintf("cor-%s", rec.IP),
			Endpoint:     target,
			CC:           d.Topo.Cities[fac.City].CC,
			City:         fac.City,
			FacilityPDB:  fac.PDBID,
			FacilityName: fac.Name,
		})
		c.corByFacility[fac.PDBID] = append(c.corByFacility[fac.PDBID], idx)
		facilities[fac.PDBID] = true
		cities[fac.City] = true
	}
	c.Funnel.Geolocated = len(c.byType[COR])
	c.Funnel.Facilities = len(facilities)
	c.Funnel.Cities = len(cities)
	return nil
}

func (c *Catalog) buildPLR(d Deps) {
	for _, n := range d.PlanetLab.Nodes() {
		idx := c.add(Relay{
			Type:     PLR,
			ID:       fmt.Sprintf("plr-%s", n.Hostname),
			Endpoint: n.Endpoint(),
			CC:       n.Site.CC,
			City:     n.Site.City,
			NodeID:   n.ID,
		})
		c.plrBySite[n.Site.Name] = append(c.plrBySite[n.Site.Name], idx)
	}
}

func (c *Catalog) buildRAR(d Deps) {
	// Size the catalog up front: at the scale tiers this loop appends
	// ~a million ~136-byte Relay values, and letting append regrow the
	// slice dominates the whole world build in memclr/memmove. One
	// counting pass costs microseconds and makes every append O(1).
	fleet := d.Atlas
	eye, other := 0, 0
	for row := range int32(fleet.Len()) {
		if !fleet.Eligible(row) {
			continue
		}
		if d.IsEyeball(fleet.AS(row), fleet.CC(row)) {
			eye++
		} else {
			other++
		}
	}
	c.Relays = grow(c.Relays, eye+other)
	c.byType[RAREye] = grow(c.byType[RAREye], eye)
	c.byType[RAROther] = grow(c.byType[RAROther], other)
	for row := range int32(fleet.Len()) {
		if !fleet.Eligible(row) {
			continue
		}
		p := fleet.Probe(row)
		if d.IsEyeball(p.AS, p.CC) {
			idx := c.add(Relay{
				Type:     RAREye,
				ID:       "rar-eye-" + strconv.Itoa(int(p.ID)),
				Endpoint: p.Endpoint(),
				CC:       p.CC,
				City:     p.City,
				ProbeID:  p.ID,
			})
			perAS := c.eyeByCountry[p.CC]
			if perAS == nil {
				perAS = make(map[topology.ASN][]int)
				c.eyeByCountry[p.CC] = perAS
			}
			perAS[p.AS] = append(perAS[p.AS], idx)
		} else {
			idx := c.add(Relay{
				Type:     RAROther,
				ID:       "rar-other-" + strconv.Itoa(int(p.ID)),
				Endpoint: p.Endpoint(),
				CC:       p.CC,
				City:     p.City,
				ProbeID:  p.ID,
			})
			c.otherByCC[p.CC] = append(c.otherByCC[p.CC], idx)
		}
	}
}

// grow returns s with capacity for at least n more elements beyond its
// current length, preserving contents.
func grow[T any](s []T, n int) []T {
	if cap(s)-len(s) >= n {
		return s
	}
	out := make([]T, len(s), len(s)+n)
	copy(out, s)
	return out
}
