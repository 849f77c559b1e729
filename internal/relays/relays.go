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
// ranks relays by index). The index layout is fixed: COR relays take
// indices [0, nCOR), PLR relays [nCOR, base), and RAR relay base+k is
// the k-th eligible atlas row in ascending row order, where base is the
// COR-plus-PLR count. COR and PLR relays are stored as Relay values; a
// RAR relay is stored as its atlas row plus one eyeball bit, and
// Catalog.Relay assembles it from the fleet's columns on demand. A
// Sampler draws the per-round subsets with the paper's per-facility /
// per-site / per-country quotas.
package relays

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
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

// Relay is one candidate relay. The catalog stores COR and PLR relays
// as Relay values and assembles a RAR relay on demand (Catalog.Relay).
type Relay struct {
	Type     Type
	Endpoint latency.Endpoint
	CC       string
	City     int
	// Facility attribution, COR only.
	FacilityPDB  int
	FacilityName string
	// Liveness handles: ProbeID for RAR types, NodeID for PLR.
	ProbeID atlas.ProbeID
	NodeID  int
	// id is a COR or PLR relay's ID; ID renders a RAR relay's.
	id string
}

// ID returns the relay's identifier: "cor-<IP>", "plr-<hostname>",
// "rar-eye-<probe ID>" or "rar-other-<probe ID>".
func (r Relay) ID() string {
	if r.Type < RAREye {
		return r.id
	}
	var buf [32]byte
	return string(r.appendRARID(buf[:0]))
}

// appendRARID appends a RAR relay's ID to b.
func (r Relay) appendRARID(b []byte) []byte {
	prefix := "rar-other-"
	if r.Type == RAREye {
		prefix = "rar-eye-"
	}
	return strconv.AppendInt(append(b, prefix...), int64(r.ProbeID), 10)
}

// Catalog is the full candidate relay inventory, in the index layout
// the package comment states.
type Catalog struct {
	Funnel FunnelStats

	relays []Relay // COR relays, then PLR relays
	count  [NumTypes]int
	fleet  *atlas.Platform
	// rows holds RAR relay base+k's atlas row at k, ascending; bit k of
	// eye is set when that relay is RAR_eye.
	rows []int32
	eye  []uint64

	corByFacility map[int][]int      // facility PDB -> catalog indices
	plrBySite     map[string][]int   // site name -> catalog indices
	otherByCC     map[string][]int32 // country -> RAR_other atlas rows, ascending
}

// Len returns the catalog size: indices run from 0 to Len()-1.
func (c *Catalog) Len() int { return len(c.relays) + len(c.rows) }

// Count returns how many relays of type t the catalog holds.
func (c *Catalog) Count(t Type) int {
	if t < 0 || t >= NumTypes {
		return 0
	}
	return c.count[t]
}

// Type returns relay i's population.
func (c *Catalog) Type(i int) Type {
	switch k := i - len(c.relays); {
	case i < c.count[COR]:
		return COR
	case k < 0:
		return PLR
	case c.eye[k>>6]&(1<<(uint(k)&63)) != 0:
		return RAREye
	}
	return RAROther
}

// City returns relay i's home-city index into the topology.
func (c *Catalog) City(i int) int {
	if i < len(c.relays) {
		return c.relays[i].City
	}
	return c.fleet.City(c.rows[i-len(c.relays)])
}

// Relay returns relay i: a copy of a stored COR or PLR relay, or a RAR
// relay assembled from its atlas row.
func (c *Catalog) Relay(i int) Relay {
	if i < len(c.relays) {
		return c.relays[i]
	}
	row := c.rows[i-len(c.relays)]
	return Relay{
		Type:     c.Type(i),
		Endpoint: c.fleet.Endpoint(row),
		CC:       c.fleet.CC(row),
		City:     c.fleet.City(row),
		ProbeID:  c.fleet.ID(row),
	}
}

// Span returns the index range [lo, hi) that holds type t's relays:
// COR and PLR relays fill theirs, and the two RAR types share
// [base, Len()). An unknown type's span is empty.
func (c *Catalog) Span(t Type) (lo, hi int) {
	switch t {
	case COR:
		return 0, c.count[COR]
	case PLR:
		return c.count[COR], len(c.relays)
	case RAREye, RAROther:
		return len(c.relays), c.Len()
	}
	return 0, 0
}

// Lookup returns the index of the relay whose ID is id. A RAR ID names
// a relay only as ID renders it: under its own type, with no sign and no
// leading zero. COR IPs may repeat: the first relay with the ID wins, as
// a catalog scan would find it.
func (c *Catalog) Lookup(id string) (int, bool) {
	for i := range c.relays {
		if c.relays[i].id == id {
			return i, true
		}
	}
	// Parse the probe ID by hand: a strconv error would allocate.
	_, num, _ := strings.Cut(strings.TrimPrefix(id, "rar-"), "-")
	n := 0
	for _, d := range []byte(num) {
		if d < '0' || d > '9' || n > 1<<31 {
			return 0, false
		}
		n = 10*n + int(d-'0')
	}
	k, found := slices.BinarySearch(c.rows, c.fleet.Row(atlas.ProbeID(n)))
	var buf [32]byte
	if !found || string(c.Relay(len(c.relays)+k).appendRARID(buf[:0])) != id {
		return 0, false
	}
	return len(c.relays) + k, true
}

// AtFacility returns the indices of the COR relays at facility pdb, in
// ascending order. Callers must not mutate the slice.
func (c *Catalog) AtFacility(pdb int) []int { return c.corByFacility[pdb] }

// rarIndex returns the catalog index of the RAR relay on an eligible
// atlas row.
func (c *Catalog) rarIndex(row int32) int {
	k, _ := slices.BinarySearch(c.rows, row)
	return len(c.relays) + k
}

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
		fleet:         d.Atlas,
		corByFacility: make(map[int][]int),
		plrBySite:     make(map[string][]int),
		otherByCC:     make(map[string][]int32),
	}
	if err := c.buildCOR(g.Split("cor"), d); err != nil {
		return nil, err
	}
	c.buildPLR(d)
	c.buildRAR(d)
	return c, nil
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
		c.corByFacility[fac.PDBID] = append(c.corByFacility[fac.PDBID], len(c.relays))
		c.relays = append(c.relays, Relay{
			Type:         COR,
			id:           fmt.Sprintf("cor-%s", rec.IP),
			Endpoint:     target,
			CC:           d.Topo.Cities[fac.City].CC,
			City:         fac.City,
			FacilityPDB:  fac.PDBID,
			FacilityName: fac.Name,
		})
		facilities[fac.PDBID] = true
		cities[fac.City] = true
	}
	c.count[COR] = len(c.relays)
	c.Funnel.Geolocated = c.count[COR]
	c.Funnel.Facilities = len(facilities)
	c.Funnel.Cities = len(cities)
	return nil
}

func (c *Catalog) buildPLR(d Deps) {
	for _, n := range d.PlanetLab.Nodes() {
		c.plrBySite[n.Site.Name] = append(c.plrBySite[n.Site.Name], len(c.relays))
		c.relays = append(c.relays, Relay{
			Type:     PLR,
			id:       fmt.Sprintf("plr-%s", n.Hostname),
			Endpoint: n.Endpoint(),
			CC:       n.Site.CC,
			City:     n.Site.City,
			NodeID:   n.ID,
		})
	}
	c.count[PLR] = len(c.relays) - c.count[COR]
}

// buildRAR lists every eligible atlas row, ascending, as a RAR relay,
// setting its eyeball bit when its (AS, country) is a verified eyeball
// tuple; RAR_other rows are also grouped by country for the sampler.
func (c *Catalog) buildRAR(d Deps) {
	fleet := d.Atlas
	n := 0
	for row := range int32(fleet.Len()) {
		if fleet.Eligible(row) {
			n++
		}
	}
	c.rows = make([]int32, 0, n)
	c.eye = make([]uint64, (n+63)/64)
	for row := range int32(fleet.Len()) {
		if !fleet.Eligible(row) {
			continue
		}
		k := len(c.rows)
		c.rows = append(c.rows, row)
		if cc := fleet.CC(row); d.IsEyeball(fleet.AS(row), cc) {
			c.eye[k>>6] |= 1 << (uint(k) & 63)
			c.count[RAREye]++
		} else {
			c.count[RAROther]++
			c.otherByCC[cc] = append(c.otherByCC[cc], row)
		}
	}
}
