package topology

import (
	"fmt"
	"slices"
	"sort"

	"shortcuts/internal/geo"
	"shortcuts/internal/worlddata"
)

// Topology is the synthetic Internet: cities, ASes, inter-AS links and
// colocation facilities. It is immutable after generation; all lookup
// methods are safe for concurrent use.
type Topology struct {
	Cities     []worlddata.City
	ASes       []*AS
	Links      []*Link
	Facilities []*Facility

	byASN      map[ASN]*AS
	cityByName map[string]int
	providers  map[ASN][]ASN
	customers  map[ASN][]ASN
	peers      map[ASN][]ASN
	linkIndex  map[[2]ASN]*Link
	facsByCity map[int][]*Facility
	facsOf     map[ASN][]int // ascending IDs of the facilities each AS belongs to
}

// NewManual returns an empty topology over the given cities for callers
// that construct worlds by hand (tests, custom scenarios). Populate it
// with AddAS and AddLink, then call Validate.
func NewManual(cities []worlddata.City) *Topology {
	return newTopology(cities)
}

// AddAS registers a new AS. It panics on duplicate ASNs.
func (t *Topology) AddAS(a *AS) { t.addAS(a) }

// AddLink registers an adjacency between two ASes. For C2P, a is the
// customer and b the provider. Duplicate pairs are merged, keeping the
// first relationship and the union of interconnection cities.
func (t *Topology) AddLink(a, b ASN, rel Rel, cities []int) *Link {
	return t.addLink(a, b, rel, cities)
}

// newTopology initialises an empty topology over the given cities.
func newTopology(cities []worlddata.City) *Topology {
	t := &Topology{
		Cities:     cities,
		byASN:      make(map[ASN]*AS),
		cityByName: make(map[string]int, len(cities)),
		providers:  make(map[ASN][]ASN),
		customers:  make(map[ASN][]ASN),
		peers:      make(map[ASN][]ASN),
		linkIndex:  make(map[[2]ASN]*Link),
		facsByCity: make(map[int][]*Facility),
	}
	for i, c := range cities {
		t.cityByName[c.Name] = i
	}
	return t
}

// AS returns the AS with the given ASN, or nil.
func (t *Topology) AS(asn ASN) *AS { return t.byASN[asn] }

// CityIndex returns the index of the named city, or -1.
func (t *Topology) CityIndex(name string) int {
	if i, ok := t.cityByName[name]; ok {
		return i
	}
	return -1
}

// CityLoc returns the coordinates of city index i.
func (t *Topology) CityLoc(i int) geo.Coord { return t.Cities[i].Loc }

// Providers returns the providers of asn (asn is their customer).
func (t *Topology) Providers(asn ASN) []ASN { return t.providers[asn] }

// Customers returns the customers of asn.
func (t *Topology) Customers(asn ASN) []ASN { return t.customers[asn] }

// Peers returns the settlement-free peers of asn.
func (t *Topology) Peers(asn ASN) []ASN { return t.peers[asn] }

// LinkBetween returns the link between a and b, or nil if not adjacent.
func (t *Topology) LinkBetween(a, b ASN) *Link { return t.linkIndex[linkKey(a, b)] }

// FacilitiesIn returns the facilities located in city index i.
func (t *Topology) FacilitiesIn(city int) []*Facility { return t.facsByCity[city] }

// ASesOfType returns all ASes with the given type, in ASN order.
func (t *Topology) ASesOfType(types ...ASType) []*AS {
	want := make(map[ASType]bool, len(types))
	for _, ty := range types {
		want[ty] = true
	}
	var out []*AS
	for _, a := range t.ASes {
		if want[a.Type] {
			out = append(out, a)
		}
	}
	return out
}

// addAS registers a new AS. It panics on duplicate ASNs: that is a
// generator bug, not a runtime condition.
func (t *Topology) addAS(a *AS) {
	if _, dup := t.byASN[a.ASN]; dup {
		panic(fmt.Sprintf("topology: duplicate ASN %d", a.ASN))
	}
	t.ASes = append(t.ASes, a)
	t.byASN[a.ASN] = a
}

// addLink registers an adjacency. If the pair is already linked, the new
// interconnection cities are merged into the existing link and the
// original relationship is kept.
func (t *Topology) addLink(a, b ASN, rel Rel, cities []int) *Link {
	if a == b {
		panic(fmt.Sprintf("topology: self link on ASN %d", a))
	}
	key := linkKey(a, b)
	if l, ok := t.linkIndex[key]; ok {
		l.Cities = mergeCities(l.Cities, cities)
		return l
	}
	l := &Link{A: a, B: b, Rel: rel, Cities: append([]int(nil), cities...)}
	sort.Ints(l.Cities)
	t.Links = append(t.Links, l)
	t.linkIndex[key] = l
	switch rel {
	case C2P:
		t.providers[a] = append(t.providers[a], b)
		t.customers[b] = append(t.customers[b], a)
	case P2P:
		t.peers[a] = append(t.peers[a], b)
		t.peers[b] = append(t.peers[b], a)
	}
	return l
}

func mergeCities(dst, src []int) []int {
	seen := make(map[int]bool, len(dst)+len(src))
	for _, c := range dst {
		seen[c] = true
	}
	for _, c := range src {
		if !seen[c] {
			dst = append(dst, c)
			seen[c] = true
		}
	}
	sort.Ints(dst)
	return dst
}

// addFacility registers a facility and indexes it by city.
func (t *Topology) addFacility(f *Facility) {
	f.ID = len(t.Facilities)
	t.Facilities = append(t.Facilities, f)
	t.facsByCity[f.City] = append(t.facsByCity[f.City], f)
}

// SharedPoPCities returns the city indexes where both ASes have PoPs.
func (t *Topology) SharedPoPCities(a, b *AS) []int {
	inA := make(map[int]bool, len(a.PoPs))
	for _, c := range a.PoPs {
		inA[c] = true
	}
	var out []int
	for _, c := range b.PoPs {
		if inA[c] {
			out = append(out, c)
		}
	}
	sort.Ints(out)
	return out
}

// SharedFacilityCities returns the cities containing a facility where both
// ASes are members, ascending and without repeats, or nil. It merges the
// two ASes' facility lists.
func (t *Topology) SharedFacilityCities(a, b ASN) []int {
	fa, fb := t.facsOf[a], t.facsOf[b]
	var out []int
	for i, j := 0, 0; i < len(fa) && j < len(fb); {
		switch {
		case fa[i] < fb[j]:
			i++
		case fa[i] > fb[j]:
			j++
		default:
			if c := t.Facilities[fa[i]].City; !slices.Contains(out, c) {
				out = append(out, c)
			}
			i++
			j++
		}
	}
	slices.Sort(out)
	return out
}

// NearestPoP returns the AS's PoP city index nearest to the given city,
// or -1 if the AS has no PoPs.
func (t *Topology) NearestPoP(a *AS, city int) int {
	best, bestD := -1, 0.0
	loc := t.CityLoc(city)
	for _, c := range a.PoPs {
		d := geo.Distance(loc, t.CityLoc(c))
		if best == -1 || d < bestD {
			best, bestD = c, d
		}
	}
	return best
}

// Validate checks structural invariants the rest of the system depends on.
func (t *Topology) Validate() error {
	if len(t.Cities) == 0 {
		return fmt.Errorf("topology: no cities")
	}
	for _, a := range t.ASes {
		if len(a.PoPs) == 0 {
			return fmt.Errorf("topology: AS %d (%s) has no PoPs", a.ASN, a.Name)
		}
		for _, c := range a.PoPs {
			if c < 0 || c >= len(t.Cities) {
				return fmt.Errorf("topology: AS %d PoP city %d out of range", a.ASN, c)
			}
		}
		if a.Coverage < 0 || a.Coverage > 100 {
			return fmt.Errorf("topology: AS %d coverage %v out of range", a.ASN, a.Coverage)
		}
	}
	for _, l := range t.Links {
		if t.byASN[l.A] == nil || t.byASN[l.B] == nil {
			return fmt.Errorf("topology: link %d-%d references unknown AS", l.A, l.B)
		}
		if len(l.Cities) == 0 {
			return fmt.Errorf("topology: link %d-%d has no interconnection city", l.A, l.B)
		}
		for _, c := range l.Cities {
			if c < 0 || c >= len(t.Cities) {
				return fmt.Errorf("topology: link %d-%d city %d out of range", l.A, l.B, c)
			}
		}
	}
	for _, f := range t.Facilities {
		if f.City < 0 || f.City >= len(t.Cities) {
			return fmt.Errorf("topology: facility %q city out of range", f.Name)
		}
		for _, m := range f.Members {
			if t.byASN[m] == nil {
				return fmt.Errorf("topology: facility %q member %d unknown", f.Name, m)
			}
		}
	}
	if err := t.checkProviderDAG(); err != nil {
		return err
	}
	return t.checkTier1Reachability()
}

// checkProviderDAG verifies the customer->provider graph is acyclic, which
// the valley-free route computation requires for termination and realism.
func (t *Topology) checkProviderDAG() error {
	const (
		white = 0
		grey  = 1
		black = 2
	)
	color := make(map[ASN]int, len(t.ASes))
	var visit func(ASN) error
	visit = func(n ASN) error {
		color[n] = grey
		for _, p := range t.providers[n] {
			switch color[p] {
			case grey:
				return fmt.Errorf("topology: provider cycle through AS %d and %d", n, p)
			case white:
				if err := visit(p); err != nil {
					return err
				}
			}
		}
		color[n] = black
		return nil
	}
	for _, a := range t.ASes {
		if color[a.ASN] == white {
			if err := visit(a.ASN); err != nil {
				return err
			}
		}
	}
	return nil
}

// checkTier1Reachability verifies every AS can reach a tier-1 by walking
// provider edges, so that every AS pair has at least one valley-free path
// through the clique.
func (t *Topology) checkTier1Reachability() error {
	reach := make(map[ASN]bool, len(t.ASes))
	var walk func(ASN) bool
	walk = func(n ASN) bool {
		if reach[n] {
			return true
		}
		if t.byASN[n].Type == Tier1 {
			reach[n] = true
			return true
		}
		for _, p := range t.providers[n] {
			if walk(p) {
				reach[n] = true
				return true
			}
		}
		return false
	}
	for _, a := range t.ASes {
		if !walk(a.ASN) {
			return fmt.Errorf("topology: AS %d (%s, %s) cannot reach any tier-1 via providers",
				a.ASN, a.Name, a.Type)
		}
	}
	return nil
}
