// Package topology models the synthetic Internet the campaign measures: an
// AS-level graph annotated with geography. Each AS has points of presence
// (PoPs) in real cities; AS adjacencies carry business relationships
// (customer-to-provider or settlement-free peering) and the cities where
// the two networks physically interconnect. Colocation facilities and the
// IXPs inside them are first-class objects, because the paper's entire
// premise is that facility members meet a disproportionate share of the
// Internet at a single room.
//
// The generator (Generate) builds a world with the structural properties
// the paper relies on: a tier-1 clique, regional transit with
// intercontinental gateway PoPs, eyeball access networks instantiated from
// the APNIC coverage dataset, content/cloud networks that peer openly at
// hubs, a research substrate (campus -> NREN -> continental backbone) for
// PlanetLab, and enterprise stubs.
package topology

import "fmt"

// ASN is an autonomous system number.
type ASN int

// ASType classifies the role of a network in the synthetic Internet.
type ASType int

// AS roles, ordered roughly from core to edge.
const (
	Tier1      ASType = iota // global transit-free backbone
	Transit                  // regional/national transit provider
	Content                  // content/cloud network peering at hubs
	Eyeball                  // last-mile access ISP (from APNIC dataset)
	Backbone                 // continental research backbone (GEANT-like)
	NREN                     // national research & education network
	Campus                   // university campus (PlanetLab host)
	Enterprise               // stub business network
)

// String implements fmt.Stringer.
func (t ASType) String() string {
	switch t {
	case Tier1:
		return "tier1"
	case Transit:
		return "transit"
	case Content:
		return "content"
	case Eyeball:
		return "eyeball"
	case Backbone:
		return "backbone"
	case NREN:
		return "nren"
	case Campus:
		return "campus"
	case Enterprise:
		return "enterprise"
	default:
		return fmt.Sprintf("ASType(%d)", int(t))
	}
}

// AS is one autonomous system.
type AS struct {
	ASN       ASN
	Name      string
	Type      ASType
	CC        string // primary country of operation
	Continent string
	// PoPs are indexes into Topology.Cities. PoPs[0] is the home city.
	PoPs []int
	// Coverage is the share (percent) of CC's Internet users this AS
	// serves; non-zero only for eyeballs (from the APNIC dataset).
	Coverage float64
}

// HomeCity returns the index of the AS's home city.
func (a *AS) HomeCity() int {
	if len(a.PoPs) == 0 {
		return -1
	}
	return a.PoPs[0]
}

// HasPoP reports whether the AS has a PoP in the given city.
func (a *AS) HasPoP(city int) bool {
	for _, c := range a.PoPs {
		if c == city {
			return true
		}
	}
	return false
}
