package topology

// Facility is a colocation facility: a building in a city where member
// networks house equipment and interconnect. ListedNets is the
// PeeringDB-style listed network count used for Table-1 reporting; Members
// is the set of topology ASes actually colocated (the synthetic world has
// far fewer ASes than the real registry lists).
type Facility struct {
	ID         int // index into Topology.Facilities
	PDBID      int // synthetic PeeringDB identifier
	Name       string
	City       int // index into Topology.Cities
	Members    []ASN
	IXPs       []string // IXP names present at the facility
	Cloud      bool     // cloud services available on site
	PDBTop10   bool     // in PeeringDB's top 10 by listed networks
	ListedNets int      // PeeringDB-listed colocated network count
}

// HasMember reports whether asn is colocated at the facility.
func (f *Facility) HasMember(asn ASN) bool {
	for _, m := range f.Members {
		if m == asn {
			return true
		}
	}
	return false
}
