// Package planetlab simulates the PlanetLab research testbed: server
// nodes hosted at university sites, attached to the topology's campus
// networks. The paper allocates 500 nodes from 62 sites as candidate
// relays (Section 2.3.1) and samples 1-2 consistently accessible nodes
// per site per round. PlanetLab's notorious flakiness is part of the
// model: a sizeable share of nodes is unusable at any given time.
package planetlab

import (
	"fmt"
	"sort"
	"strconv"
	"time"

	"shortcuts/internal/latency"
	"shortcuts/internal/rng"
	"shortcuts/internal/topology"
)

// Site is a hosting institution.
type Site struct {
	Name string
	AS   topology.ASN // the campus network
	CC   string
	City int
}

// Node is one PlanetLab machine.
type Node struct {
	ID       int
	Hostname string
	Site     *Site
	Access   time.Duration // server attachment, not last-mile
}

// Endpoint returns the node's measurement attachment point.
func (n *Node) Endpoint() latency.Endpoint {
	return latency.Endpoint{AS: n.Site.AS, City: n.Site.City, Access: n.Access}
}

// Registry is the testbed inventory plus the availability process.
type Registry struct {
	sites []*Site
	nodes []*Node
	avail *rng.Rand

	// FlakyProb is the per-round probability a node is unusable.
	FlakyProb float64
}

// Params controls testbed generation.
type Params struct {
	// AccessibleSiteProb is the chance a campus actually has allocatable
	// nodes (the paper could allocate at 62 of the hundreds of sites).
	AccessibleSiteProb float64
	// NodesPerSiteMin/Max bound machines per site.
	NodesPerSiteMin, NodesPerSiteMax int
	// FlakyProb is per-round node unusability.
	FlakyProb float64
}

// DefaultParams approximates the paper's allocatable slice of PlanetLab.
func DefaultParams() Params {
	return Params{
		AccessibleSiteProb: 0.52,
		NodesPerSiteMin:    3,
		NodesPerSiteMax:    11,
		FlakyProb:          0.30,
	}
}

// Generate builds the registry over the topology's campus networks.
func Generate(g *rng.Rand, topo *topology.Topology, p Params) *Registry {
	g = g.Split("planetlab")
	r := &Registry{avail: g.Split("availability"), FlakyProb: p.FlakyProb}
	id := 1
	for _, campus := range topo.ASesOfType(topology.Campus) {
		if !g.Bool(p.AccessibleSiteProb) {
			continue
		}
		site := &Site{
			Name: fmt.Sprintf("site-%s", campus.Name),
			AS:   campus.ASN,
			CC:   campus.CC,
			City: campus.HomeCity(),
		}
		r.sites = append(r.sites, site)
		n := g.IntBetween(p.NodesPerSiteMin, p.NodesPerSiteMax)
		for i := 0; i < n; i++ {
			// PlanetLab machines are heavily time-shared; scheduling and
			// virtualisation add milliseconds of effective delay on top
			// of the campus attachment, which is why PLR relays perform
			// like eyeball hosts in the paper despite being servers.
			load := time.Duration(g.IntBetween(400, 4500)) * time.Microsecond
			r.nodes = append(r.nodes, &Node{
				ID:       id,
				Hostname: fmt.Sprintf("node%d.%s.planet-lab.org", i+1, campus.Name),
				Site:     site,
				Access:   time.Duration(g.IntBetween(100, 600))*time.Microsecond + load,
			})
			id++
		}
	}
	return r
}

// Sites returns all accessible sites.
func (r *Registry) Sites() []*Site { return r.sites }

// Nodes returns all allocated nodes.
func (r *Registry) Nodes() []*Node { return r.nodes }

// Usable reports whether the node is accessible and pingable for the
// given round; a pure function of (registry seed, node, round). The
// coin's stream label, "node-" and the ID in decimal, is formatted into
// a stack buffer, so a coin allocates nothing.
func (r *Registry) Usable(id int, round int) bool {
	var buf [32]byte
	label := strconv.AppendInt(append(buf[:0], "node-"...), int64(id), 10)
	return !r.avail.BoolSplitN(string(label), round, r.FlakyProb)
}

// Countries returns the sorted country codes hosting accessible sites.
func (r *Registry) Countries() []string {
	seen := make(map[string]bool)
	for _, s := range r.sites {
		seen[s.CC] = true
	}
	out := make([]string, 0, len(seen))
	for cc := range seen {
		out = append(out, cc)
	}
	sort.Strings(out)
	return out
}
