// Command topogen generates the synthetic Internet and prints an
// inventory: AS population by type, facility pool, relay catalog sizes and
// the COR pipeline funnel, so the world can be inspected without running
// a campaign.
package main

import (
	"flag"
	"fmt"
	"os"

	"shortcuts/internal/relays"
	"shortcuts/internal/rng"
	"shortcuts/internal/sim"
	"shortcuts/internal/topology"
)

func main() {
	seed := flag.Int64("seed", 1, "world seed")
	small := flag.Bool("small", false, "generate the reduced test world")
	flag.Parse()

	params := sim.DefaultWorldParams(*seed)
	if *small {
		params = sim.SmallWorldParams(*seed)
	}
	w, err := sim.Build(params)
	if err != nil {
		fmt.Fprintln(os.Stderr, "topogen:", err)
		os.Exit(1)
	}

	counts := make(map[topology.ASType]int)
	for _, a := range w.Topo.ASes {
		counts[a.Type]++
	}
	fmt.Printf("world seed %d\n", *seed)
	fmt.Printf("cities: %d   facilities: %d   links: %d\n",
		len(w.Topo.Cities), len(w.Topo.Facilities), len(w.Topo.Links))
	fmt.Println("AS population:")
	for _, ty := range []topology.ASType{
		topology.Tier1, topology.Transit, topology.Content, topology.Eyeball,
		topology.Backbone, topology.NREN, topology.Campus, topology.Enterprise,
	} {
		fmt.Printf("  %-11s %4d\n", ty, counts[ty])
	}
	fmt.Printf("atlas probes: %d   planetlab nodes: %d at %d sites\n",
		w.Atlas.Len(), len(w.PlanetLab.Nodes()), len(w.PlanetLab.Sites()))
	fmt.Printf("endpoint countries: %d   verified eyeball tuples with probes: %d\n",
		len(w.Selector.Countries()), w.Selector.VerifiedASCount())

	f := w.Catalog.Funnel
	fmt.Println("COR pipeline funnel (paper: 2675 -> 1008 -> 764 -> 725 -> 725 -> 356):")
	fmt.Printf("  %d -> %d -> %d -> %d -> %d -> %d\n",
		f.Initial, f.SingleFacilityActive, f.Pingable, f.SameOwnership,
		f.ActiveFacilityPresence, f.Geolocated)
	fmt.Printf("  COR facilities: %d (paper 58)   cities: %d (paper 36)\n", f.Facilities, f.Cities)
	fmt.Printf("relay catalog: COR=%d PLR=%d RAR_eye=%d RAR_other=%d\n",
		w.Catalog.Count(relays.COR), w.Catalog.Count(relays.PLR),
		w.Catalog.Count(relays.RAREye), w.Catalog.Count(relays.RAROther))

	g := rng.New(*seed)
	set := w.Sampler.SampleRound(g, 0, nil)
	fmt.Printf("round-0 sample: COR=%d PLR=%d RAR_eye=%d RAR_other=%d (paper avg: 129/59/82/102)\n",
		len(set.ByType[relays.COR]), len(set.ByType[relays.PLR]),
		len(set.ByType[relays.RAREye]), len(set.ByType[relays.RAROther]))
	eps := w.Selector.SampleEndpoints(g, 0)
	fmt.Printf("round-0 endpoints: %d RAEs (paper avg: 82)\n", len(eps))
}
