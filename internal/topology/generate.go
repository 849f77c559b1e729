package topology

import (
	"fmt"
	"maps"
	"slices"
	"sort"

	"shortcuts/internal/datasets/apnic"
	"shortcuts/internal/rng"
	"shortcuts/internal/worlddata"
)

// ASN allocation bases per role. Eyeballs keep the ASN the APNIC dataset
// assigned them so that (ASN, CC) tuples line up between the dataset and
// the topology, exactly as the paper's selection pipeline assumes.
const (
	tier1ASNBase      = 100
	transitASNBase    = 300
	contentASNBase    = 600
	backboneASNBase   = 800
	nrenASNBase       = 900
	campusASNBase     = 1200
	enterpriseASNBase = 1600
)

// gatewayCities lists, per continent, the hub cities through which its
// transit providers reach the rest of the world. Peripheral continents
// (South America, Africa, Oceania) egress through North American or
// European hubs, which is the structural source of the intercontinental
// path inflation the paper observes.
var gatewayCities = map[string][]string{
	worlddata.Europe:       {"London", "Amsterdam", "Frankfurt", "New York"},
	worlddata.NorthAmerica: {"New York", "Ashburn", "Los Angeles", "London"},
	worlddata.Asia:         {"Singapore", "Hong Kong", "Tokyo", "Los Angeles", "London"},
	worlddata.SouthAmerica: {"Miami", "Madrid", "New York"},
	worlddata.Oceania:      {"Sydney", "Singapore", "Los Angeles"},
	worlddata.Africa:       {"London", "Paris", "Amsterdam"},
}

// researchExchangeCities are where continental research backbones peer
// with each other (open research exchange points).
var researchExchangeCities = []string{
	"Amsterdam", "London", "New York", "Tokyo", "Singapore", "Sydney",
	"Sao Paulo", "Johannesburg",
}

// Generate builds a synthetic Internet from the APNIC dataset and the
// world registry. The same (g, p, ds) always yields the same topology.
func Generate(g *rng.Rand, p GenParams, ds *apnic.Dataset) (*Topology, error) {
	b := &builder{
		t:  newTopology(worlddata.Cities()),
		g:  g.Split("topology"),
		p:  p,
		ds: ds,
	}
	b.indexCities()

	b.makeTier1s()
	b.makeTransits()
	b.makeContents()
	b.makeResearch()
	b.makeEyeballs()
	b.makeEnterprises()

	b.makeFacilities()

	b.linkTier1Mesh()
	b.linkTransits()
	b.linkContents()
	b.linkResearch()
	b.linkEyeballs()
	b.linkEnterprises()

	if err := b.t.Validate(); err != nil {
		return nil, fmt.Errorf("generate: %w", err)
	}
	return b.t, nil
}

type builder struct {
	t  *Topology
	g  *rng.Rand
	p  GenParams
	ds *apnic.Dataset

	hubCities    []int // city indexes sorted by hub rank
	citiesByCont map[string][]int
	citiesByCC   map[string][]int
}

func (b *builder) indexCities() {
	b.citiesByCont = make(map[string][]int)
	b.citiesByCC = make(map[string][]int)
	type ranked struct{ city, rank int }
	var hubs []ranked
	for i, c := range b.t.Cities {
		b.citiesByCont[c.Continent] = append(b.citiesByCont[c.Continent], i)
		b.citiesByCC[c.CC] = append(b.citiesByCC[c.CC], i)
		if c.HubRank > 0 {
			hubs = append(hubs, ranked{i, c.HubRank})
		}
	}
	sort.Slice(hubs, func(i, j int) bool { return hubs[i].rank < hubs[j].rank })
	for _, h := range hubs {
		b.hubCities = append(b.hubCities, h.city)
	}
}

func (b *builder) cityIdx(name string) int {
	i := b.t.CityIndex(name)
	if i < 0 {
		panic(fmt.Sprintf("generate: unknown city %q", name))
	}
	return i
}

// --- AS creation -----------------------------------------------------

func (b *builder) makeTier1s() {
	g := b.g.Split("tier1")
	for i := 0; i < b.p.NumTier1; i++ {
		// Tier-1s cover the top hubs densely and the rest with high odds.
		var pops []int
		home := b.hubCities[i%len(b.hubCities)]
		pops = append(pops, home)
		for rank, city := range b.hubCities {
			if city == home {
				continue
			}
			prob := 0.95
			if rank >= 20 {
				prob = 0.6
			}
			if g.Bool(prob) {
				pops = append(pops, city)
			}
		}
		homeCity := b.t.Cities[home]
		b.t.addAS(&AS{
			ASN:       ASN(tier1ASNBase + i),
			Name:      fmt.Sprintf("T1-%d", i+1),
			Type:      Tier1,
			CC:        homeCity.CC,
			Continent: homeCity.Continent,
			PoPs:      pops,
		})
	}
}

func (b *builder) makeTransits() {
	g := b.g.Split("transit")
	next := transitASNBase
	for _, cont := range worlddata.Continents() {
		n := b.p.TransitPerContinent[cont]
		cities := b.citiesByCont[cont]
		for i := 0; i < n; i++ {
			home := cities[g.Intn(len(cities))]
			pops := []int{home}
			// Regional footprint: 30-60% of the continent's cities.
			frac := g.Uniform(0.3, 0.6)
			for _, c := range cities {
				if c != home && g.Bool(frac) {
					pops = append(pops, c)
				}
			}
			// Intercontinental gateways: 1-2 hub PoPs, possibly abroad.
			gws := gatewayCities[cont]
			for _, k := range g.SampleInts(len(gws), g.IntBetween(1, 2)) {
				gw := b.cityIdx(gws[k])
				if !slices.Contains(pops, gw) {
					pops = append(pops, gw)
				}
			}
			homeCity := b.t.Cities[home]
			b.t.addAS(&AS{
				ASN:       ASN(next),
				Name:      fmt.Sprintf("TR-%s-%d", cont, i+1),
				Type:      Transit,
				CC:        homeCity.CC,
				Continent: cont,
				PoPs:      pops,
			})
			next++
		}
	}
}

func (b *builder) makeContents() {
	g := b.g.Split("content")
	for i := 0; i < b.p.NumContent; i++ {
		// Content footprint follows a rank-size rule: the first few are
		// hyper-giants present at dozens of hubs, the tail is regional.
		nHubs := 25 - i
		if nHubs < 4 {
			nHubs = g.IntBetween(3, 6)
		}
		if nHubs > len(b.hubCities) {
			nHubs = len(b.hubCities)
		}
		pops := append([]int(nil), b.hubCities[:nHubs]...)
		// Shuffle home among the top presence cities for diversity.
		home := pops[g.Intn(min(nHubs, 8))]
		pops = moveToFront(pops, home)
		homeCity := b.t.Cities[home]
		b.t.addAS(&AS{
			ASN:       ASN(contentASNBase + i),
			Name:      fmt.Sprintf("CDN-%d", i+1),
			Type:      Content,
			CC:        homeCity.CC,
			Continent: homeCity.Continent,
			PoPs:      pops,
		})
	}
}

func (b *builder) makeResearch() {
	g := b.g.Split("research")
	// One research backbone per continent.
	for i, cont := range worlddata.Continents() {
		cities := b.citiesByCont[cont]
		var pops []int
		for _, c := range cities {
			if g.Bool(0.6) {
				pops = append(pops, c)
			}
		}
		// Always present at the continent's research exchange cities.
		for _, name := range researchExchangeCities {
			ci := b.cityIdx(name)
			if b.t.Cities[ci].Continent == cont && !slices.Contains(pops, ci) {
				pops = append(pops, ci)
			}
		}
		if len(pops) == 0 {
			pops = []int{cities[0]}
		}
		home := pops[0]
		homeCity := b.t.Cities[home]
		b.t.addAS(&AS{
			ASN:       ASN(backboneASNBase + i),
			Name:      fmt.Sprintf("RB-%s", cont),
			Type:      Backbone,
			CC:        homeCity.CC,
			Continent: cont,
			PoPs:      pops,
		})
	}
	// National research networks and their campuses.
	nrenNext, campusNext := nrenASNBase, campusASNBase
	for _, cc := range slices.Sorted(maps.Keys(b.citiesByCC)) {
		if !g.Bool(b.p.NRENProbability) {
			continue
		}
		cities := b.citiesByCC[cc]
		cont := b.t.Cities[cities[0]].Continent
		b.t.addAS(&AS{
			ASN:       ASN(nrenNext),
			Name:      fmt.Sprintf("NREN-%s", cc),
			Type:      NREN,
			CC:        cc,
			Continent: cont,
			PoPs:      append([]int(nil), cities...),
		})
		nCampus := g.IntBetween(b.p.CampusMin, b.p.CampusMax)
		for j := 0; j < nCampus; j++ {
			city := cities[g.Intn(len(cities))]
			b.t.addAS(&AS{
				ASN:       ASN(campusNext),
				Name:      fmt.Sprintf("UNI-%s-%d", cc, j+1),
				Type:      Campus,
				CC:        cc,
				Continent: cont,
				PoPs:      []int{city},
			})
			campusNext++
		}
		nrenNext++
	}
}

func (b *builder) makeEyeballs() {
	g := b.g.Split("eyeball")
	for _, cc := range slices.Sorted(maps.Keys(b.citiesByCC)) {
		cities := b.citiesByCC[cc]
		cont := b.t.Cities[cities[0]].Continent
		n := 0
		for _, rec := range b.ds.ByCountry(cc) {
			if rec.Coverage < b.p.EyeballCutoff || n >= b.p.MaxEyeballsPerCountry {
				break
			}
			home := cities[g.Intn(len(cities))]
			pops := []int{home}
			// Bigger eyeballs cover more of the country's cities.
			extra := int(rec.Coverage / 25)
			for _, k := range g.SampleInts(len(cities), extra) {
				if cities[k] != home {
					pops = append(pops, cities[k])
				}
			}
			b.t.addAS(&AS{
				ASN:       ASN(rec.ASN),
				Name:      fmt.Sprintf("EYE-%s-%d", cc, n+1),
				Type:      Eyeball,
				CC:        cc,
				Continent: cont,
				PoPs:      pops,
				Coverage:  rec.Coverage,
			})
			n++
		}
	}
}

func (b *builder) makeEnterprises() {
	g := b.g.Split("enterprise")
	all := len(b.t.Cities)
	for i := 0; i < b.p.NumEnterprise; i++ {
		city := g.Intn(all)
		c := b.t.Cities[city]
		b.t.addAS(&AS{
			ASN:       ASN(enterpriseASNBase + i),
			Name:      fmt.Sprintf("ENT-%d", i+1),
			Type:      Enterprise,
			CC:        c.CC,
			Continent: c.Continent,
			PoPs:      []int{city},
		})
	}
}

// --- facilities -------------------------------------------------------

// facilityCountForRank maps a city's hub rank to the number of facilities
// generated there, approximating the 2017 facility-density distribution.
func facilityCountForRank(rank int) int {
	switch {
	case rank <= 3:
		return 5
	case rank <= 6:
		return 4
	case rank <= 10:
		return 3
	case rank <= 20:
		return 2
	default:
		return 1
	}
}

func (b *builder) makeFacilities() {
	g := b.g.Split("facility")
	// Table-1 seeds come first so analysis can match them by name.
	seeded := make(map[int]int) // city -> count already seeded
	for _, s := range worlddata.Table1Facilities() {
		city := b.cityIdx(s.CityName)
		f := &Facility{
			PDBID:      s.PDBID,
			Name:       s.Name,
			City:       city,
			Cloud:      s.Cloud,
			PDBTop10:   s.PDBTop10,
			ListedNets: s.NetCount,
		}
		for i := 0; i < s.IXPCount; i++ {
			f.IXPs = append(f.IXPs, fmt.Sprintf("%s-IX-%d", s.CityName, i+1))
		}
		b.t.addFacility(f)
		seeded[city]++
	}
	// Remaining hub facilities.
	nextPDB := 1000
	for rank, city := range b.hubCities {
		want := facilityCountForRank(rank + 1)
		for n := seeded[city]; n < want; n++ {
			op := worlddata.GenericFacilityOperators[g.Intn(len(worlddata.GenericFacilityOperators))]
			f := &Facility{
				PDBID:      nextPDB,
				Name:       fmt.Sprintf("%s %s %d", op, b.t.Cities[city].Name, n+1),
				City:       city,
				Cloud:      g.Bool(0.6),
				ListedNets: g.IntBetween(15, 120),
			}
			for i := 0; i < g.IntBetween(1, 3); i++ {
				f.IXPs = append(f.IXPs, fmt.Sprintf("%s-IX-%d", b.t.Cities[city].Name, i+1))
			}
			b.t.addFacility(f)
			nextPDB++
		}
	}
	// Small facilities in non-hub cities to reach the paper's ~67
	// candidate cities.
	var nonHubs []int
	for i, c := range b.t.Cities {
		if c.HubRank == 0 {
			nonHubs = append(nonHubs, i)
		}
	}
	for _, k := range g.SampleInts(len(nonHubs), b.p.NonHubFacilityCities) {
		city := nonHubs[k]
		op := worlddata.GenericFacilityOperators[g.Intn(len(worlddata.GenericFacilityOperators))]
		f := &Facility{
			PDBID:      nextPDB,
			Name:       fmt.Sprintf("%s %s", op, b.t.Cities[city].Name),
			City:       city,
			Cloud:      g.Bool(0.3),
			ListedNets: g.IntBetween(5, 40),
		}
		if g.Bool(0.5) {
			f.IXPs = append(f.IXPs, fmt.Sprintf("%s-IX", b.t.Cities[city].Name))
		}
		b.t.addFacility(f)
		nextPDB++
	}
	b.populateFacilityMembers(g)
}

// populateFacilityMembers fills member lists: each AS with a PoP in a
// facility's city joins with a type- and size-dependent probability. It
// also indexes each AS's facilities, in ascending ID order.
func (b *builder) populateFacilityMembers(g *rng.Rand) {
	// Pre-index ASes by city.
	byCity := make(map[int][]*AS)
	for _, a := range b.t.ASes {
		for _, c := range a.PoPs {
			byCity[c] = append(byCity[c], a)
		}
	}
	b.t.facsOf = make(map[ASN][]int, len(b.t.ASes))
	for _, f := range b.t.Facilities {
		sizeFactor := 0.45
		switch {
		case f.ListedNets >= 150:
			sizeFactor = 1.0
		case f.ListedNets >= 80:
			sizeFactor = 0.75
		case f.ListedNets >= 40:
			sizeFactor = 0.6
		}
		for _, a := range byCity[f.City] {
			if g.Bool(b.p.MemberProb[a.Type] * sizeFactor) {
				f.Members = append(f.Members, a.ASN)
				b.t.facsOf[a.ASN] = append(b.t.facsOf[a.ASN], f.ID)
			}
		}
	}
}

// --- links ------------------------------------------------------------

func (b *builder) linkTier1Mesh() {
	t1s := b.t.ASesOfType(Tier1)
	for i := 0; i < len(t1s); i++ {
		for j := i + 1; j < len(t1s); j++ {
			shared := b.t.SharedPoPCities(t1s[i], t1s[j])
			if len(shared) == 0 {
				shared = []int{t1s[i].HomeCity()}
			}
			b.t.addLink(t1s[i].ASN, t1s[j].ASN, P2P, shared)
		}
	}
}

// interconnectCities picks where a customer meets a provider: the cities
// they share, or failing that the provider's PoP nearest the customer's
// home (modelling a backhauled access circuit).
func (b *builder) interconnectCities(cust, prov *AS) []int {
	if shared := b.t.SharedPoPCities(cust, prov); len(shared) > 0 {
		return shared
	}
	return []int{b.t.NearestPoP(prov, cust.HomeCity())}
}

func (b *builder) linkTransits() {
	g := b.g.Split("link-transit")
	t1s := b.t.ASesOfType(Tier1)
	transits := b.t.ASesOfType(Transit)

	for _, tr := range transits {
		// 2-3 tier-1 providers, weighted toward those sharing cities.
		weights := make([]float64, len(t1s))
		for i, t1 := range t1s {
			weights[i] = 1
			if len(b.t.SharedPoPCities(tr, t1)) > 0 {
				weights[i] = 6
			}
		}
		n := g.IntBetween(2, 3)
		chosen := map[int]bool{}
		for len(chosen) < n {
			i := g.WeightedChoice(weights)
			if chosen[i] {
				weights[i] = 0
				if allZero(weights) {
					break
				}
				continue
			}
			chosen[i] = true
			b.t.addLink(tr.ASN, t1s[i].ASN, C2P, b.interconnectCities(tr, t1s[i]))
		}
		// Occasionally a smaller transit buys from a bigger same-continent one.
		if g.Bool(b.p.SmallTransitUpstream) {
			for _, k := range g.Perm(len(transits)) {
				up := transits[k]
				if up.ASN == tr.ASN || up.Continent != tr.Continent || len(up.PoPs) <= len(tr.PoPs) {
					continue
				}
				b.t.addLink(tr.ASN, up.ASN, C2P, b.interconnectCities(tr, up))
				break
			}
		}
	}
	// Transit-transit peering at shared facilities.
	for i := 0; i < len(transits); i++ {
		for j := i + 1; j < len(transits); j++ {
			a, c := transits[i], transits[j]
			shared := b.t.SharedFacilityCities(a.ASN, c.ASN)
			if len(shared) == 0 {
				continue
			}
			prob := b.p.TransitPeerCrossCont
			if a.Continent == c.Continent {
				prob = b.p.TransitPeerSameCont
			}
			if g.Bool(prob) {
				b.t.addLink(a.ASN, c.ASN, P2P, shared)
			}
		}
	}
}

func (b *builder) linkContents() {
	g := b.g.Split("link-content")
	t1s := b.t.ASesOfType(Tier1)
	transits := b.t.ASesOfType(Transit)
	for _, cdn := range b.t.ASesOfType(Content) {
		// One tier-1 backup transit.
		t1 := t1s[g.Intn(len(t1s))]
		b.t.addLink(cdn.ASN, t1.ASN, C2P, b.interconnectCities(cdn, t1))
		// Open peering with tier-1s and transits at shared facilities.
		for _, t1 := range t1s {
			if shared := b.t.SharedFacilityCities(cdn.ASN, t1.ASN); len(shared) > 0 && g.Bool(b.p.ContentPeerTier1) {
				b.t.addLink(cdn.ASN, t1.ASN, P2P, shared)
			}
		}
		for _, tr := range transits {
			if shared := b.t.SharedFacilityCities(cdn.ASN, tr.ASN); len(shared) > 0 && g.Bool(b.p.ContentPeerTransit) {
				b.t.addLink(cdn.ASN, tr.ASN, P2P, shared)
			}
		}
	}
}

func (b *builder) linkResearch() {
	g := b.g.Split("link-research")
	backbones := b.t.ASesOfType(Backbone)
	t1s := b.t.ASesOfType(Tier1)

	// Backbones peer with each other at research exchange cities.
	var exchanges []int
	for _, name := range researchExchangeCities {
		exchanges = append(exchanges, b.cityIdx(name))
	}
	for i := 0; i < len(backbones); i++ {
		for j := i + 1; j < len(backbones); j++ {
			b.t.addLink(backbones[i].ASN, backbones[j].ASN, P2P, exchanges)
		}
	}
	// Each backbone buys commercial transit from one tier-1, with a
	// single-city hand-off: the constrained commercial egress that makes
	// PlanetLab paths mediocre.
	for _, bb := range backbones {
		t1 := t1s[g.Intn(len(t1s))]
		handoff := b.t.NearestPoP(t1, bb.HomeCity())
		b.t.addLink(bb.ASN, t1.ASN, C2P, []int{handoff})
	}
	// NRENs attach to their continent's backbone; campuses to their NREN.
	byCont := make(map[string]*AS, len(backbones))
	for _, bb := range backbones {
		byCont[bb.Continent] = bb
	}
	transits := b.t.ASesOfType(Transit)
	for _, nren := range b.t.ASesOfType(NREN) {
		bb := byCont[nren.Continent]
		b.t.addLink(nren.ASN, bb.ASN, C2P, b.interconnectCities(nren, bb))
		// One domestic commercial transit, hand-off at the NREN home only.
		var domestic []*AS
		for _, tr := range transits {
			if tr.Continent == nren.Continent {
				domestic = append(domestic, tr)
			}
		}
		if len(domestic) > 0 {
			tr := domestic[g.Intn(len(domestic))]
			b.t.addLink(nren.ASN, tr.ASN, C2P, []int{b.t.NearestPoP(tr, nren.HomeCity())})
		}
	}
	nrens := b.t.ASesOfType(NREN)
	byCC := make(map[string]*AS, len(nrens))
	for _, n := range nrens {
		byCC[n.CC] = n
	}
	for _, campus := range b.t.ASesOfType(Campus) {
		if n, ok := byCC[campus.CC]; ok {
			b.t.addLink(campus.ASN, n.ASN, C2P, []int{campus.HomeCity()})
			continue
		}
		// No national NREN: attach to the continental backbone directly.
		bb := byCont[campus.Continent]
		b.t.addLink(campus.ASN, bb.ASN, C2P, []int{b.t.NearestPoP(bb, campus.HomeCity())})
	}
}

func (b *builder) linkEyeballs() {
	g := b.g.Split("link-eyeball")
	transits := b.t.ASesOfType(Transit)
	t1s := b.t.ASesOfType(Tier1)
	eyeballs := b.t.ASesOfType(Eyeball)

	for _, eye := range eyeballs {
		// 1-3 transit providers on the same continent, preferring those
		// with in-country PoPs.
		var candidates []*AS
		var weights []float64
		for _, tr := range transits {
			if tr.Continent != eye.Continent {
				continue
			}
			candidates = append(candidates, tr)
			w := 1.0
			if len(b.t.SharedPoPCities(eye, tr)) > 0 {
				w = 8
			}
			weights = append(weights, w)
		}
		n := g.IntBetween(1, 3)
		for picked := 0; picked < n && !allZero(weights); {
			i := g.WeightedChoice(weights)
			weights[i] = 0
			b.t.addLink(eye.ASN, candidates[i].ASN, C2P, b.interconnectCities(eye, candidates[i]))
			picked++
		}
		// Large incumbents sometimes buy directly from a tier-1.
		if eye.Coverage > 40 && g.Bool(0.3) {
			t1 := t1s[g.Intn(len(t1s))]
			b.t.addLink(eye.ASN, t1.ASN, C2P, b.interconnectCities(eye, t1))
		}
	}
	// Open peering at shared facilities: content-eyeball and
	// eyeball-eyeball (the flattening mesh).
	contents := b.t.ASesOfType(Content)
	for _, eye := range eyeballs {
		if eye.Coverage < 15 {
			continue // small eyeballs rarely peer
		}
		for _, cdn := range contents {
			if shared := b.t.SharedFacilityCities(eye.ASN, cdn.ASN); len(shared) > 0 && g.Bool(b.p.ContentPeerEyeball) {
				b.t.addLink(eye.ASN, cdn.ASN, P2P, shared)
			}
		}
	}
	for i := 0; i < len(eyeballs); i++ {
		for j := i + 1; j < len(eyeballs); j++ {
			a, c := eyeballs[i], eyeballs[j]
			if a.Coverage < 15 || c.Coverage < 15 {
				continue
			}
			if shared := b.t.SharedFacilityCities(a.ASN, c.ASN); len(shared) > 0 && g.Bool(b.p.EyeballPeerEyeball) {
				b.t.addLink(a.ASN, c.ASN, P2P, shared)
			}
		}
	}
}

func (b *builder) linkEnterprises() {
	g := b.g.Split("link-enterprise")
	transits := b.t.ASesOfType(Transit)
	for _, ent := range b.t.ASesOfType(Enterprise) {
		var sameCont []*AS
		for _, tr := range transits {
			if tr.Continent == ent.Continent {
				sameCont = append(sameCont, tr)
			}
		}
		pool := sameCont
		if len(pool) == 0 {
			pool = transits
		}
		n := g.IntBetween(1, 2)
		for _, k := range g.SampleInts(len(pool), n) {
			b.t.addLink(ent.ASN, pool[k].ASN, C2P, b.interconnectCities(ent, pool[k]))
		}
	}
}

// --- helpers ----------------------------------------------------------

func moveToFront(s []int, v int) []int {
	for i, x := range s {
		if x == v {
			copy(s[1:i+1], s[:i])
			s[0] = v
			break
		}
	}
	return s
}

func allZero(w []float64) bool {
	for _, x := range w {
		if x > 0 {
			return false
		}
	}
	return true
}
