package relays

import (
	"maps"
	"slices"

	"shortcuts/internal/atlas"
	"shortcuts/internal/eyeball"
	"shortcuts/internal/planetlab"
	"shortcuts/internal/rng"
)

// SampleParams are the per-round sampling quotas of Sections 2.2-2.3.
type SampleParams struct {
	CORPerFacilityMin, CORPerFacilityMax int // 1-3 IPs per facility
	PLRPerSiteMin, PLRPerSiteMax         int // 1-2 nodes per site
}

// DefaultSampleParams returns the paper's quotas.
func DefaultSampleParams() SampleParams {
	return SampleParams{
		CORPerFacilityMin: 1, CORPerFacilityMax: 3,
		PLRPerSiteMin: 1, PLRPerSiteMax: 2,
	}
}

// Sampler draws per-round relay subsets from a catalog.
type Sampler struct {
	catalog   *Catalog
	selector  *eyeball.Selector
	planetlab *planetlab.Registry
	params    SampleParams

	// Iteration orders over the catalog's grouping maps are fixed for
	// the catalog's lifetime, so they are sorted once here instead of
	// once per round.
	corFacs  []int
	plrSites []string
	otherCCs []string
}

// NewSampler creates a sampler bound to the liveness sources. sel must
// be the selector whose IsEyeball split the catalog's RAR relays.
func NewSampler(c *Catalog, sel *eyeball.Selector, p *planetlab.Registry, sp SampleParams) *Sampler {
	s := &Sampler{catalog: c, selector: sel, planetlab: p, params: sp}
	s.corFacs = slices.Sorted(maps.Keys(c.corByFacility))
	s.plrSites = slices.Sorted(maps.Keys(c.plrBySite))
	s.otherCCs = slices.Sorted(maps.Keys(c.otherByCC))
	return s
}

// RoundSet is the relay selection for one measurement round, as catalog
// indices per type.
type RoundSet struct {
	ByType [NumTypes][]int
}

// SampleRound draws the round's relays:
//
//   - COR: 1-3 verified IPs per facility (covers every facility while
//     accounting for intra-facility variance);
//   - PLR: 1-2 usable nodes per accessible site;
//   - RAR_eye: one eligible, responsive probe from one eyeball AS per
//     country, excluding probes already used as endpoints this round;
//   - RAR_other: one responsive probe per country from other networks.
func (s *Sampler) SampleRound(g *rng.Rand, round int, excludeProbes map[atlas.ProbeID]bool) *RoundSet {
	g = g.SplitN("relay-sample", round)
	rs := &RoundSet{}
	// perm and pickPerm are the reused permutation buffers (pickPerm is
	// separate because pickLiveProbe runs inside walks over perm).
	var perm, pickPerm []int

	// COR.
	for _, pdb := range s.corFacs {
		idxs := s.catalog.corByFacility[pdb]
		want := g.IntBetween(s.params.CORPerFacilityMin, s.params.CORPerFacilityMax)
		if len(idxs) > 0 && want > 0 {
			// Degenerate quotas draw no permutation; a quota above the
			// set takes all of it.
			perm = g.PermInto(perm, len(idxs))
			for _, k := range perm[:min(want, len(perm))] {
				rs.ByType[COR] = append(rs.ByType[COR], idxs[k])
			}
		}
	}

	// PLR: only nodes usable this round.
	var usable []int
	for _, site := range s.plrSites {
		usable = usable[:0]
		for _, idx := range s.catalog.plrBySite[site] {
			if s.planetlab.Usable(s.catalog.relays[idx].NodeID, round) {
				usable = append(usable, idx)
			}
		}
		if len(usable) == 0 {
			continue
		}
		want := g.IntBetween(s.params.PLRPerSiteMin, s.params.PLRPerSiteMax)
		if want > 0 {
			perm = g.PermInto(perm, len(usable))
			for _, k := range perm[:min(want, len(perm))] {
				rs.ByType[PLR] = append(rs.ByType[PLR], usable[k])
			}
		}
	}

	// RAR_eye: country -> AS -> probe. The selector's countries, their
	// sorted ASes and each (AS, country)'s ascending eligible rows are
	// exactly the groups the catalog's RAR_eye relays fall into: an
	// eligible probe is RAR_eye iff its tuple is verified, and the
	// selector keeps the verified tuples with eligible probes.
	fleet := s.catalog.fleet
	for _, cc := range s.selector.Countries() {
		asns := s.selector.ASNsIn(cc)
		// Try ASes in random order until one yields a live, non-endpoint
		// probe.
		perm = g.PermInto(perm, len(asns))
		for _, ai := range perm {
			row, ok, buf := s.pickLiveProbe(g, pickPerm, fleet.EligibleIn(asns[ai], cc), round, excludeProbes)
			pickPerm = buf
			if ok {
				rs.ByType[RAREye] = append(rs.ByType[RAREye], s.catalog.rarIndex(row))
				break
			}
		}
	}

	// RAR_other: one probe per country.
	for _, cc := range s.otherCCs {
		row, ok, buf := s.pickLiveProbe(g, pickPerm, s.catalog.otherByCC[cc], round, excludeProbes)
		pickPerm = buf
		if ok {
			rs.ByType[RAROther] = append(rs.ByType[RAROther], s.catalog.rarIndex(row))
		}
	}
	return rs
}

// pickLiveProbe walks atlas rows in a random order drawn into perm and
// returns the first live, non-excluded probe's row, plus the (possibly
// regrown) buffer for reuse.
func (s *Sampler) pickLiveProbe(g *rng.Rand, perm []int, rows []int32, round int, exclude map[atlas.ProbeID]bool) (int32, bool, []int) {
	fleet := s.catalog.fleet
	perm = g.PermInto(perm, len(rows))
	for _, k := range perm {
		id := fleet.ID(rows[k])
		if exclude[id] {
			continue
		}
		if fleet.Responsive(id, round) {
			return rows[k], true, perm
		}
	}
	return 0, false, perm
}
