package relays

import (
	"maps"
	"slices"

	"shortcuts/internal/atlas"
	"shortcuts/internal/planetlab"
	"shortcuts/internal/rng"
	"shortcuts/internal/topology"
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
	atlas     *atlas.Platform
	planetlab *planetlab.Registry
	params    SampleParams

	// Iteration orders over the catalog's grouping maps are fixed for
	// the catalog's lifetime, so they are sorted once here instead of
	// once per round. The orders (and the per-country AS lists) are
	// exactly what the per-round sorts produced, so no draw moves.
	corFacs  []int
	plrSites []string
	eyeCCs   []string
	eyeASNs  map[string][]topology.ASN
	otherCCs []string
}

// NewSampler creates a sampler bound to the liveness sources.
func NewSampler(c *Catalog, a *atlas.Platform, p *planetlab.Registry, sp SampleParams) *Sampler {
	s := &Sampler{catalog: c, atlas: a, planetlab: p, params: sp}
	s.corFacs = slices.Sorted(maps.Keys(c.corByFacility))
	s.plrSites = slices.Sorted(maps.Keys(c.plrBySite))
	s.eyeCCs = slices.Sorted(maps.Keys(c.eyeByCountry))
	s.eyeASNs = make(map[string][]topology.ASN, len(c.eyeByCountry))
	for cc, perAS := range c.eyeByCountry {
		s.eyeASNs[cc] = slices.Sorted(maps.Keys(perAS))
	}
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
			// Degenerate quotas draw no permutation, exactly like the
			// SampleInts guard this replaces.
			perm = g.PermInto(perm, len(idxs))
			for _, k := range sampleCut(perm, len(idxs), want) {
				rs.ByType[COR] = append(rs.ByType[COR], idxs[k])
			}
		}
	}

	// PLR: only nodes usable this round.
	var usable []int
	for _, site := range s.plrSites {
		usable = usable[:0]
		for _, idx := range s.catalog.plrBySite[site] {
			if s.planetlab.Usable(s.catalog.Relays[idx].NodeID, round) {
				usable = append(usable, idx)
			}
		}
		if len(usable) == 0 {
			continue
		}
		want := g.IntBetween(s.params.PLRPerSiteMin, s.params.PLRPerSiteMax)
		if want > 0 {
			perm = g.PermInto(perm, len(usable))
			for _, k := range sampleCut(perm, len(usable), want) {
				rs.ByType[PLR] = append(rs.ByType[PLR], usable[k])
			}
		}
	}

	// RAR_eye: country -> AS -> probe.
	for _, cc := range s.eyeCCs {
		perAS := s.catalog.eyeByCountry[cc]
		asns := s.eyeASNs[cc]
		// Try ASes in random order until one yields a live, non-endpoint
		// probe.
		perm = g.PermInto(perm, len(asns))
		for _, ai := range perm {
			idx, ok, buf := s.pickLiveProbe(g, pickPerm, perAS[asns[ai]], round, excludeProbes)
			pickPerm = buf
			if ok {
				rs.ByType[RAREye] = append(rs.ByType[RAREye], idx)
				break
			}
		}
	}

	// RAR_other: one probe per country.
	for _, cc := range s.otherCCs {
		idx, ok, buf := s.pickLiveProbe(g, pickPerm, s.catalog.otherByCC[cc], round, excludeProbes)
		pickPerm = buf
		if ok {
			rs.ByType[RAROther] = append(rs.ByType[RAROther], idx)
		}
	}
	return rs
}

// sampleCut reproduces SampleInts over an already-drawn permutation:
// the first want elements (all of them when want exceeds the set).
func sampleCut(perm []int, n, want int) []int {
	if n <= 0 || want <= 0 {
		return nil
	}
	if want > n {
		want = n
	}
	return perm[:want]
}

// pickLiveProbe walks idxs in a random order drawn into perm and returns
// the first live, non-excluded probe, plus the (possibly regrown)
// buffer for reuse.
func (s *Sampler) pickLiveProbe(g *rng.Rand, perm []int, idxs []int, round int, exclude map[atlas.ProbeID]bool) (int, bool, []int) {
	perm = g.PermInto(perm, len(idxs))
	for _, k := range perm {
		r := s.catalog.Relays[idxs[k]]
		if exclude[r.ProbeID] {
			continue
		}
		if s.atlas.Responsive(r.ProbeID, round) {
			return idxs[k], true, perm
		}
	}
	return 0, false, perm
}
