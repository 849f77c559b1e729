package analysis

import (
	"math"
	"sort"

	"shortcuts/internal/measure"
	"shortcuts/internal/relays"
)

// FacilityRow is one row of the Table-1 reproduction: a facility hosting
// top COR relays, with its PeeringDB attributes.
type FacilityRow struct {
	Rank        int
	Name        string
	PDBID       int
	PctImproved float64 // share of COR-improved cases touching this facility
	City        string
	CC          string
	ListedNets  int
	IXPs        int
	Cloud       bool
	PDBTop10    bool
}

// TopFacilities reproduces Table 1: take the topRelays most frequently
// improving COR relays, collapse them to their facilities, and annotate
// each facility with PeeringDB attributes and the fraction of
// COR-improved cases in which one of its relays appeared. The paper uses
// the top 20 relays, which collapse into 10 facilities. topRelays is
// clamped to [0, ranked COR relays].
func TopFacilities(res *measure.Results, topRelays int) []FacilityRow {
	ranking := RankRelays(res, relays.COR)
	topRelays = min(max(topRelays, 0), len(ranking))
	cat := res.World.Catalog

	// Facilities of the top relays.
	facOf := make(map[int]bool) // PDB IDs
	for _, rr := range ranking[:topRelays] {
		facOf[cat.Relay(rr.Relay).FacilityPDB] = true
	}

	// Count, per facility, the COR-improved cases it participated in.
	improvedTotal := 0
	byFacility := make(map[int]int)
	for i := range res.Observations {
		o := &res.Observations[i]
		seen := make(map[int]bool)
		corImproved := false
		for _, e := range o.Improving {
			if cat.Type(int(e.Relay)) != relays.COR {
				continue
			}
			corImproved = true
			if pdb := cat.Relay(int(e.Relay)).FacilityPDB; facOf[pdb] && !seen[pdb] {
				seen[pdb] = true
				byFacility[pdb]++
			}
		}
		if corImproved {
			improvedTotal++
		}
	}
	if improvedTotal == 0 {
		return nil
	}

	rows := make([]FacilityRow, 0, len(byFacility))
	for pdb, count := range byFacility {
		fac, ok := res.World.Registry.Facility(pdb)
		if !ok {
			continue
		}
		rows = append(rows, FacilityRow{
			Name:        fac.Name,
			PDBID:       pdb,
			PctImproved: float64(count) / float64(improvedTotal),
			City:        res.World.Topo.Cities[fac.City].Name,
			CC:          res.World.Topo.Cities[fac.City].CC,
			ListedNets:  fac.ListedNets,
			IXPs:        len(fac.IXPs),
			Cloud:       fac.Cloud,
			PDBTop10:    res.World.Registry.IsTop10(pdb),
		})
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].PctImproved != rows[j].PctImproved {
			return rows[i].PctImproved > rows[j].PctImproved
		}
		return rows[i].PDBID < rows[j].PDBID
	})
	for i := range rows {
		rows[i].Rank = i + 1
	}
	return rows
}

// FacilityFeature correlates a facility attribute with relay success; the
// paper's future-work item (i) asks which feature makes colos good relay
// sites.
type FacilityFeature struct {
	Name        string
	Correlation float64 // Spearman rank correlation with improvement count
}

// FacilityFeatureAttribution ranks facility attributes by how strongly
// they correlate with the facility's improvement frequency across all COR
// facilities observed in the campaign.
func FacilityFeatureAttribution(res *measure.Results) []FacilityFeature {
	cat := res.World.Catalog
	counts := make(map[int]float64)
	for i := range res.Observations {
		for _, e := range res.Observations[i].Improving {
			if cat.Type(int(e.Relay)) == relays.COR {
				counts[cat.Relay(int(e.Relay)).FacilityPDB]++
			}
		}
	}
	var pdbs []int
	for pdb := range counts {
		pdbs = append(pdbs, pdb)
	}
	sort.Ints(pdbs)

	outcome := make([]float64, 0, len(pdbs))
	nets := make([]float64, 0, len(pdbs))
	ixps := make([]float64, 0, len(pdbs))
	hubRank := make([]float64, 0, len(pdbs))
	for _, pdb := range pdbs {
		fac, ok := res.World.Registry.Facility(pdb)
		if !ok {
			continue
		}
		outcome = append(outcome, counts[pdb])
		nets = append(nets, float64(fac.ListedNets))
		ixps = append(ixps, float64(len(fac.IXPs)))
		hr := res.World.Topo.Cities[fac.City].HubRank
		if hr == 0 {
			hr = 1000 // non-hub: worst rank
		}
		hubRank = append(hubRank, -float64(hr)) // invert: bigger is better
	}
	return []FacilityFeature{
		{Name: "colocated networks", Correlation: spearman(nets, outcome)},
		{Name: "IXP count", Correlation: spearman(ixps, outcome)},
		{Name: "city hub rank", Correlation: spearman(hubRank, outcome)},
	}
}

// spearman computes the Spearman rank correlation of two equal-length
// series.
func spearman(x, y []float64) float64 {
	if len(x) != len(y) || len(x) < 3 {
		return 0
	}
	rx := ranks(x)
	ry := ranks(y)
	mx, my := mean(rx), mean(ry)
	var num, dx, dy float64
	for i := range rx {
		num += (rx[i] - mx) * (ry[i] - my)
		dx += (rx[i] - mx) * (rx[i] - mx)
		dy += (ry[i] - my) * (ry[i] - my)
	}
	if dx == 0 || dy == 0 {
		return 0
	}
	return num / (math.Sqrt(dx) * math.Sqrt(dy))
}

func ranks(v []float64) []float64 {
	idx := make([]int, len(v))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return v[idx[a]] < v[idx[b]] })
	out := make([]float64, len(v))
	for r, i := range idx {
		out[i] = float64(r + 1)
	}
	return out
}
