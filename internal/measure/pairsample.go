package measure

import "slices"

// Stratified pair sampling (Config.PairBudget). The stratum is the city
// pair: the (srcCity, dstCity) pair is the unit that determines relay
// feasibility, and facility-level inference needs corridor coverage,
// not uniform pair coverage.
// Each stratum's quota is proportional to its eyeball population weight —
// the product of the two cities' summed APNIC coverage over the round's
// endpoints (halved for same-city strata, which the triangular universe
// counts once) — capped at the stratum's pair-universe size. Within a
// stratum, pairs are drawn uniformly without replacement by Floyd's
// algorithm from a stream keyed by (campaign seed, "pairs", round,
// stratum): no draw depends on scheduling or on any other stratum, so
// the sampled plan is bit-identical at any Concurrency or shard count,
// and any stratum's sample can be regenerated in isolation.

// sampleKey identifies one Floyd draw for the per-round dedup map:
// stratum ordinal plus within-stratum pair ordinal.
type sampleKey struct{ s, t int64 }

// buildPairPlan fills scr.pairs with the round's stratified pair
// sample over the round's drafted endpoints (scr.eps, scr.epWeight) and
// returns it. Callers invoke it only when 0 < budget <
// pairCount(len(scr.eps)). The prologue runs single-threaded, reusing
// the round scratch.
func (c *campaign) buildPairPlan(scr *roundScratch, round int) []pairIdx32 {
	eps := scr.eps
	ne := len(eps)
	nc := c.nc
	budget := c.cfg.PairBudget
	fleet := c.w.Atlas

	// Group the round's endpoints by home city: counting sort, stable in
	// endpoint order, so byCity holds each city's endpoint positions in
	// ascending order.
	scr.cityCount = grown(scr.cityCount, nc)
	clear(scr.cityCount)
	for _, r := range eps {
		scr.cityCount[fleet.City(r)]++
	}
	scr.cityStart = grown(scr.cityStart, nc+1)
	cityStart := scr.cityStart
	sum := int32(0)
	for ci := 0; ci < nc; ci++ {
		cityStart[ci] = sum
		sum += scr.cityCount[ci]
	}
	cityStart[nc] = sum
	scr.cityFill = grown(scr.cityFill, nc)
	copy(scr.cityFill, cityStart[:nc])
	scr.byCity = grown(scr.byCity, ne)
	for i, r := range eps {
		city := fleet.City(r)
		scr.byCity[scr.cityFill[city]] = int32(i)
		scr.cityFill[city]++
	}

	// Per-city population weight: the summed APNIC coverage of the
	// round's endpoints there. Worlds without eyeball weights (all
	// zero) fall back to uniform per-endpoint mass, which reduces the
	// quota rule to proportional-to-stratum-size.
	scr.cityWeight = grown(scr.cityWeight, nc)
	clear(scr.cityWeight)
	totalMass := 0.0
	for i, r := range eps {
		w := float64(scr.epWeight[i])
		scr.cityWeight[fleet.City(r)] += w
		totalMass += w
	}
	if totalMass == 0 {
		for ci := 0; ci < nc; ci++ {
			scr.cityWeight[ci] = float64(scr.cityCount[ci])
		}
	}

	// The occupied-city list, ascending: strata enumerate over it.
	scr.cityList = scr.cityList[:0]
	for ci := 0; ci < nc; ci++ {
		if scr.cityCount[ci] > 0 {
			scr.cityList = append(scr.cityList, int32(ci))
		}
	}
	cityList := scr.cityList

	// Pass 1: total stratum weight. Same-city strata carry half the
	// product (the unordered universe holds each cross-city pair once
	// per orientation of the product, but same-city pairs only once).
	totalW := 0.0
	for x, a := range cityList {
		wa := scr.cityWeight[a]
		if scr.cityCount[a] > 1 {
			totalW += wa * wa / 2
		}
		for _, b := range cityList[x+1:] {
			totalW += wa * scr.cityWeight[b]
		}
	}
	if totalW <= 0 {
		scr.pairs = scr.pairs[:0] // no mass anywhere: degenerate, empty plan
		return scr.pairs
	}

	// Pass 2: quotas with carried rounding error (so the realized total
	// tracks the budget without a remainder redistribution pass), then
	// Floyd's uniform without-replacement draw per stratum. The dedup
	// map is shared across strata, keyed by (stratum, ordinal), and
	// cleared once per round.
	if scr.sampleSeen == nil {
		scr.sampleSeen = make(map[sampleKey]bool, budget)
	} else {
		clear(scr.sampleSeen)
	}
	base := c.pairBase.Derive("round", uint64(round))
	pairs := scr.pairs[:0]
	carry := 0.0
	for x, a := range cityList {
		for _, b := range cityList[x:] {
			na, nb := int(scr.cityCount[a]), int(scr.cityCount[b])
			var m int // stratum universe size
			var w float64
			if a == b {
				m = pairCount(na)
				w = scr.cityWeight[a] * scr.cityWeight[a] / 2
			} else {
				m = na * nb
				w = scr.cityWeight[a] * scr.cityWeight[b]
			}
			if m == 0 || w <= 0 {
				continue
			}
			target := float64(budget) * w / totalW
			q := int(target + carry)
			carry = target + carry - float64(q) // rounding remainder, [0, 1)
			if q > m {
				q = m // capped surplus is dropped, never spilled to a neighbour
			}
			if q <= 0 {
				continue
			}
			s := int64(a)*int64(nc) + int64(b)
			st := base.Derive("stratum", uint64(s))
			scr.strataT = scr.strataT[:0]
			for j := m - q; j < m; j++ {
				t := int64(st.IntBetween(0, j))
				if scr.sampleSeen[sampleKey{s, t}] {
					t = int64(j)
				}
				scr.sampleSeen[sampleKey{s, t}] = true
				scr.strataT = append(scr.strataT, t)
			}
			slices.Sort(scr.strataT)
			for _, t := range scr.strataT {
				var i, j int32
				if a == b {
					pi, pj := pairAt(na, int(t))
					i = scr.byCity[int(cityStart[a])+pi]
					j = scr.byCity[int(cityStart[a])+pj]
				} else {
					i = scr.byCity[int(cityStart[a])+int(t)/nb]
					j = scr.byCity[int(cityStart[b])+int(t)%nb]
					if i > j {
						i, j = j, i
					}
				}
				pairs = append(pairs, pairIdx32{i, j})
			}
		}
	}
	scr.pairs = pairs
	return pairs
}

// stratumQuota reproduces the quota rule in isolation for tests: the
// population-weighted target before rounding for a stratum of weight w
// under total weight totalW and the given budget.
func stratumQuota(budget int, w, totalW float64) float64 {
	if totalW <= 0 {
		return 0
	}
	return float64(budget) * w / totalW
}
