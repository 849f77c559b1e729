// Package eyeball implements the endpoint-selection methodology of
// Section 2.1: verify eyeball (ASN, country) tuples via the APNIC
// user-coverage cutoff, intersect them with the eligible RIPE Atlas probe
// population, and sample one AS per country and one probe per AS for each
// measurement round — preserving country-level diversity without biasing
// toward densely-probed eyeballs.
package eyeball

import (
	"sort"

	"shortcuts/internal/atlas"
	"shortcuts/internal/datasets/apnic"
	"shortcuts/internal/rng"
	"shortcuts/internal/topology"
)

// Cutoff is the paper's validated user-coverage threshold (percent) for
// calling an AS an eyeball within its country.
const Cutoff = 10.0

// Tuple is a verified eyeball (ASN, country) pair.
type Tuple struct {
	ASN topology.ASN
	CC  string
}

// Selector samples campaign endpoints.
type Selector struct {
	cutoff   float64
	verified map[Tuple]bool
	// coverage retains each verified tuple's APNIC user coverage — the
	// eyeball population signal the stratified pair sampler weights
	// city-pair quotas by.
	coverage map[Tuple]float64
	// byCountry maps a country to the verified ASes that actually have
	// eligible probes there.
	byCountry map[string][]topology.ASN
	countries []string
	// ases is the deduplicated sorted union of byCountry, precomputed so
	// every-round callers (campaign destination sets) don't rebuild it.
	ases     []topology.ASN
	platform *atlas.Platform
}

// New builds a selector from the APNIC dataset and the probe platform
// using the given coverage cutoff (use the Cutoff constant for the
// paper's value).
func New(ds *apnic.Dataset, platform *atlas.Platform, cutoff float64) *Selector {
	s := &Selector{
		cutoff:    cutoff,
		verified:  make(map[Tuple]bool),
		coverage:  make(map[Tuple]float64),
		byCountry: make(map[string][]topology.ASN),
		platform:  platform,
	}
	for _, rec := range ds.EyeballASes(cutoff) {
		t := Tuple{ASN: topology.ASN(rec.ASN), CC: rec.CC}
		s.verified[t] = true
		s.coverage[t] = rec.Coverage
	}
	seen := make(map[string]bool)
	for t := range s.verified {
		if len(platform.EligibleIn(t.ASN, t.CC)) == 0 {
			continue
		}
		s.byCountry[t.CC] = append(s.byCountry[t.CC], t.ASN)
		if !seen[t.CC] {
			seen[t.CC] = true
			s.countries = append(s.countries, t.CC)
		}
	}
	sort.Strings(s.countries)
	seenAS := make(map[topology.ASN]bool)
	for cc := range s.byCountry {
		asns := s.byCountry[cc]
		sort.Slice(asns, func(i, j int) bool { return asns[i] < asns[j] })
		for _, a := range asns {
			if !seenAS[a] {
				seenAS[a] = true
				s.ases = append(s.ases, a)
			}
		}
	}
	sort.Slice(s.ases, func(i, j int) bool { return s.ases[i] < s.ases[j] })
	return s
}

// IsEyeball reports whether (asn, cc) is a verified eyeball tuple. This
// is the predicate that splits RAR_eye from RAR_other relays.
func (s *Selector) IsEyeball(asn topology.ASN, cc string) bool {
	return s.verified[Tuple{ASN: asn, CC: cc}]
}

// PopulationWeight returns the APNIC user coverage (percent of the
// country's Internet users) of the verified tuple, or 0 for tuples that
// did not pass the eyeball cutoff. It is the per-endpoint population
// mass that budget-weighted pair sampling aggregates per city.
func (s *Selector) PopulationWeight(asn topology.ASN, cc string) float64 {
	return s.coverage[Tuple{ASN: asn, CC: cc}]
}

// Countries returns the countries with at least one verified eyeball AS
// hosting eligible probes (the paper's 82).
func (s *Selector) Countries() []string { return s.countries }

// VerifiedASCount returns how many verified (ASN, CC) tuples have
// eligible probes.
func (s *Selector) VerifiedASCount() int {
	n := 0
	for _, asns := range s.byCountry {
		n += len(asns)
	}
	return n
}

// ASes returns the deduplicated, sorted set of verified eyeball ASes
// with eligible probes — the ASes campaign endpoints can be sampled
// from, and therefore the destinations every round routes toward. The
// slice is precomputed at construction; callers must not mutate it.
func (s *Selector) ASes() []topology.ASN { return s.ases }

// ASNsIn returns the verified eyeball ASes with eligible probes in the
// country, sorted ascending — the exact per-country AS walk order
// SampleEndpointsInto permutes. Callers must not mutate the slice.
func (s *Selector) ASNsIn(cc string) []topology.ASN { return s.byCountry[cc] }

// SampleEndpoints draws the round's RAE set as atlas rows: for each
// country, one uniformly random verified AS, then one uniformly random
// eligible probe within it. Countries whose candidate probes are all
// offline this round are skipped.
func (s *Selector) SampleEndpoints(g *rng.Rand, round int) []int32 {
	return s.SampleEndpointsInto(g, round, 1, nil)
}

// SampleEndpointsInto generalizes SampleEndpoints to perCountry probes
// per country, appending into buf (which may be nil) and returning the
// grown slice. The country walk, AS permutation and probe permutation
// draws are identical to SampleEndpoints — at perCountry <= 1 the two
// are draw-for-draw the same function — and higher quotas keep walking
// the already-drawn permutations, collecting every responsive probe
// until the quota fills, so scaling the per-round endpoint population
// perturbs no other stream. Quotas above a country's responsive
// population saturate at what the country has.
func (s *Selector) SampleEndpointsInto(g *rng.Rand, round, perCountry int, buf []int32) []int32 {
	if perCountry < 1 {
		perCountry = 1
	}
	g = g.SplitN("endpoints", round)
	out := buf[:0]
	// Permutations are drawn into two reused buffers (the AS walk stays
	// live while probe walks run inside it) — identical draw sequence to
	// the allocating Perm, once per country instead of once per call.
	var asPerm, probePerm []int
	for _, cc := range s.countries {
		asns := s.byCountry[cc]
		// Try ASes in random order, collecting responsive probes until
		// the country's quota fills.
		took := 0
		asPerm = g.PermInto(asPerm, len(asns))
		for _, ai := range asPerm {
			rows := s.platform.EligibleIn(asns[ai], cc)
			probePerm = g.PermInto(probePerm, len(rows))
			for _, pi := range probePerm {
				if s.platform.Responsive(s.platform.ID(rows[pi]), round) {
					out = append(out, rows[pi])
					took++
					if took == perCountry {
						break
					}
				}
			}
			if took == perCountry {
				break
			}
		}
	}
	return out
}
