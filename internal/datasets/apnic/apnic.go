// Package apnic synthesizes the APNIC per-AS Internet-user-coverage
// dataset the paper uses to identify eyeball networks (Section 2.1). The
// real dataset estimates, for every (ASN, country) pair, the percentage of
// the country's Internet users the AS serves. The paper reports 19,857
// ASes over 225 countries, with 223 countries hosting at least one AS above
// a 10% coverage cutoff and 494 ASes passing that cutoff worldwide
// (Figure 1). The generator reproduces those marginals:
//
//   - each country gets a handful of "head" ASes whose coverages are drawn
//     so that the expected number of >=10% ASes is ~2.2 per country;
//   - two designated countries have only sub-10% ASes (the 223/225 gap);
//   - a heavy tail of low-coverage ASes pads the dataset to its full size;
//   - the United States is special-cased as a fragmented eyeball market
//     (many mid-coverage ASes, none dominant), as discussed in the paper.
package apnic

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"shortcuts/internal/rng"
)

// Record is one (ASN, country) coverage estimate.
type Record struct {
	ASN      int
	CC       string
	Coverage float64 // percentage of the country's Internet users, 0..100
}

// Dataset is a synthetic APNIC user-coverage dataset.
type Dataset struct {
	Records []Record

	byCountry map[string][]Record // sorted by coverage, descending
}

// Params controls dataset generation.
type Params struct {
	// RealCountries are country codes that exist in the world registry;
	// their head ASes are the ones the topology generator will instantiate.
	RealCountries []string
	// TotalCountries pads the dataset with synthetic country codes up to
	// this number (the paper's dataset spans 225 countries).
	TotalCountries int
	// TotalASes is the total number of records to generate (19,857 in the
	// paper's snapshot).
	TotalASes int
	// FirstASN is the ASN assigned to the first generated record; records
	// get consecutive ASNs.
	FirstASN int
}

// DefaultParams returns generation parameters matching the paper's dataset
// marginals for the given set of real-world countries.
func DefaultParams(realCountries []string) Params {
	return Params{
		RealCountries:  realCountries,
		TotalCountries: 225,
		TotalASes:      19857,
		FirstASN:       3000,
	}
}

// Generate builds a Dataset from the given deterministic source.
func Generate(g *rng.Rand, p Params) *Dataset {
	if p.TotalCountries < len(p.RealCountries) {
		p.TotalCountries = len(p.RealCountries)
	}
	countries := make([]string, 0, p.TotalCountries)
	countries = append(countries, p.RealCountries...)
	countries = append(countries, syntheticCCs(p.RealCountries, p.TotalCountries-len(countries))...)

	// Room for the heads (at most 8 a country) and the tail.
	ds := &Dataset{Records: make([]Record, 0, max(p.TotalASes, 8*len(countries)))}
	asn := p.FirstASN

	// Two countries get no AS above the 10% cutoff, reproducing the
	// paper's 223/225. Pick them from the synthetic tail so that real
	// countries always have usable eyeballs for the campaign.
	lowOnly := map[string]bool{}
	if len(countries) > len(p.RealCountries)+2 {
		lowOnly[countries[len(countries)-1]] = true
		lowOnly[countries[len(countries)-2]] = true
	}

	for _, cc := range countries {
		var head []float64
		switch {
		case lowOnly[cc]:
			// Fragmented to the point of having no clear eyeball.
			for i := 0; i < 6; i++ {
				head = append(head, g.Uniform(1, 9))
			}
		case cc == "US":
			// Fragmented market: many mid-coverage ISPs, none dominant.
			head = []float64{
				g.Uniform(16, 22), g.Uniform(13, 17), g.Uniform(10, 14),
				g.Uniform(9, 12), g.Uniform(7, 10), g.Uniform(5, 8),
				g.Uniform(4, 6), g.Uniform(3, 5),
			}
		default:
			// Typical market: one dominant incumbent, a strong challenger,
			// a possible third, then a fringe. Expected ASes >= 10%:
			// 1 + 0.78 + 0.38 ~= 2.2 per country, matching ~494/225.
			head = []float64{
				g.Uniform(25, 75),
				g.Uniform(5, 28),
				g.Uniform(2, 15),
				g.Uniform(1, 8),
			}
		}
		for _, cov := range head {
			ds.Records = append(ds.Records, Record{ASN: asn, CC: cc, Coverage: cov})
			asn++
		}
	}

	// Heavy tail of tiny ASes: web-facing networks below eyeball scale.
	for len(ds.Records) < p.TotalASes {
		cc := countries[g.Intn(len(countries))]
		cov := g.Pareto(0.01, 1.1)
		if cov > 3 {
			cov = g.Uniform(0.01, 3)
		}
		ds.Records = append(ds.Records, Record{ASN: asn, CC: cc, Coverage: cov})
		asn++
	}

	// Rank each country's records, coverage descending then ASN, in a
	// slice sized to the country.
	size := make(map[string]int, len(countries))
	for _, r := range ds.Records {
		size[r.CC]++
	}
	ds.byCountry = make(map[string][]Record, len(size))
	for cc, n := range size {
		ds.byCountry[cc] = make([]Record, 0, n)
	}
	for _, r := range ds.Records {
		ds.byCountry[r.CC] = append(ds.byCountry[r.CC], r)
	}
	for _, recs := range ds.byCountry {
		slices.SortFunc(recs, func(a, b Record) int {
			switch {
			case a.Coverage > b.Coverage:
				return -1
			case a.Coverage < b.Coverage:
				return 1
			}
			return cmp.Compare(a.ASN, b.ASN)
		})
	}
	return ds
}

// syntheticCCs returns n two-letter codes that do not collide with the
// given real country codes. Enumeration order is deterministic.
func syntheticCCs(real []string, n int) []string {
	if n <= 0 {
		return nil
	}
	taken := make(map[string]bool, len(real))
	for _, cc := range real {
		taken[cc] = true
	}
	letters := "ABCDEFGHIJKLMNOPQRSTUVWXYZ"
	out := make([]string, 0, n)
	for _, first := range letters {
		for _, second := range letters {
			cc := fmt.Sprintf("%c%c", first, second)
			if taken[cc] {
				continue
			}
			out = append(out, cc)
			if len(out) == n {
				return out
			}
		}
	}
	return out
}

// Countries returns all country codes present in the dataset, sorted.
func (d *Dataset) Countries() []string {
	out := make([]string, 0, len(d.byCountry))
	for cc := range d.byCountry {
		out = append(out, cc)
	}
	sort.Strings(out)
	return out
}

// ByCountry returns the records for a country sorted by descending
// coverage. The returned slice must not be modified.
func (d *Dataset) ByCountry(cc string) []Record {
	return d.byCountry[cc]
}

// TopASes returns up to n records with the highest coverage in cc.
func (d *Dataset) TopASes(cc string, n int) []Record {
	recs := d.byCountry[cc]
	if n > len(recs) {
		n = len(recs)
	}
	return recs[:n]
}

// Coverage returns the coverage of (asn, cc) and whether it is present.
func (d *Dataset) Coverage(asn int, cc string) (float64, bool) {
	for _, r := range d.byCountry[cc] {
		if r.ASN == asn {
			return r.Coverage, true
		}
	}
	return 0, false
}

// CutoffPoint is one point of the Figure-1 curve.
type CutoffPoint struct {
	Cutoff    float64 // user-coverage threshold, percent
	ASes      int     // ASes with coverage >= cutoff anywhere
	Countries int     // countries with at least one such AS
}

// CutoffCurve computes the Figure-1 curve: for each cutoff, the number of
// ASes worldwide whose coverage meets the cutoff in their country, and the
// number of countries covered at that level.
func (d *Dataset) CutoffCurve(cutoffs []float64) []CutoffPoint {
	out := make([]CutoffPoint, 0, len(cutoffs))
	for _, cut := range cutoffs {
		ases := 0
		ccs := 0
		for _, recs := range d.byCountry {
			countryHit := false
			for _, r := range recs {
				if r.Coverage >= cut {
					ases++
					countryHit = true
				} else {
					break // records are sorted descending
				}
			}
			if countryHit {
				ccs++
			}
		}
		out = append(out, CutoffPoint{Cutoff: cut, ASes: ases, Countries: ccs})
	}
	return out
}

// EyeballASes returns the (ASN, CC) records meeting the cutoff, the
// verified-eyeball set of Section 2.1. The paper validates a 10% cutoff.
func (d *Dataset) EyeballASes(cutoff float64) []Record {
	var out []Record
	for _, cc := range d.Countries() {
		for _, r := range d.byCountry[cc] {
			if r.Coverage >= cutoff {
				out = append(out, r)
			} else {
				break
			}
		}
	}
	return out
}
