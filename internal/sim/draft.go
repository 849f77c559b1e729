package sim

import (
	"shortcuts/internal/atlas"
	"shortcuts/internal/eyeball"
)

// EndpointDraft is the precomputed index columnar endpoint drafting
// walks: for every selector country (in the selector's sorted order)
// and every verified eyeball AS within it (in the selector's sorted
// per-country order), the column rows of the eligible probes of that
// (country, AS) group — in the platform's EligibleIn order. The round
// loop permutes these flat row lists instead of chasing *atlas.Probe
// pointers, drawing permutation-for-permutation exactly what
// eyeball.SampleEndpointsInto draws; the draw-equivalence test pins
// that, and the existing golden digests depend on it.
//
// Built once at world build (no randomness), immutable afterwards.
type EndpointDraft struct {
	countries []string
	// ccOff[ci] .. ccOff[ci+1] is country ci's extent in the group
	// directory; rowOff[gi] .. rowOff[gi+1] is group gi's extent in rows.
	ccOff  []int32
	rowOff []int32
	rows   []int32
}

// BuildEndpointDraft indexes the selector's draft universe against the
// endpoint columns.
func BuildEndpointDraft(pl *atlas.Platform, sel *eyeball.Selector, cols *EndpointColumns) *EndpointDraft {
	d := &EndpointDraft{countries: sel.Countries()}
	d.ccOff = make([]int32, len(d.countries)+1)
	groups := 0
	total := 0
	for _, cc := range d.countries {
		for _, asn := range sel.ASNsIn(cc) {
			groups++
			total += len(pl.EligibleIn(asn, cc))
		}
	}
	d.rowOff = make([]int32, 0, groups+1)
	d.rowOff = append(d.rowOff, 0)
	d.rows = make([]int32, 0, total)
	for ci, cc := range d.countries {
		for _, asn := range sel.ASNsIn(cc) {
			for _, p := range pl.EligibleIn(asn, cc) {
				d.rows = append(d.rows, cols.Row(p.ID))
			}
			d.rowOff = append(d.rowOff, int32(len(d.rows)))
		}
		d.ccOff[ci+1] = int32(len(d.rowOff) - 1)
	}
	return d
}

// NumCountries returns the number of draft countries.
func (d *EndpointDraft) NumCountries() int { return len(d.countries) }

// NumGroups returns how many (country, AS) groups country ci has.
func (d *EndpointDraft) NumGroups(ci int) int {
	return int(d.ccOff[ci+1] - d.ccOff[ci])
}

// Rows returns the eligible rows of country ci's gi-th AS group, in the
// platform's EligibleIn order. Callers must not mutate the slice.
func (d *EndpointDraft) Rows(ci, gi int) []int32 {
	g := int(d.ccOff[ci]) + gi
	return d.rows[d.rowOff[g]:d.rowOff[g+1]]
}
