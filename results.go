package shortcuts

import (
	"io"
	"sync"

	"shortcuts/internal/analysis"
	"shortcuts/internal/measure"
	"shortcuts/internal/report"
)

// Results wraps a finished campaign with accessors for every published
// artifact. Latencies are milliseconds; fractions are in [0, 1].
//
// Every statistic StreamStats reports, Results reports from the same
// fold of its observations (see StreamStats for the list). The methods
// below rank or regroup the whole retained campaign.
type Results struct {
	*stats
	res *measure.Results

	// catOnce lazily builds the corridor index behind ObservationsBetween
	// and Countries, so repeated corridor queries cost one map probe
	// instead of a full observation scan each.
	catOnce sync.Once
	cat     *measure.ResultCatalog
}

// catalog returns the lazily-built corridor index over the results.
func (r *Results) catalog() *measure.ResultCatalog {
	r.catOnce.Do(func() { r.cat = measure.NewResultCatalog(r.res) })
	return r.cat
}

// TopRelayPoint is one point of the Figure-3 coverage curve: the
// fraction of all cases improved using only the N top relays.
type TopRelayPoint = analysis.TopRelayPoint

// TopRelayCurve computes Figure 3 for the type: fraction of all cases
// improved using only the N most frequently improving relays.
func (r *Results) TopRelayCurve(t RelayType, maxN int) []TopRelayPoint {
	return analysis.TopRelayCurve(r.res, t, maxN)
}

// RelaysForCoverage returns how many top relays of the type reach the
// given fraction of its total coverage, and (for COR) the facilities they
// occupy (paper: 10 relays in 6 colos reach ~75%).
func (r *Results) RelaysForCoverage(t RelayType, fracOfMax float64) (int, []string) {
	return analysis.RelaysForCoverage(r.res, t, fracOfMax)
}

// ThresholdPoint is one point of the Figure-4 curves: the fraction of
// all cases improved by more than ThresholdMs, using the top-N relays
// and using every relay of the type.
type ThresholdPoint = analysis.ThresholdPoint

// ThresholdCurves computes Figure 4 for the type with the given top-N
// relay set size.
func (r *Results) ThresholdCurves(t RelayType, topN int, thresholds []float64) []ThresholdPoint {
	return analysis.ThresholdCurves(r.res, t, topN, thresholds)
}

// FacilityRow is one Table-1 row.
type FacilityRow = analysis.FacilityRow

// TopFacilities reproduces Table 1 from the top-N COR relays (the paper
// uses 20, yielding 10 facilities).
func (r *Results) TopFacilities(topRelays int) []FacilityRow {
	return analysis.TopFacilities(r.res, topRelays)
}

// StabilityCV returns the fraction of recurring pairs whose per-round
// median RTT has a coefficient of variation below 10%, and the maximum CV
// (paper: ~90% below 10%, range up to 40%).
func (r *Results) StabilityCV() (fracBelow10, maxCV float64) {
	s := analysis.StabilityCV(r.res)
	return s.FracBelow10, s.MaxCV
}

// FacilityFeature pairs a facility attribute with its rank correlation to
// relay success (future-work item i).
type FacilityFeature = analysis.FacilityFeature

// FacilityFeatureAttribution ranks facility attributes by correlation
// with improvement frequency.
func (r *Results) FacilityFeatureAttribution() []FacilityFeature {
	return analysis.FacilityFeatureAttribution(r.res)
}

// RAROtherBreakdown counts improving RAR_other relays by host-network
// type (future-work item ii).
func (r *Results) RAROtherBreakdown() map[string]int {
	return analysis.RAROtherBreakdown(r.res)
}

// LandingBucket aggregates improving COR relays by distance to the
// nearest submarine-cable landing point (future-work item iii).
type LandingBucket = analysis.LandingBucket

// LandingPointProximity buckets improving COR relays by landing-point
// distance.
func (r *Results) LandingPointProximity(boundsKm []float64) []LandingBucket {
	return analysis.LandingPointProximity(r.res, boundsKm)
}

// WriteSummary renders the headline comparison against the paper.
func (r *Results) WriteSummary(w io.Writer) error { return report.Summary(w, r.stats, r.res) }

// WriteFunnel renders the COR pipeline funnel next to the paper's.
func (r *Results) WriteFunnel(w io.Writer) error { return report.Funnel(w, r.res) }

// WriteFig2CSV writes the Figure-2 CDF series.
func (r *Results) WriteFig2CSV(w io.Writer) error { return report.Fig2(w, r.stats) }

// WriteFig3CSV writes the Figure-3 coverage series up to maxN relays.
func (r *Results) WriteFig3CSV(w io.Writer, maxN int) error { return report.Fig3(w, r.res, maxN) }

// WriteFig4CSV writes the Figure-4 threshold series with the given top-N.
func (r *Results) WriteFig4CSV(w io.Writer, topN int) error { return report.Fig4(w, r.res, topN) }

// WriteTable1 renders the Table-1 facility ranking.
func (r *Results) WriteTable1(w io.Writer, topRelays int) error {
	return report.Table1(w, r.res, topRelays)
}
