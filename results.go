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
type Results struct {
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

// Pairs returns the number of (endpoint pair, round) observations with a
// valid direct measurement.
func (r *Results) Pairs() int { return len(r.res.Observations) }

// Rounds returns the number of executed rounds.
func (r *Results) Rounds() int { return len(r.res.Rounds) }

// TotalPings returns the number of pings sent.
func (r *Results) TotalPings() int64 { return r.res.TotalPings }

// ResponsiveFraction returns the share of attempted pairs that produced a
// valid direct median (paper: ~84%).
func (r *Results) ResponsiveFraction() float64 { return r.res.ResponsiveFraction() }

// RelayedPathsStudied counts the stitched overlay paths evaluated.
func (r *Results) RelayedPathsStudied() int64 { return r.res.RelayedPathsStudied() }

// ImprovedFraction returns the share of pairs improved by the best relay
// of the type (Fig. 2: COR 76%, RAR_other 58%, PLR 43%, RAR_eye 35%).
func (r *Results) ImprovedFraction(t RelayType) float64 {
	return analysis.ImprovedFraction(r.res, t)
}

// CDFPoint is one point of an improvement CDF.
type CDFPoint struct {
	ImprovementMs float64
	Fraction      float64 // of all cases with improvement <= X
}

// ImprovementCDF computes the Figure-2 CDF for the type on the given
// millisecond grid.
func (r *Results) ImprovementCDF(t RelayType, xs []float64) []CDFPoint {
	pts := analysis.ImprovementCDF(r.res, t, xs)
	out := make([]CDFPoint, len(pts))
	for i, p := range pts {
		out[i] = CDFPoint{ImprovementMs: p.X, Fraction: p.Y}
	}
	return out
}

// MedianImprovementMs returns the median gain among improved cases
// (paper: 12-14 ms for every type).
func (r *Results) MedianImprovementMs(t RelayType) float64 {
	return analysis.MedianImprovementMs(r.res, t)
}

// ImprovedOverFraction returns, among the type's improved cases, the
// share improving by more than ms (paper: >100 ms for 6% of COR cases).
func (r *Results) ImprovedOverFraction(t RelayType, ms float64) float64 {
	return analysis.ImprovedOverFraction(r.res, t, ms)
}

// TopRelayPoint is one point of the Figure-3 coverage curve.
type TopRelayPoint struct {
	N         int
	FracTotal float64
}

// TopRelayCurve computes Figure 3 for the type: fraction of all cases
// improved using only the N most frequently improving relays.
func (r *Results) TopRelayCurve(t RelayType, maxN int) []TopRelayPoint {
	pts := analysis.TopRelayCurve(r.res, t, maxN)
	out := make([]TopRelayPoint, len(pts))
	for i, p := range pts {
		out[i] = TopRelayPoint{N: p.N, FracTotal: p.FracTotal}
	}
	return out
}

// RelaysForCoverage returns how many top relays of the type reach the
// given fraction of its total coverage, and (for COR) the facilities they
// occupy (paper: 10 relays in 6 colos reach ~75%).
func (r *Results) RelaysForCoverage(t RelayType, fracOfMax float64) (int, []string) {
	return analysis.RelaysForCoverage(r.res, t, fracOfMax)
}

// ThresholdPoint is one point of the Figure-4 curves.
type ThresholdPoint struct {
	ThresholdMs float64
	TopN        float64
	All         float64
}

// ThresholdCurves computes Figure 4 for the type with the given top-N
// relay set size.
func (r *Results) ThresholdCurves(t RelayType, topN int, thresholds []float64) []ThresholdPoint {
	pts := analysis.ThresholdCurves(r.res, t, topN, thresholds)
	out := make([]ThresholdPoint, len(pts))
	for i, p := range pts {
		out[i] = ThresholdPoint{ThresholdMs: p.ThresholdMs, TopN: p.Top, All: p.All}
	}
	return out
}

// FacilityRow is one Table-1 row.
type FacilityRow struct {
	Rank        int
	Name        string
	PDBID       int
	PctImproved float64
	City        string
	CC          string
	ListedNets  int
	IXPs        int
	Cloud       bool
	PDBTop10    bool
}

// TopFacilities reproduces Table 1 from the top-N COR relays (the paper
// uses 20, yielding 10 facilities).
func (r *Results) TopFacilities(topRelays int) []FacilityRow {
	rows := analysis.TopFacilities(r.res, topRelays)
	out := make([]FacilityRow, len(rows))
	for i, row := range rows {
		out[i] = FacilityRow(row)
	}
	return out
}

// CountryChange quantifies the "Changing Countries" effect for the type
// (paper, COR: 75% improved with a third-country relay vs 50% when the
// relay shares a country with an endpoint).
func (r *Results) CountryChange(t RelayType) (diffImproved, sameImproved float64) {
	s := analysis.CountryChange(r.res, t)
	return s.DiffCountryImproved, s.SameCountryImproved
}

// IntercontinentalFraction returns the share of pairs crossing continents
// (paper: 74%).
func (r *Results) IntercontinentalFraction() float64 {
	return analysis.IntercontinentalFraction(r.res)
}

// VoIPStats is the ITU G.114 threshold analysis.
type VoIPStats struct {
	ThresholdMs float64
	DirectOver  float64
	WithCOROver float64
}

// VoIP returns the >320 ms fractions, direct vs with COR relaying
// (paper: 19% -> 11%).
func (r *Results) VoIP() VoIPStats {
	v := analysis.VoIP(r.res)
	return VoIPStats{ThresholdMs: v.ThresholdMs, DirectOver: v.DirectOver, WithCOROver: v.WithCOROver}
}

// StabilityCV returns the fraction of recurring pairs whose per-round
// median RTT has a coefficient of variation below 10%, and the maximum CV
// (paper: ~90% below 10%, range up to 40%).
func (r *Results) StabilityCV() (fracBelow10, maxCV float64) {
	s := analysis.StabilityCV(r.res)
	return s.FracBelow10, s.MaxCV
}

// SymmetryWithin5 returns the fraction of pairs whose forward and reverse
// medians differ by less than 5% (paper: ~80%).
func (r *Results) SymmetryWithin5() float64 {
	return analysis.Symmetry(r.res).FracWithin5
}

// RelayRedundancyMedian returns the median number of improving relays per
// improved pair for the type (paper: 8 COR / 3 PLR / 2 RAR).
func (r *Results) RelayRedundancyMedian(t RelayType) float64 {
	return analysis.RelayRedundancyMedian(r.res, t)
}

// PerRoundImproved returns the improved fraction per round for the type.
func (r *Results) PerRoundImproved(t RelayType) []float64 {
	return analysis.PerRoundImproved(r.res, t)
}

// FacilityFeature pairs a facility attribute with its rank correlation to
// relay success (future-work item i).
type FacilityFeature struct {
	Name        string
	Correlation float64
}

// FacilityFeatureAttribution ranks facility attributes by correlation
// with improvement frequency.
func (r *Results) FacilityFeatureAttribution() []FacilityFeature {
	fs := analysis.FacilityFeatureAttribution(r.res)
	out := make([]FacilityFeature, len(fs))
	for i, f := range fs {
		out[i] = FacilityFeature(f)
	}
	return out
}

// RAROtherBreakdown counts improving RAR_other relays by host-network
// type (future-work item ii).
func (r *Results) RAROtherBreakdown() map[string]int {
	return analysis.RAROtherBreakdown(r.res)
}

// LandingBucket aggregates improving COR relays by distance to the
// nearest submarine-cable landing point (future-work item iii).
type LandingBucket struct {
	MaxDistanceKm float64
	Relays        int
	Improvements  int
}

// LandingPointProximity buckets improving COR relays by landing-point
// distance.
func (r *Results) LandingPointProximity(boundsKm []float64) []LandingBucket {
	bs := analysis.LandingPointProximity(r.res, boundsKm)
	out := make([]LandingBucket, len(bs))
	for i, b := range bs {
		out[i] = LandingBucket(b)
	}
	return out
}

// WriteSummary renders the headline comparison against the paper.
func (r *Results) WriteSummary(w io.Writer) error { return report.Summary(w, r.res) }

// WriteFunnel renders the COR pipeline funnel next to the paper's.
func (r *Results) WriteFunnel(w io.Writer) error { return report.Funnel(w, r.res) }

// WriteFig2CSV writes the Figure-2 CDF series.
func (r *Results) WriteFig2CSV(w io.Writer) error { return report.Fig2(w, r.res) }

// WriteFig3CSV writes the Figure-3 coverage series up to maxN relays.
func (r *Results) WriteFig3CSV(w io.Writer, maxN int) error { return report.Fig3(w, r.res, maxN) }

// WriteFig4CSV writes the Figure-4 threshold series with the given top-N.
func (r *Results) WriteFig4CSV(w io.Writer, topN int) error { return report.Fig4(w, r.res, topN) }

// WriteTable1 renders the Table-1 facility ranking.
func (r *Results) WriteTable1(w io.Writer, topRelays int) error {
	return report.Table1(w, r.res, topRelays)
}
