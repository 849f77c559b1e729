package analysis

import (
	"math"
	"testing"

	"shortcuts/internal/measure"
	"shortcuts/internal/relays"
)

// emptyResults returns a Results over a real world with zero executed
// rounds and zero observations — what a crashed or not-yet-run campaign
// hands the analysis layer.
func emptyResults(t *testing.T) *measure.Results {
	t.Helper()
	full := testResults(t)
	return measure.NewResults(full.Config, full.World)
}

// singleRoundResults runs a one-round campaign: the smallest legal
// campaign, with no cross-round series to lean on.
func singleRoundResults(t *testing.T) *measure.Results {
	t.Helper()
	full := testResults(t)
	res, err := measure.Run(full.World, measure.QuickConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func checkFinite(t *testing.T, label string, v float64) {
	t.Helper()
	if math.IsNaN(v) || math.IsInf(v, 0) {
		t.Fatalf("%s = %v, want finite", label, v)
	}
}

// TestEmptyResultsAllAnalyses drives every analysis entry point over an
// empty Results: no panics, no NaN/Inf, zero-valued aggregates.
func TestEmptyResultsAllAnalyses(t *testing.T) {
	res := emptyResults(t)
	st := res.Stats()
	xs := []float64{0, 10, 100}
	for _, ty := range allTypes() {
		if f := st.ImprovedFraction(ty); f != 0 {
			t.Errorf("%v: ImprovedFraction = %v on empty results", ty, f)
		}
		for _, p := range st.ImprovementCDF(ty, xs) {
			checkFinite(t, "ImprovementCDF.Fraction", p.Fraction)
			if p.Fraction != 0 {
				t.Errorf("%v: CDF(%v) = %v on empty results, want 0", ty, p.ImprovementMs, p.Fraction)
			}
		}
		checkFinite(t, "MedianImprovementMs", st.MedianImprovementMs(ty))
		if f := st.ImprovedOverFraction(ty, 50); f != 0 {
			t.Errorf("%v: ImprovedOverFraction = %v on empty results", ty, f)
		}
		if r := RankRelays(res, ty); len(r) != 0 {
			t.Errorf("%v: RankRelays returned %d entries on empty results", ty, len(r))
		}
		if c := TopRelayCurve(res, ty, 10); len(c) != 0 {
			t.Errorf("%v: TopRelayCurve returned %d points on empty results", ty, len(c))
		}
		n, facs := RelaysForCoverage(res, ty, 0.75)
		if n != 0 || len(facs) != 0 {
			t.Errorf("%v: RelaysForCoverage = (%d, %v) on empty results", ty, n, facs)
		}
		for _, p := range ThresholdCurves(res, ty, 10, xs) {
			checkFinite(t, "ThresholdCurves.TopN", p.TopN)
			checkFinite(t, "ThresholdCurves.All", p.All)
		}
		checkFinite(t, "RelayRedundancyMedian", st.RelayRedundancyMedian(ty))
	}

	if rows := TopFacilities(res, 20); len(rows) != 0 {
		t.Errorf("TopFacilities returned %d rows on empty results", len(rows))
	}
	for _, f := range FacilityFeatureAttribution(res) {
		checkFinite(t, "FacilityFeatureAttribution."+f.Name, f.Correlation)
	}
	checkFinite(t, "IntercontinentalFraction", st.IntercontinentalFraction())
	v := st.VoIP()
	checkFinite(t, "VoIP.DirectOver", v.DirectOver)
	checkFinite(t, "VoIP.WithCOROver", v.WithCOROver)
	if st.Pairs() != 0 {
		t.Errorf("VoIP considered %d pairs on empty results", st.Pairs())
	}
	cv := StabilityCV(res)
	if cv.Pairs != 0 || cv.FracBelow10 != 0 {
		t.Errorf("StabilityCV = %+v on empty results", cv)
	}
	if sym := st.SymmetryWithin5(); sym != 0 {
		t.Errorf("SymmetryWithin5 = %v on empty results", sym)
	}
	diff, same := st.CountryChange(relays.COR)
	checkFinite(t, "CountryChange.Diff", diff)
	checkFinite(t, "CountryChange.Same", same)
	for _, b := range LandingPointProximity(res, []float64{100, 500}) {
		if b.Improvements != 0 {
			t.Errorf("LandingPointProximity bucket %v has %d improvements on empty results",
				b.MaxDistanceKm, b.Improvements)
		}
	}
	if n := st.PerRoundImproved(relays.COR); len(n) != 0 {
		t.Errorf("PerRoundImproved returned %d rounds on empty results", len(n))
	}
}

// TestSingleRoundResultsAllAnalyses drives the analyses over a
// one-round campaign: every fraction must stay finite and in range
// without cross-round series.
func TestSingleRoundResultsAllAnalyses(t *testing.T) {
	res := singleRoundResults(t)
	if len(res.Rounds) != 1 {
		t.Fatalf("expected 1 round, got %d", len(res.Rounds))
	}
	st := res.Stats()
	xs := []float64{0, 10, 100}
	for _, ty := range allTypes() {
		f := st.ImprovedFraction(ty)
		checkFinite(t, "ImprovedFraction", f)
		if f < 0 || f > 1 {
			t.Errorf("%v: ImprovedFraction = %v out of [0,1]", ty, f)
		}
		prev := -1.0
		for _, p := range st.ImprovementCDF(ty, xs) {
			checkFinite(t, "CDF.Fraction", p.Fraction)
			if p.Fraction < prev {
				t.Errorf("%v: single-round CDF not monotone", ty)
			}
			prev = p.Fraction
		}
		for _, p := range ThresholdCurves(res, ty, 10, xs) {
			if p.TopN < 0 || p.TopN > 1 || p.All < 0 || p.All > 1 {
				t.Errorf("%v: threshold point out of range: %+v", ty, p)
			}
		}
	}
	cv := StabilityCV(res)
	checkFinite(t, "StabilityCV.FracBelow10", cv.FracBelow10)
	if rounds := st.PerRoundImproved(relays.COR); len(rounds) != 1 {
		t.Errorf("PerRoundImproved = %d entries for a 1-round campaign", len(rounds))
	}
	if bothWays(res) == 0 {
		t.Error("single-round campaign yielded no symmetric pairs")
	}
}
