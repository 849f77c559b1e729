package analysis

import (
	"math"
	"sync"
	"testing"

	"shortcuts/internal/measure"
	"shortcuts/internal/relays"
	"shortcuts/internal/sim"
)

var (
	anOnce sync.Once
	anRes  *measure.Results
	anErr  error
)

func testResults(t *testing.T) *measure.Results {
	t.Helper()
	anOnce.Do(func() {
		var w *sim.World
		w, anErr = sim.Build(sim.SmallWorldParams(3))
		if anErr != nil {
			return
		}
		anRes, anErr = measure.Run(w, measure.QuickConfig(3))
	})
	if anErr != nil {
		t.Fatal(anErr)
	}
	return anRes
}

func allTypes() []relays.Type {
	return []relays.Type{relays.COR, relays.PLR, relays.RAREye, relays.RAROther}
}

func TestImprovedFractionBounds(t *testing.T) {
	res := testResults(t)
	for _, ty := range allTypes() {
		f := ImprovedFraction(res, ty)
		if f < 0 || f > 1 {
			t.Fatalf("%v improved fraction %v out of [0,1]", ty, f)
		}
	}
	if ImprovedFraction(&measure.Results{}, relays.COR) != 0 {
		t.Fatal("empty results should yield 0")
	}
}

func TestCDFMonotoneAndAnchored(t *testing.T) {
	res := testResults(t)
	xs := []float64{0, 1, 5, 10, 20, 50, 100, 200, 1e9}
	for _, ty := range allTypes() {
		pts := ImprovementCDF(res, ty, xs)
		for i := 1; i < len(pts); i++ {
			if pts[i].Y < pts[i-1].Y {
				t.Fatalf("%v CDF decreasing at %v", ty, pts[i].X)
			}
		}
		if last := pts[len(pts)-1].Y; math.Abs(last-1) > 1e-9 {
			t.Fatalf("%v CDF does not reach 1: %v", ty, last)
		}
		// CDF at zero equals the non-improved fraction.
		want := 1 - ImprovedFraction(res, ty)
		if math.Abs(pts[0].Y-want) > 1e-9 {
			t.Fatalf("%v CDF(0) = %v, want %v", ty, pts[0].Y, want)
		}
	}
}

func TestMedianImprovementPositive(t *testing.T) {
	res := testResults(t)
	for _, ty := range allTypes() {
		if ImprovedFraction(res, ty) == 0 {
			continue
		}
		if med := MedianImprovementMs(res, ty); med <= 0 {
			t.Fatalf("%v median improvement %v, want > 0", ty, med)
		}
	}
}

func TestImprovedOverFractionMonotone(t *testing.T) {
	res := testResults(t)
	for _, ty := range allTypes() {
		prev := 1.1
		for _, ms := range []float64{0, 10, 50, 100, 500} {
			f := ImprovedOverFraction(res, ty, ms)
			if f > prev {
				t.Fatalf("%v over-fraction increases with threshold", ty)
			}
			prev = f
		}
	}
}

func TestRankRelaysSorted(t *testing.T) {
	res := testResults(t)
	for _, ty := range allTypes() {
		ranking := RankRelays(res, ty)
		for i := 1; i < len(ranking); i++ {
			if ranking[i].Count > ranking[i-1].Count {
				t.Fatalf("%v ranking not sorted", ty)
			}
		}
		for _, rr := range ranking {
			if res.World.Catalog.Type(rr.Relay) != ty {
				t.Fatalf("ranking for %v contains foreign relay", ty)
			}
			if rr.Count <= 0 {
				t.Fatalf("ranked relay with zero improvements")
			}
		}
	}
}

func TestTopRelayCurveProperties(t *testing.T) {
	res := testResults(t)
	for _, ty := range allTypes() {
		curve := TopRelayCurve(res, ty, 50)
		prev := 0.0
		for _, p := range curve {
			if p.FracTotal < prev {
				t.Fatalf("%v coverage curve decreasing at N=%d", ty, p.N)
			}
			prev = p.FracTotal
		}
		// Full curve tops out at the improved fraction.
		full := TopRelayCurve(res, ty, len(RankRelays(res, ty)))
		if len(full) > 0 {
			top := full[len(full)-1].FracTotal
			want := ImprovedFraction(res, ty)
			if math.Abs(top-want) > 1e-9 {
				t.Fatalf("%v full coverage %v != improved fraction %v", ty, top, want)
			}
		}
	}
}

func TestThresholdCurvesProperties(t *testing.T) {
	res := testResults(t)
	ths := []float64{0, 10, 20, 50, 100}
	for _, ty := range allTypes() {
		pts := ThresholdCurves(res, ty, 10, ths)
		for i, p := range pts {
			if p.Top > p.All+1e-9 {
				t.Fatalf("%v top-10 coverage exceeds all-relays at %v ms", ty, p.ThresholdMs)
			}
			if i > 0 && (p.Top > pts[i-1].Top || p.All > pts[i-1].All) {
				t.Fatalf("%v threshold curve increasing at %v ms", ty, p.ThresholdMs)
			}
		}
		// At threshold zero, "all" equals the improved fraction.
		if math.Abs(pts[0].All-ImprovedFraction(res, ty)) > 1e-9 {
			t.Fatalf("%v All(0) = %v != improved fraction", ty, pts[0].All)
		}
	}
}

func TestTopFacilitiesRows(t *testing.T) {
	res := testResults(t)
	rows := TopFacilities(res, 20)
	if len(rows) == 0 {
		t.Fatal("no facility rows")
	}
	for i, r := range rows {
		if r.Rank != i+1 {
			t.Fatalf("row %d has rank %d", i, r.Rank)
		}
		if r.PctImproved <= 0 || r.PctImproved > 1 {
			t.Fatalf("row %s has pct %v", r.Name, r.PctImproved)
		}
		if i > 0 && r.PctImproved > rows[i-1].PctImproved {
			t.Fatal("rows not sorted by improvement share")
		}
		if r.Name == "" || r.City == "" {
			t.Fatalf("row %d missing attribution", i)
		}
	}
}

func TestCountryChangeCounts(t *testing.T) {
	res := testResults(t)
	s := CountryChange(res, relays.COR)
	withBest := 0
	for i := range res.Observations {
		if res.Observations[i].BestRelay[relays.COR] >= 0 {
			withBest++
		}
	}
	if s.DiffCount+s.SameCount != withBest {
		t.Fatalf("country-change partitions %d cases, want %d", s.DiffCount+s.SameCount, withBest)
	}
}

func TestVoIPBounds(t *testing.T) {
	res := testResults(t)
	v := VoIP(res)
	if v.WithCOROver > v.DirectOver {
		t.Fatalf("COR relaying increased the >320ms fraction: %v -> %v", v.DirectOver, v.WithCOROver)
	}
	if v.PairsConsidered != len(res.Observations) {
		t.Fatalf("VoIP considered %d pairs, want %d", v.PairsConsidered, len(res.Observations))
	}
}

func TestStabilityCVBounds(t *testing.T) {
	res := testResults(t)
	s := StabilityCV(res)
	if s.FracBelow10 < 0 || s.FracBelow10 > 1 {
		t.Fatalf("FracBelow10 = %v", s.FracBelow10)
	}
	if s.MaxCV < 0 {
		t.Fatalf("MaxCV = %v", s.MaxCV)
	}
}

func TestSymmetryBounds(t *testing.T) {
	res := testResults(t)
	s := Symmetry(res)
	if s.Pairs == 0 {
		t.Fatal("no pairs with both directions")
	}
	if s.FracWithin5 < 0.3 {
		t.Fatalf("FracWithin5 = %v, suspiciously asymmetric", s.FracWithin5)
	}
}

func TestRedundancyCountsImprovingOnly(t *testing.T) {
	res := testResults(t)
	for _, ty := range allTypes() {
		med := RelayRedundancyMedian(res, ty)
		if ImprovedFraction(res, ty) > 0 && med < 1 {
			t.Fatalf("%v redundancy median %v below 1 despite improvements", ty, med)
		}
	}
}

func TestPerRoundImprovedLength(t *testing.T) {
	res := testResults(t)
	perRound := PerRoundImproved(res, relays.COR)
	if len(perRound) != len(res.Rounds) {
		t.Fatalf("per-round series has %d entries, want %d", len(perRound), len(res.Rounds))
	}
	for r, f := range perRound {
		if f < 0 || f > 1 {
			t.Fatalf("round %d fraction %v", r, f)
		}
	}
}

func TestFacilityFeatureAttribution(t *testing.T) {
	res := testResults(t)
	feats := FacilityFeatureAttribution(res)
	if len(feats) != 3 {
		t.Fatalf("features = %d, want 3", len(feats))
	}
	for _, f := range feats {
		if f.Correlation < -1.0001 || f.Correlation > 1.0001 {
			t.Fatalf("feature %s correlation %v out of [-1,1]", f.Name, f.Correlation)
		}
	}
}

func TestRAROtherBreakdownHostsAreNotEyeballs(t *testing.T) {
	res := testResults(t)
	for host, n := range RAROtherBreakdown(res) {
		if host == "eyeball" {
			t.Fatal("RAR_other breakdown contains eyeball hosts")
		}
		if n <= 0 {
			t.Fatalf("host %s has non-positive count", host)
		}
	}
}

func TestLandingPointBuckets(t *testing.T) {
	res := testResults(t)
	buckets := LandingPointProximity(res, []float64{100, 500, 2000})
	if len(buckets) != 4 {
		t.Fatalf("buckets = %d, want 4", len(buckets))
	}
	totalRelays := 0
	for _, b := range buckets {
		totalRelays += b.Relays
	}
	// Every improving COR relay lands in exactly one bucket.
	seen := make(map[int32]bool)
	for i := range res.Observations {
		for _, e := range res.Observations[i].Improving {
			if res.World.Catalog.Type(int(e.Relay)) == relays.COR {
				seen[e.Relay] = true
			}
		}
	}
	if totalRelays != len(seen) {
		t.Fatalf("buckets hold %d relays, want %d", totalRelays, len(seen))
	}
}

func TestSpearmanKnownValues(t *testing.T) {
	perfect := spearman([]float64{1, 2, 3, 4}, []float64{10, 20, 30, 40})
	if math.Abs(perfect-1) > 1e-9 {
		t.Fatalf("perfect correlation = %v", perfect)
	}
	inverse := spearman([]float64{1, 2, 3, 4}, []float64{40, 30, 20, 10})
	if math.Abs(inverse+1) > 1e-9 {
		t.Fatalf("inverse correlation = %v", inverse)
	}
	if got := spearman([]float64{1}, []float64{2}); got != 0 {
		t.Fatalf("degenerate input correlation = %v", got)
	}
}
