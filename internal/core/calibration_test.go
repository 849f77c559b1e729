package core

import (
	"sync"
	"testing"

	"shortcuts/internal/analysis"
	"shortcuts/internal/measure"
	"shortcuts/internal/relays"
	"shortcuts/internal/sim"
)

// The calibration suite is the contract between the synthetic substrate
// and the paper: on the default seed, a short campaign must reproduce the
// orderings and bands of the headline results. Absolute equality with the
// paper is out of scope (the substrate is a simulator); the assertions
// below encode the shapes EXPERIMENTS.md reports against.

var (
	calOnce sync.Once
	calRes  *measure.Results
	calErr  error
)

func calibrationResults(t *testing.T) *measure.Results {
	t.Helper()
	calOnce.Do(func() {
		w, err := sim.Build(sim.DefaultWorldParams(1))
		if err != nil {
			calErr = err
			return
		}
		calRes, calErr = measure.Run(w, measure.QuickConfig(4))
	})
	if calErr != nil {
		t.Fatal(calErr)
	}
	return calRes
}

func TestImprovedFractionOrdering(t *testing.T) {
	st := calibrationResults(t).Stats()
	cor := st.ImprovedFraction(relays.COR)
	other := st.ImprovedFraction(relays.RAROther)
	plr := st.ImprovedFraction(relays.PLR)
	eye := st.ImprovedFraction(relays.RAREye)
	t.Logf("improved: COR %.2f RAR_other %.2f PLR %.2f RAR_eye %.2f", cor, other, plr, eye)
	if !(cor > other && other > plr && plr >= eye-0.03) {
		t.Fatalf("ordering broken: COR %.2f, RAR_other %.2f, PLR %.2f, RAR_eye %.2f",
			cor, other, plr, eye)
	}
}

func TestImprovedFractionBands(t *testing.T) {
	st := calibrationResults(t).Stats()
	cases := []struct {
		t        relays.Type
		lo, hi   float64
		paperPct float64
	}{
		{relays.COR, 0.68, 0.88, 76},
		{relays.RAROther, 0.45, 0.68, 58},
		{relays.PLR, 0.25, 0.50, 43},
		{relays.RAREye, 0.22, 0.45, 35},
	}
	for _, c := range cases {
		got := st.ImprovedFraction(c.t)
		if got < c.lo || got > c.hi {
			t.Errorf("%v improved fraction = %.2f, want [%.2f, %.2f] (paper %.0f%%)",
				c.t, got, c.lo, c.hi, c.paperPct)
		}
	}
}

func TestMedianImprovementBand(t *testing.T) {
	st := calibrationResults(t).Stats()
	for _, ty := range []relays.Type{relays.COR, relays.PLR, relays.RAREye, relays.RAROther} {
		med := st.MedianImprovementMs(ty)
		// Paper: 12-14 ms; accept the same order of magnitude.
		if med < 5 || med > 40 {
			t.Errorf("%v median improvement = %.1f ms, want 5-40 (paper 12-14)", ty, med)
		}
	}
}

func TestCORHeavyHitters(t *testing.T) {
	// Figure 3: a handful of COR relays covers most of COR's improved
	// cases, while RAR types need far more relays.
	res := calibrationResults(t)
	corCurve := analysis.TopRelayCurve(res, relays.COR, 100)
	corAll := corCurve[len(corCurve)-1].FracTotal
	corTen := corCurve[9].FracTotal
	if corTen < 0.55*corAll {
		t.Errorf("top-10 COR cover %.2f of %.2f total; paper's heavy hitters reach ~75%%",
			corTen, corAll)
	}
	n, facs := analysis.RelaysForCoverage(res, relays.COR, 0.75)
	t.Logf("75%% of COR coverage needs %d relays in %d facilities (paper: 10 relays, 6 colos)", n, len(facs))
	if n > 40 {
		t.Errorf("%d relays needed for 75%% of COR coverage, paper needs ~10", n)
	}
	otherCurve := analysis.TopRelayCurve(res, relays.RAROther, 100)
	otherTen := otherCurve[9].FracTotal
	otherAll := res.Stats().ImprovedFraction(relays.RAROther)
	if otherTen > 0.9*otherAll {
		t.Errorf("top-10 RAR_other covers %.2f of %.2f: should need many more relays", otherTen, otherAll)
	}
}

func TestVoIPShape(t *testing.T) {
	st := calibrationResults(t).Stats()
	v := st.VoIP()
	t.Logf("VoIP >320ms: direct %.2f -> with COR %.2f (paper 0.19 -> 0.11)", v.DirectOver, v.WithCOROver)
	if v.DirectOver < 0.08 || v.DirectOver > 0.30 {
		t.Errorf("direct >320ms = %.2f, want ~0.19", v.DirectOver)
	}
	if v.WithCOROver >= v.DirectOver {
		t.Errorf("COR relaying did not reduce the >320ms fraction: %.2f -> %.2f",
			v.DirectOver, v.WithCOROver)
	}
	if v.WithCOROver > 0.2 {
		t.Errorf("with COR >320ms = %.2f, want ~0.11", v.WithCOROver)
	}
}

func TestIntercontinentalShape(t *testing.T) {
	st := calibrationResults(t).Stats()
	frac := st.IntercontinentalFraction()
	if frac < 0.6 || frac > 0.85 {
		t.Errorf("intercontinental fraction = %.2f, want ~0.74", frac)
	}
}

func TestCountryChangeShape(t *testing.T) {
	res := calibrationResults(t)
	diff, same := res.Stats().CountryChange(relays.COR)
	// The group sizes, for the log and the empty-group guard.
	var nDiff, nSame int
	for i := range res.Observations {
		o := &res.Observations[i]
		if ri := o.BestRelay[relays.COR]; ri >= 0 {
			if cc := res.World.Catalog.CC(int(ri)); cc != o.SrcCC && cc != o.DstCC {
				nDiff++
			} else {
				nSame++
			}
		}
	}
	t.Logf("COR country change: diff %.2f (n=%d) vs same %.2f (n=%d) (paper 0.75 vs 0.50)",
		diff, nDiff, same, nSame)
	if nDiff == 0 || nSame == 0 {
		t.Skip("one of the groups is empty under this seed")
	}
	if diff <= same {
		t.Errorf("different-country relays (%.2f) should outperform same-country (%.2f)",
			diff, same)
	}
}

func TestSymmetryShape(t *testing.T) {
	st := calibrationResults(t).Stats()
	if within := st.SymmetryWithin5(); within < 0.6 {
		t.Errorf("only %.2f of pairs within 5%% across directions, paper ~0.80", within)
	}
}

func TestStabilityShape(t *testing.T) {
	res := calibrationResults(t)
	s := analysis.StabilityCV(res)
	t.Logf("CV: %d pairs, %.2f below 10%%, max %.2f (paper: 0.90 below, max 0.40)", s.Pairs, s.FracBelow10, s.MaxCV)
	if s.Pairs < 50 {
		t.Skip("too few recurring pairs in a short campaign")
	}
	if s.FracBelow10 < 0.6 {
		t.Errorf("only %.2f of recurring pairs have CV < 10%%, paper ~0.90", s.FracBelow10)
	}
	perRound := res.Stats().PerRoundImproved(relays.COR)
	for r, f := range perRound {
		if f < 0.60 {
			t.Errorf("round %d COR improved fraction %.2f; paper stays above ~0.75", r, f)
		}
	}
}

func TestRedundancyShape(t *testing.T) {
	st := calibrationResults(t).Stats()
	cor := st.RelayRedundancyMedian(relays.COR)
	eye := st.RelayRedundancyMedian(relays.RAREye)
	t.Logf("redundancy: COR %.0f, RAR_eye %.0f (paper 8 vs 2)", cor, eye)
	if cor <= eye {
		t.Errorf("COR redundancy (%.0f) should exceed RAR_eye (%.0f)", cor, eye)
	}
}

func TestTopFacilitiesShape(t *testing.T) {
	// Paper Table 1: the facilities hosting the top COR relays are the
	// major interconnection hubs, IXP-rich and network-dense. A 4-round
	// campaign leaves the tail of the top-20 ranking tied at one or two
	// improvement events (pure draw noise), so the per-row assertions
	// bind on the head of the ranking: the top half carries the paper's
	// shape, the tail only the coarse hub fraction.
	res := calibrationResults(t)
	rows := analysis.TopFacilities(res, 20)
	if len(rows) < 5 || len(rows) > 20 {
		t.Fatalf("top-20 relays collapse into %d facilities; paper: 10", len(rows))
	}
	hubCities := map[string]bool{
		"London": true, "Amsterdam": true, "Frankfurt": true, "Paris": true,
		"New York": true, "Ashburn": true, "Atlanta": true, "Chicago": true,
		"Miami": true, "Dallas": true, "Los Angeles": true, "San Jose": true,
		"Singapore": true, "Hong Kong": true, "Tokyo": true, "Brussels": true,
		"Hamburg": true, "Vienna": true, "Zurich": true, "Milan": true,
		"Stockholm": true,
	}
	inHubs := 0
	for i, r := range rows {
		if hubCities[r.City] {
			inHubs++
		}
		// Table-1 depth: the paper lists 10 facilities, all with IXP
		// presence. Below that the ranking is tie-break noise.
		if i < 10 && r.IXPs < 1 {
			t.Errorf("top-10 facility %s has no IXPs", r.Name)
		}
	}
	t.Logf("top facilities: %d rows, %d in hubs", len(rows), inHubs)
	if float64(inHubs) < 0.6*float64(len(rows)) {
		t.Errorf("only %d/%d top facilities in major hubs", inHubs, len(rows))
	}
	// The head of the ranking must be hub-dominated outright.
	headHubs := 0
	for _, r := range rows[:5] {
		if hubCities[r.City] {
			headHubs++
		}
	}
	if headHubs < 3 {
		t.Errorf("only %d/5 of the leading facilities in major hubs", headHubs)
	}
}

func TestCampaignScaleMatchesPaper(t *testing.T) {
	res := calibrationResults(t)
	// Paper: ~8.7M pings over 45 rounds -> ~190k/round; ~90K direct pairs
	// -> ~2k usable/round; ~29M relayed paths -> ~640k/round.
	perRound := res.TotalPings / int64(len(res.Rounds))
	if perRound < 80_000 || perRound > 400_000 {
		t.Errorf("pings per round = %d, want ~190k", perRound)
	}
	rf := res.Stats().ResponsiveFraction()
	if rf < 0.75 || rf > 0.92 {
		t.Errorf("responsive fraction = %.2f, want ~0.84", rf)
	}
	relayed := res.RelayedPathsStudied() / int64(len(res.Rounds))
	if relayed < 150_000 || relayed > 1_500_000 {
		t.Errorf("relayed paths per round = %d, want ~640k", relayed)
	}
}
