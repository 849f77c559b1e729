package shortcuts

import (
	"bytes"
	"reflect"
	"strings"
	"sync"
	"testing"
)

var (
	apiOnce sync.Once
	apiCamp *Campaign
	apiRes  *Results
	apiErr  error
)

func apiResults(t *testing.T) (*Campaign, *Results) {
	t.Helper()
	apiOnce.Do(func() {
		apiCamp, apiErr = NewCampaign(Config{Seed: 1, Rounds: 2, SmallWorld: true})
		if apiErr != nil {
			return
		}
		apiRes, apiErr = apiCamp.Run()
	})
	if apiErr != nil {
		t.Fatal(apiErr)
	}
	return apiCamp, apiRes
}

func TestNewCampaignValidatesConfig(t *testing.T) {
	if _, err := NewCampaign(Config{Seed: 1, Rounds: 0}); err == nil {
		t.Fatal("zero rounds accepted")
	}
}

// TestConfigValidate is the one table of config rules. Every verdict
// holds for Validate and for NewCampaignWith over a built world; the
// selections that name no single world fail BuildWorld too, before any
// build.
func TestConfigValidate(t *testing.T) {
	cases := []struct {
		name    string
		cfg     Config
		wantErr string // substring; "" = valid
		noWorld bool   // BuildWorld rejects it as well
	}{
		{"defaults", Config{Rounds: 45}, "", false},
		{"sampled sweep", Config{Rounds: 8, PairBudget: 5000}, "", false},
		{"scale with budget", Config{Rounds: 4, PairBudget: 4096, ScaleEndpoints: 100_000}, "", false},
		{"zero rounds", Config{Rounds: 0}, "Rounds", false},
		{"negative rounds", Config{Rounds: -3}, "Rounds", false},
		{"negative pair budget", Config{Rounds: 45, PairBudget: -1}, "PairBudget", false},
		{"negative scale", Config{Rounds: 45, ScaleEndpoints: -1}, "ScaleEndpoints", true},
		{"scale conflicts with small", Config{Rounds: 4, PairBudget: 4096, ScaleEndpoints: 100_000, SmallWorld: true}, "SmallWorld", true},
		{"scale without budget", Config{Rounds: 4, ScaleEndpoints: 100_000}, "requires PairBudget", false},
		// Each of these once passed NewCampaignWith or BuildWorld: an
		// exhaustive 100k-endpoint round (~41 GB of direct medians), a
		// negative scale that measured the default world, and a small
		// world that built the scale world.
		{"exhaustive scale", Config{Rounds: 2, ScaleEndpoints: 100_000}, "requires PairBudget", false},
		{"scale -5", Config{Rounds: 2, ScaleEndpoints: -5}, "ScaleEndpoints", true},
		{"small and scale", Config{Rounds: 2, SmallWorld: true, ScaleEndpoints: 5000}, "SmallWorld", true},
	}
	camp, _ := apiResults(t)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			check := func(what string, err error) {
				t.Helper()
				if tc.wantErr == "" {
					if err != nil {
						t.Fatalf("%s: unexpected error: %v", what, err)
					}
					return
				}
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("%s: error %v, want one mentioning %q", what, err, tc.wantErr)
				}
			}
			check("Validate", tc.cfg.Validate())
			_, err := NewCampaignWith(camp.World(), tc.cfg)
			check("NewCampaignWith", err)
			if tc.noWorld {
				_, err := BuildWorld(tc.cfg)
				check("BuildWorld", err)
			}
		})
	}
}

func TestRunProducesResults(t *testing.T) {
	_, res := apiResults(t)
	if res.Pairs() == 0 || res.Rounds() != 2 || res.TotalPings() == 0 {
		t.Fatalf("results empty: pairs=%d rounds=%d pings=%d",
			res.Pairs(), res.Rounds(), res.TotalPings())
	}
}

func TestRelayTypeOrderAndStrings(t *testing.T) {
	want := []string{"COR", "PLR", "RAR_other", "RAR_eye"}
	for i, ty := range RelayTypes() {
		if ty.String() != want[i] {
			t.Fatalf("RelayTypes()[%d] = %s, want %s", i, ty, want[i])
		}
	}
}

func TestImprovedFractionsSane(t *testing.T) {
	_, res := apiResults(t)
	for _, ty := range RelayTypes() {
		f := res.ImprovedFraction(ty)
		if f < 0 || f > 1 {
			t.Fatalf("%v fraction %v", ty, f)
		}
	}
	// Even in the small world, colo relays should be competitive.
	if res.ImprovedFraction(COR) < res.ImprovedFraction(RAREye) {
		t.Fatal("COR underperforms RAR_eye in the small world")
	}
}

func TestFunnelExposed(t *testing.T) {
	c, _ := apiResults(t)
	f := c.Funnel()
	if f.Initial == 0 || f.Geolocated == 0 || f.Geolocated > f.Initial {
		t.Fatalf("funnel malformed: %+v", f)
	}
}

func TestEyeballCutoffCurve(t *testing.T) {
	c, _ := apiResults(t)
	pts := c.EyeballCutoffCurve([]float64{0, 10, 50})
	if len(pts) != 3 {
		t.Fatalf("curve has %d points", len(pts))
	}
	if pts[0].ASes < pts[1].ASes || pts[1].ASes < pts[2].ASes {
		t.Fatal("curve not non-increasing")
	}
}

func TestCDFAndCurvesExposed(t *testing.T) {
	_, res := apiResults(t)
	cdf := res.ImprovementCDF(COR, []float64{0, 10, 100})
	if len(cdf) != 3 || cdf[2].Fraction < cdf[0].Fraction {
		t.Fatalf("cdf malformed: %+v", cdf)
	}
	curve := res.TopRelayCurve(COR, 10)
	for i := 1; i < len(curve); i++ {
		if curve[i].FracTotal < curve[i-1].FracTotal {
			t.Fatal("top relay curve decreasing")
		}
	}
	ths := res.ThresholdCurves(COR, 5, []float64{0, 20})
	if len(ths) != 2 || ths[0].TopN > ths[0].All {
		t.Fatalf("threshold curves malformed: %+v", ths)
	}
}

func TestTable1Exposed(t *testing.T) {
	_, res := apiResults(t)
	rows := res.TopFacilities(20)
	if len(rows) == 0 {
		t.Fatal("no facilities")
	}
	var buf bytes.Buffer
	if err := res.WriteTable1(&buf, 20); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), rows[0].Name) {
		t.Fatal("rendered table missing the top facility")
	}
}

// TestNegativeCountsActAsZero pins every count-taking Results method to
// its zero-count result for a negative count, instead of a panic.
func TestNegativeCountsActAsZero(t *testing.T) {
	_, res := apiResults(t)
	ths := []float64{0, 20}
	write := func(f func(w *bytes.Buffer) error) string {
		var buf bytes.Buffer
		if err := f(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	cases := []struct {
		name string
		call func(n int) any
	}{
		{"TopFacilities", func(n int) any { return res.TopFacilities(n) }},
		{"TopRelayCurve", func(n int) any { return res.TopRelayCurve(COR, n) }},
		{"ThresholdCurves", func(n int) any { return res.ThresholdCurves(COR, n, ths) }},
		{"WriteTable1", func(n int) any {
			return write(func(w *bytes.Buffer) error { return res.WriteTable1(w, n) })
		}},
		{"WriteFig3CSV", func(n int) any {
			return write(func(w *bytes.Buffer) error { return res.WriteFig3CSV(w, n) })
		}},
		{"WriteFig4CSV", func(n int) any {
			return write(func(w *bytes.Buffer) error { return res.WriteFig4CSV(w, n) })
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got, want := tc.call(-1), tc.call(0); !reflect.DeepEqual(got, want) {
				t.Fatalf("count -1 gave %v, want the count-0 result %v", got, want)
			}
		})
	}
}

func TestWritersProduceOutput(t *testing.T) {
	c, res := apiResults(t)
	writers := []func(*bytes.Buffer) error{
		func(b *bytes.Buffer) error { return res.WriteSummary(b) },
		func(b *bytes.Buffer) error { return res.WriteFunnel(b) },
		func(b *bytes.Buffer) error { return res.WriteFig2CSV(b) },
		func(b *bytes.Buffer) error { return res.WriteFig3CSV(b, 20) },
		func(b *bytes.Buffer) error { return res.WriteFig4CSV(b, 10) },
		func(b *bytes.Buffer) error { return c.WriteFig1CSV(b) },
	}
	for i, w := range writers {
		var buf bytes.Buffer
		if err := w(&buf); err != nil {
			t.Fatalf("writer %d: %v", i, err)
		}
		if buf.Len() == 0 {
			t.Fatalf("writer %d produced no output", i)
		}
	}
}

func TestObservationsBetween(t *testing.T) {
	_, res := apiResults(t)
	ccs := res.Countries()
	if len(ccs) < 2 {
		t.Fatal("fewer than two countries observed")
	}
	found := false
	for i := 0; i < len(ccs) && !found; i++ {
		for j := i + 1; j < len(ccs) && !found; j++ {
			obs := res.ObservationsBetween(ccs[i], ccs[j])
			if len(obs) == 0 {
				continue
			}
			found = true
			for k := 1; k < len(obs); k++ {
				if obs[k].ImprovementMs > obs[k-1].ImprovementMs {
					t.Fatal("observations not sorted by improvement")
				}
			}
			// Order-insensitivity.
			rev := res.ObservationsBetween(ccs[j], ccs[i])
			if len(rev) != len(obs) {
				t.Fatal("ObservationsBetween not symmetric")
			}
		}
	}
	if !found {
		t.Fatal("no corridor with observations")
	}
	if got := res.ObservationsBetween("ZZ", "XX"); len(got) != 0 {
		t.Fatal("unknown corridor returned observations")
	}
}

func TestAggregateStatsExposed(t *testing.T) {
	_, res := apiResults(t)
	if f := res.ResponsiveFraction(); f <= 0 || f > 1 {
		t.Fatalf("responsive fraction %v", f)
	}
	v := res.VoIP()
	if v.WithCOROver > v.DirectOver {
		t.Fatal("VoIP fraction increased with COR")
	}
	if f := res.IntercontinentalFraction(); f <= 0 || f > 1 {
		t.Fatalf("intercontinental %v", f)
	}
	if s := res.SymmetryWithin5(); s <= 0 || s > 1 {
		t.Fatalf("symmetry %v", s)
	}
	below, max := res.StabilityCV()
	if below < 0 || below > 1 || max < 0 {
		t.Fatalf("stability %v %v", below, max)
	}
	if res.RelayedPathsStudied() <= 0 {
		t.Fatal("no relayed paths")
	}
	if feats := res.FacilityFeatureAttribution(); len(feats) != 3 {
		t.Fatalf("features %d", len(feats))
	}
	if buckets := res.LandingPointProximity([]float64{500}); len(buckets) != 2 {
		t.Fatalf("buckets %d", len(buckets))
	}
}

func TestDeterministicAcrossCampaigns(t *testing.T) {
	c1, err := NewCampaign(Config{Seed: 9, Rounds: 1, SmallWorld: true})
	if err != nil {
		t.Fatal(err)
	}
	c2, err := NewCampaign(Config{Seed: 9, Rounds: 1, SmallWorld: true})
	if err != nil {
		t.Fatal(err)
	}
	r1, err := c1.Run()
	if err != nil {
		t.Fatal(err)
	}
	r2, err := c2.Run()
	if err != nil {
		t.Fatal(err)
	}
	if r1.Pairs() != r2.Pairs() || r1.TotalPings() != r2.TotalPings() {
		t.Fatalf("same-seed campaigns differ: %d/%d pairs, %d/%d pings",
			r1.Pairs(), r2.Pairs(), r1.TotalPings(), r2.TotalPings())
	}
	for _, ty := range RelayTypes() {
		if r1.ImprovedFraction(ty) != r2.ImprovedFraction(ty) {
			t.Fatalf("%v fractions differ", ty)
		}
	}
}
