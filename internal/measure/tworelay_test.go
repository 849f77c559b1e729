package measure

import (
	"math"
	"testing"
)

func TestTwoRelayExperiment(t *testing.T) {
	w, _ := testCampaign(t)
	res, err := TwoRelayExperiment(w, QuickConfig(1), 0, 60, 15)
	if err != nil {
		t.Fatal(err)
	}
	if res.Pairs == 0 {
		t.Fatal("no pairs evaluated")
	}
	if res.OneRelaySufficient > res.Pairs {
		t.Fatalf("sufficient count %d exceeds pairs %d", res.OneRelaySufficient, res.Pairs)
	}
	// The literature result the paper leans on (Han et al., Le et al.):
	// a second relay adds only marginal gain. The margin matters more
	// than the win rate — a second relay often wins by a hair through
	// the hub fabric, but the median extra gain must stay small next to
	// the paper's 12-14 ms single-relay improvements.
	frac := float64(res.OneRelaySufficient) / float64(res.Pairs)
	if frac < 0.35 {
		t.Fatalf("a second relay adds >2ms for %.0f%% of pairs; expected marginal gains", (1-frac)*100)
	}
	if res.MedianExtraGainMs > 6 {
		t.Fatalf("median extra gain of a second relay = %.1f ms; expected marginal", res.MedianExtraGainMs)
	}
	t.Logf("two-relay check: %d pairs, one relay sufficient for %.0f%%, median extra gain %.2f ms",
		res.Pairs, frac*100, res.MedianExtraGainMs)
}

func TestTwoRelayDeterministic(t *testing.T) {
	w, _ := testCampaign(t)
	a, err := TwoRelayExperiment(w, QuickConfig(1), 0, 30, 10)
	if err != nil {
		t.Fatal(err)
	}
	b, err := TwoRelayExperiment(w, QuickConfig(1), 0, 30, 10)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("two-relay experiment not deterministic: %+v vs %+v", a, b)
	}
}

// TestTwoRelayPinned pins the experiment's result on the test world
// field by field, floats by their bits, so a change to how its legs are
// priced cannot move a single value unnoticed.
func TestTwoRelayPinned(t *testing.T) {
	w, _ := testCampaign(t)
	got, err := TwoRelayExperiment(w, QuickConfig(1), 0, 200, 25)
	if err != nil {
		t.Fatal(err)
	}
	want := TwoRelayResult{
		Pairs:              200,
		OneRelaySufficient: 98,
		MedianExtraGainMs:  2.2761383056640625,
		MeanExtraLegMs:     8.181212583593293,
	}
	if got.Pairs != want.Pairs || got.OneRelaySufficient != want.OneRelaySufficient ||
		math.Float64bits(got.MedianExtraGainMs) != math.Float64bits(want.MedianExtraGainMs) ||
		math.Float64bits(got.MeanExtraLegMs) != math.Float64bits(want.MeanExtraLegMs) {
		t.Fatalf("two-relay result drifted:\n got %+v\nwant %+v", got, want)
	}
}
