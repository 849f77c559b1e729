package measure

import (
	"reflect"
	"testing"

	"shortcuts/internal/relays"
	"shortcuts/internal/sim"
)

// maskController is a stub SelfHealController: from FromRound on it
// excludes a fixed catalog index set. It ignores the stream.
type maskController struct {
	FromRound int
	Mask      []bool
}

func (m *maskController) Emit(Observation)    {}
func (m *maskController) RoundDone(RoundInfo) {}
func (m *maskController) ExcludedRelays(r int) []bool {
	if r < m.FromRound {
		return nil
	}
	return m.Mask
}

func buildSelfHealWorld(t *testing.T) *sim.World {
	t.Helper()
	w, err := sim.Build(sim.SmallWorldParams(11))
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// TestSelfHealExclusionMasksRelays pins the controller contract: masked
// relays are dropped by the feasibility filter exactly like churned
// ones — they stop appearing as bests or improvers, and RoundInfo
// counts them — while rounds before the mask are untouched.
func TestSelfHealExclusionMasksRelays(t *testing.T) {
	w := buildSelfHealWorld(t)

	base := NewResults(QuickConfig(6), w)
	if err := RunStream(w, QuickConfig(6), base); err != nil {
		t.Fatal(err)
	}
	// Mask every relay that ever won a best slot in the baseline: the
	// strongest possible intervention short of masking the whole
	// catalog.
	mask := make([]bool, len(w.Catalog.Relays))
	masked := 0
	for i := range base.Observations {
		for tt := 0; tt < relays.NumTypes; tt++ {
			if ri := base.Observations[i].BestRelay[tt]; ri >= 0 && !mask[ri] {
				mask[ri] = true
				masked++
			}
		}
	}
	if masked == 0 {
		t.Fatal("baseline campaign produced no winning relays to mask")
	}

	const fromRound = 3
	ctrl := &maskController{FromRound: fromRound, Mask: mask}
	cfg := QuickConfig(6)
	cfg.SelfHeal = ctrl
	res := NewResults(cfg, w)
	if err := RunStream(w, cfg, res); err != nil {
		t.Fatal(err)
	}

	for r, info := range res.Rounds {
		if r < fromRound && info.RelaysHealed != 0 {
			t.Errorf("round %d: RelaysHealed=%d before the mask engaged", r, info.RelaysHealed)
		}
		if r >= fromRound && info.RelaysHealed == 0 {
			t.Errorf("round %d: RelaysHealed=0 with %d masked catalog relays", r, masked)
		}
	}
	for i := range res.Observations {
		o := &res.Observations[i]
		if o.Round < fromRound {
			continue
		}
		for tt := 0; tt < relays.NumTypes; tt++ {
			if ri := o.BestRelay[tt]; ri >= 0 && mask[ri] {
				t.Fatalf("round %d: masked relay %d won a best slot", o.Round, ri)
			}
		}
		for _, e := range o.Improving {
			if mask[e.Relay] {
				t.Fatalf("round %d: masked relay %d appears in Improving", o.Round, e.Relay)
			}
		}
	}
	// Pre-mask rounds must be bit-identical to the baseline.
	for i := range res.Observations {
		if res.Observations[i].Round >= fromRound {
			break
		}
		if !reflect.DeepEqual(res.Observations[i], base.Observations[i]) {
			t.Fatalf("observation %d diverged before the mask engaged", i)
		}
	}
}

// TestSelfHealNilControllerIdentical pins the default: a controller
// that never excludes anything leaves the stream bit-identical to a
// campaign without one, and RelaysHealed stays 0.
func TestSelfHealNilControllerIdentical(t *testing.T) {
	w := buildSelfHealWorld(t)
	base := NewResults(QuickConfig(4), w)
	if err := RunStream(w, QuickConfig(4), base); err != nil {
		t.Fatal(err)
	}
	cfg := QuickConfig(4)
	cfg.SelfHeal = &maskController{FromRound: 1 << 30}
	res := NewResults(cfg, w)
	if err := RunStream(w, cfg, res); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(base.Observations, res.Observations) {
		t.Fatal("no-op controller changed the observation stream")
	}
	for _, info := range res.Rounds {
		if info.RelaysHealed != 0 {
			t.Fatalf("round %d: RelaysHealed=%d under a no-op controller", info.Round, info.RelaysHealed)
		}
	}
}
