package scenario

import (
	"sync"
	"testing"

	"shortcuts/internal/latency"
	"shortcuts/internal/relays"
	"shortcuts/internal/sim"
)

var (
	worldOnce sync.Once
	world     *sim.World
	worldErr  error
)

func testWorld(t *testing.T) *sim.World {
	t.Helper()
	worldOnce.Do(func() {
		world, worldErr = sim.Build(sim.SmallWorldParams(5))
	})
	if worldErr != nil {
		t.Fatal(worldErr)
	}
	return world
}

func TestWindowResolve(t *testing.T) {
	cases := []struct {
		w      Window
		rounds int
		lo, hi int
	}{
		{Window{}, 12, 0, 12},                          // zero = whole campaign
		{Window{FromRound: 2, ToRound: 5}, 12, 2, 5},   // absolute
		{Window{FromRound: 2, ToRound: 50}, 12, 2, 12}, // clamped high
		{Window{FromRound: -3, ToRound: 5}, 12, 0, 5},  // clamped low
		{Rounds(1.0/3, 2.0/3), 12, 4, 8},               // fractional
		{Rounds(0, 1), 7, 0, 7},                        // full fraction
		{Rounds(0.5, 0.5), 12, 6, 6},                   // empty fraction
		{Window{FromRound: 5}, 12, 5, 12},              // open-ended rounds
		{Window{FromFrac: 0.5}, 12, 6, 12},             // open-ended fraction
		{Rounds(0, 0.5), 5, 0, 3},                      // tiling: same rounding
		{Rounds(0.5, 1), 5, 3, 5},                      // ...both edges, no overlap
	}
	for i, c := range cases {
		lo, hi := c.w.resolve(c.rounds)
		if lo != c.lo || hi != c.hi {
			t.Errorf("case %d: resolve(%d) = [%d, %d), want [%d, %d)", i, c.rounds, lo, hi, c.lo, c.hi)
		}
	}
}

func TestRampValue(t *testing.T) {
	// Window [0, 10) with 3-round ramps: 1/3, 2/3, 1, 1, ..., 1, 3/3=1? no:
	// falling edge counts rounds-to-go.
	vals := make([]float64, 10)
	for r := 0; r < 10; r++ {
		vals[r] = rampValue(r, 0, 10, 3)
	}
	if vals[0] >= vals[1] || vals[1] >= vals[2] {
		t.Fatalf("rising edge not monotone: %v", vals)
	}
	if vals[4] != 1 {
		t.Fatalf("plateau not at full intensity: %v", vals)
	}
	if vals[9] >= vals[8] || vals[8] >= vals[7] {
		t.Fatalf("falling edge not monotone: %v", vals)
	}
	if rampValue(2, 0, 10, 0) != 1 {
		t.Fatal("zero ramp must be a step")
	}
}

func TestCalmCompilesToNeutral(t *testing.T) {
	w := testWorld(t)
	c, err := Calm().Compile(w, 8)
	if err != nil {
		t.Fatal(err)
	}
	if c.ActiveRounds() != 0 {
		t.Fatalf("calm scenario perturbed %d rounds", c.ActiveRounds())
	}
	for r := 0; r < 8; r++ {
		if c.Snapshot(r) != nil {
			t.Fatalf("calm round %d has a snapshot", r)
		}
	}
	var nilScenario *Scenario
	nc, err := nilScenario.Compile(w, 8)
	if err != nil || nc != nil {
		t.Fatalf("nil scenario: got (%v, %v), want (nil, nil)", nc, err)
	}
	if nc.Snapshot(3) != nil || nc.Rounds() != 0 {
		t.Fatal("nil Compiled must be neutral everywhere")
	}
}

func TestOutagePerturbsWindowOnly(t *testing.T) {
	w := testWorld(t)
	const rounds = 12
	c, err := Outage().Compile(w, rounds)
	if err != nil {
		t.Fatal(err)
	}
	// The outage preset's events all live in fractional windows within
	// [1/3, 2/3]; with 2-round ramps the congestion wave still starts at
	// round 4. Rounds 0-3 and 8-11 must be untouched.
	for _, r := range []int{0, 1, 2, 3, 8, 9, 10, 11} {
		if s := c.Snapshot(r); s != nil {
			t.Fatalf("outage perturbed round %d outside its windows (%d cities)", r, s.CitiesPerturbed())
		}
	}
	mid := c.Snapshot(5)
	if mid == nil || mid.CitiesPerturbed() == 0 {
		t.Fatal("outage did not perturb the middle of the campaign")
	}
	// The blackholed hub must yield a Down effect against any other city.
	sawDown := false
	for r := 4; r < 8 && !sawDown; r++ {
		s := c.Snapshot(r)
		if s == nil {
			continue
		}
		for city := 0; city < len(w.Topo.Cities); city++ {
			if s.PairEffect(city, (city+1)%len(w.Topo.Cities)).Down {
				sawDown = true
				break
			}
		}
	}
	if !sawDown {
		t.Fatal("outage preset produced no blackhole window")
	}
}

func TestPairEffectComposition(t *testing.T) {
	w := testWorld(t)
	sc := New("compose",
		IXPOutage{City: CityRef{HubRank: 0}, Window: Window{FromRound: 0, ToRound: 1}, RerouteFactor: 2, ExtraLoss: 0.1},
		IXPOutage{City: CityRef{HubRank: 0}, Window: Window{FromRound: 0, ToRound: 1}, RerouteFactor: 3, ExtraLoss: 0.2},
	)
	c, err := sc.Compile(w, 1)
	if err != nil {
		t.Fatal(err)
	}
	s := c.Snapshot(0)
	hub := -1
	for city := 0; city < len(w.Topo.Cities); city++ {
		if eff := s.PairEffect(city, city); eff.RTTFactor > 1 {
			hub = city
			break
		}
	}
	if hub < 0 {
		t.Fatal("no perturbed city found")
	}
	other := (hub + 1) % len(w.Topo.Cities)
	eff := s.PairEffect(hub, other)
	if eff.RTTFactor != 6 {
		t.Fatalf("factors did not multiply: %v, want 6", eff.RTTFactor)
	}
	if eff.ExtraLoss < 0.299 || eff.ExtraLoss > 0.301 {
		t.Fatalf("losses did not add: %v, want 0.3", eff.ExtraLoss)
	}
	both := s.PairEffect(hub, hub)
	if both.RTTFactor != 36 {
		t.Fatalf("both-endpoint factor: %v, want 36", both.RTTFactor)
	}
	neutral := s.PairEffect(other, other)
	if neutral != (latency.Effect{RTTFactor: 1}) {
		t.Fatalf("untouched pair not neutral: %+v", neutral)
	}
}

func TestExtraLossCapped(t *testing.T) {
	w := testWorld(t)
	sc := New("lossy",
		IXPOutage{City: CityRef{HubRank: 0}, RerouteFactor: 1.1, ExtraLoss: 0.9},
	)
	c, err := sc.Compile(w, 1)
	if err != nil {
		t.Fatal(err)
	}
	s := c.Snapshot(0)
	hub := -1
	for city := range w.Topo.Cities {
		if s.PairEffect(city, city).ExtraLoss > 0 {
			hub = city
			break
		}
	}
	if hub < 0 {
		t.Fatal("no lossy city")
	}
	if eff := s.PairEffect(hub, hub); eff.ExtraLoss > maxExtraLoss {
		t.Fatalf("extra loss %v exceeds cap %v", eff.ExtraLoss, maxExtraLoss)
	}
}

func TestChurnDeterministicAndBounded(t *testing.T) {
	w := testWorld(t)
	const rounds = 10
	sc := Churn()
	c1, err := sc.Compile(w, rounds)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := Churn().Compile(w, rounds)
	if err != nil {
		t.Fatal(err)
	}
	nr := w.Catalog.Len()
	churnedEver := make(map[int]bool)
	for r := 0; r < rounds; r++ {
		s1, s2 := c1.Snapshot(r), c2.Snapshot(r)
		for i := 0; i < nr; i++ {
			if s1.RelayOut(i) != s2.RelayOut(i) {
				t.Fatalf("round %d relay %d: churn not reproducible", r, i)
			}
			if s1.RelayOut(i) {
				churnedEver[i] = true
			}
		}
	}
	frac := float64(len(churnedEver)) / float64(nr)
	if frac < 0.2 || frac > 0.5 {
		t.Fatalf("churn hit %.2f of relays, want ~0.35", frac)
	}
	// Outages are contiguous: scan each churned relay's timeline.
	for idx := range churnedEver {
		runs, in := 0, false
		for r := 0; r < rounds; r++ {
			out := c1.Snapshot(r).RelayOut(idx)
			if out && !in {
				runs++
			}
			in = out
		}
		if runs != 1 {
			t.Fatalf("relay %d has %d outage runs, want 1 contiguous", idx, runs)
		}
	}
}

func TestChurnTypeFilter(t *testing.T) {
	w := testWorld(t)
	sc := New("cor-only", RelayChurn{Fraction: 0.9, Types: []relays.Type{relays.COR}})
	c, err := sc.Compile(w, 4)
	if err != nil {
		t.Fatal(err)
	}
	churnedCOR, churnedOther := 0, 0
	for r := 0; r < 4; r++ {
		s := c.Snapshot(r)
		for i := range w.Catalog.Len() {
			if !s.RelayOut(i) {
				continue
			}
			if w.Catalog.Type(i) == relays.COR {
				churnedCOR++
			} else {
				churnedOther++
			}
		}
	}
	if churnedOther != 0 {
		t.Fatalf("type-filtered churn hit %d non-COR relays", churnedOther)
	}
	if churnedCOR == 0 {
		t.Fatal("type-filtered churn hit no COR relays")
	}
}

func TestChurnZeroFractionIsControlArm(t *testing.T) {
	w := testWorld(t)
	c, err := New("no-churn", RelayChurn{Fraction: 0}).Compile(w, 6)
	if err != nil {
		t.Fatal(err)
	}
	if c.ActiveRounds() != 0 {
		t.Fatalf("Fraction 0 churned relays in %d rounds, want none", c.ActiveRounds())
	}
}

func TestPairEffectNilSnapshotNeutral(t *testing.T) {
	var s *Snapshot
	if eff := s.PairEffect(0, 1); eff != (latency.Effect{RTTFactor: 1}) {
		t.Fatalf("nil snapshot effect = %+v, want neutral", eff)
	}
	if s.RelayOut(0) {
		t.Fatal("nil snapshot reports a churned relay")
	}
}

func TestScenarioNameKeysChurn(t *testing.T) {
	w := testWorld(t)
	a, err := New("a", RelayChurn{Fraction: 0.5}).Compile(w, 6)
	if err != nil {
		t.Fatal(err)
	}
	b, err := New("b", RelayChurn{Fraction: 0.5}).Compile(w, 6)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for r := 0; r < 6 && same; r++ {
		for i := range w.Catalog.Len() {
			if a.Snapshot(r).RelayOut(i) != b.Snapshot(r).RelayOut(i) {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("scenarios with distinct names churned identical relay sets")
	}
}

func TestDiurnalSweepsLongitude(t *testing.T) {
	w := testWorld(t)
	c, err := Diurnal().Compile(w, 4)
	if err != nil {
		t.Fatal(err)
	}
	s := c.Snapshot(0)
	if s == nil {
		t.Fatal("diurnal round 0 neutral")
	}
	// Every city must be perturbed, and not all equally (the phase shift
	// by longitude must differentiate metros).
	if s.CitiesPerturbed() < len(w.Topo.Cities)/2 {
		t.Fatalf("diurnal perturbed only %d of %d cities", s.CitiesPerturbed(), len(w.Topo.Cities))
	}
	f0 := s.PairEffect(0, 0).RTTFactor
	varies := false
	for city := 1; city < len(w.Topo.Cities); city++ {
		if s.PairEffect(city, city).RTTFactor != f0 {
			varies = true
			break
		}
	}
	if !varies {
		t.Fatal("diurnal factor identical across all longitudes")
	}
}

func TestByNamePresets(t *testing.T) {
	for _, name := range PresetNames() {
		sc, err := ByName(name)
		if err != nil {
			t.Fatalf("ByName(%q): %v", name, err)
		}
		if sc.Name != name {
			t.Fatalf("ByName(%q).Name = %q", name, sc.Name)
		}
		if _, err := sc.Compile(testWorld(t), 9); err != nil {
			t.Fatalf("compile %q: %v", name, err)
		}
	}
	if _, err := ByName("nope"); err == nil {
		t.Fatal("unknown preset did not error")
	}
}

func TestCompileErrors(t *testing.T) {
	w := testWorld(t)
	if _, err := New("x", IXPOutage{City: CityRef{Name: "Atlantis"}}).Compile(w, 4); err == nil {
		t.Fatal("unknown city did not error")
	}
	if _, err := New("x", IXPOutage{City: CityRef{HubRank: 1 << 20}}).Compile(w, 4); err == nil {
		t.Fatal("out-of-range hub rank did not error")
	}
	if _, err := New("x", CongestionWave{Continent: "Middle-earth"}).Compile(w, 4); err == nil {
		t.Fatal("unknown continent did not error")
	}
	if _, err := Calm().Compile(w, 0); err == nil {
		t.Fatal("zero rounds did not error")
	}
}

// TestSnapshotPairEffectZeroAllocs pins the overlay lookup to zero
// allocations — it runs once per ping train.
func TestSnapshotPairEffectZeroAllocs(t *testing.T) {
	w := testWorld(t)
	c, err := Outage().Compile(w, 12)
	if err != nil {
		t.Fatal(err)
	}
	s := c.Snapshot(5)
	if s == nil {
		t.Fatal("round 5 neutral")
	}
	nc := len(w.Topo.Cities)
	i := 0
	allocs := testing.AllocsPerRun(1000, func() {
		_ = s.PairEffect(i%nc, (i*7+3)%nc)
		i++
	})
	if allocs != 0 {
		t.Fatalf("PairEffect allocates %.1f/op, want 0", allocs)
	}
}
