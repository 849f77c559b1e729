package detect

import (
	"fmt"
	"hash/fnv"
	"math"
	"strings"
	"testing"

	"shortcuts/internal/scenario"
)

// eventLine renders every exported Event field, floats as their IEEE
// bits, so a pinned line holds the event exactly. The corridor list
// (up to hundreds of entries) pins as its length and FNV-64a digest.
func eventLine(ev Event) string {
	h := fnv.New64a()
	for _, c := range ev.Corridors {
		fmt.Fprintf(h, "%s-%s,", c.A, c.B)
	}
	return fmt.Sprintf("#%d %s onset=%d confirmed=%d end=%d city=%q cc=%q cont=%q fac=%q pdb=%d severity=%016x dark=%d corridors=%d/%016x",
		ev.ID, ev.Kind, ev.OnsetRound, ev.ConfirmedRound, ev.EndRound, ev.City, ev.CC, ev.Continent,
		ev.Facility, ev.FacilityPDB, math.Float64bits(ev.Severity), ev.DarkCorridors, len(ev.Corridors), h.Sum64())
}

// planLine renders one round of the plan-delivery series exactly.
func planLine(ps RoundPlanStats) string {
	return fmt.Sprintf("r%d planned=%d delivered=%016x obs=%d active=%d excluded=%d",
		ps.Round, ps.Planned, math.Float64bits(ps.DeliveredMs), ps.PlanObservations, ps.ActiveEvents, ps.ExcludedRelays)
}

func pinLines[T any](xs []T, line func(T) string) []string {
	out := make([]string, len(xs))
	for i, x := range xs {
		out[i] = line(x)
	}
	return out
}

func comparePinned(t *testing.T, what string, got, want []string) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: %d lines, want %d:\n%s", what, len(got), len(want), strings.Join(got, "\n"))
		return
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("%s line %d:\n got %s\nwant %s", what, i, got[i], want[i])
		}
	}
}

// TestDetectorPinned holds the detector's output on the small world
// (seed 1, 14 rounds) to the bit: every event of a monitor arm under
// the calm and outage presets, and the events and plan-delivery series
// of a self-heal outage arm — the only arm whose masked cities are
// re-probed, so the only one the probe cadence shapes.
func TestDetectorPinned(t *testing.T) {
	w := buildWorld(t, 1, 0)
	arm := func(preset string, selfHeal bool) *Detector {
		sc, err := scenario.ByName(preset)
		if err != nil {
			t.Fatal(err)
		}
		return runArm(t, w, rtRounds, sc, Options{SelfHeal: selfHeal}, selfHeal)
	}

	calm := arm(scenario.PresetCalm, false)
	comparePinned(t, "calm monitor events", pinLines(calm.Events(), eventLine), nil)

	london := `#0 rtt-spike onset=5 confirmed=6 end=9 city="London" cc="GB" cont="EU" fac="Telehouse North" pdb=34 severity=40029486d3a83a84 dark=1 corridors=71/0db0fe303ff04bb3`
	amsterdam := `#1 blackhole onset=6 confirmed=7 end=%d city="Amsterdam" cc="NL" cont="EU" fac="Equinix-AM7" pdb=62 severity=0000000000000000 dark=64 corridors=64/bd18207af36e2cec`
	europe := `#2 congestion onset=6 confirmed=7 end=-1 city="" cc="" cont="EU" fac="" pdb=0 severity=3ffdc40cdf5a4412 dark=0 corridors=346/f4ad82cd4d4bafdc`

	outage := arm(scenario.PresetOutage, false)
	comparePinned(t, "outage monitor events", pinLines(outage.Events(), eventLine),
		[]string{london, fmt.Sprintf(amsterdam, 8), europe})

	// Under self-healing the masked Amsterdam is judged only on probe
	// rounds, so its event closes two rounds later than the monitor's.
	healed := arm(scenario.PresetOutage, true)
	comparePinned(t, "outage self-heal events", pinLines(healed.Events(), eventLine),
		[]string{london, fmt.Sprintf(amsterdam, 10), europe})
	comparePinned(t, "outage self-heal plans", pinLines(healed.PlanHistory(), planLine), []string{
		"r0 planned=1561 delivered=0000000000000000 obs=0 active=0 excluded=0",
		"r1 planned=2290 delivered=40e242bbc8d80000 obs=1376 active=0 excluded=0",
		"r2 planned=2453 delivered=40e2391a89500000 obs=1757 active=0 excluded=0",
		"r3 planned=2532 delivered=40e259721b300000 obs=2071 active=0 excluded=0",
		"r4 planned=2571 delivered=40e5e0d3cbc00000 obs=2001 active=0 excluded=0",
		"r5 planned=2582 delivered=40e1ea4766700000 obs=2045 active=0 excluded=0",
		"r6 planned=2610 delivered=40e5b54da7b00000 obs=2511 active=1 excluded=24",
		"r7 planned=2617 delivered=40e189dc5ae00000 obs=2259 active=3 excluded=50",
		"r8 planned=2619 delivered=40e6716896580000 obs=2281 active=3 excluded=26",
		"r9 planned=2630 delivered=40dce5c09dd00000 obs=2035 active=2 excluded=0",
		"r10 planned=2637 delivered=40dd03d437700000 obs=1964 active=1 excluded=0",
		"r11 planned=2646 delivered=40e29f426e080000 obs=2358 active=1 excluded=0",
		"r12 planned=2653 delivered=40db69cf95d80000 obs=2232 active=1 excluded=0",
		"r13 planned=2659 delivered=40e210a0cd280000 obs=2117 active=1 excluded=0",
	})
}
