package scenario

import (
	"errors"
	"fmt"
	"sort"

	"shortcuts/internal/worlddata"
)

// Preset names accepted by ByName, in the order the CLI documents them.
const (
	PresetCalm    = "calm"
	PresetOutage  = "outage"
	PresetDiurnal = "diurnal"
	PresetChurn   = "churn"
)

// PresetNames lists the built-in scenarios.
func PresetNames() []string {
	names := []string{PresetCalm, PresetOutage, PresetDiurnal, PresetChurn}
	sort.Strings(names)
	return names
}

// ErrUnknownPreset is the error ByName wraps for a name that is not a
// built-in scenario.
var ErrUnknownPreset = errors.New("unknown preset")

// ByName returns one of the built-in scenarios. Presets address cities
// by hub rank and windows by campaign fraction, so they scale to any
// world and campaign length.
func ByName(name string) (*Scenario, error) {
	switch name {
	case PresetCalm:
		return Calm(), nil
	case PresetOutage:
		return Outage(), nil
	case PresetDiurnal:
		return Diurnal(), nil
	case PresetChurn:
		return Churn(), nil
	default:
		return nil, fmt.Errorf("scenario: %w %q (have %v)", ErrUnknownPreset, name, PresetNames())
	}
}

// Calm is the event-free timeline: compiling it yields only neutral
// snapshots, and campaigns under it are bit-identical to campaigns with
// no scenario at all — the control arm of every disruption comparison.
func Calm() *Scenario { return New(PresetCalm) }

// Outage is the colo-disruption timeline: the busiest colo hub's IXP
// fabric degrades for the middle third of the campaign (reroute penalty
// plus loss), the second hub blackholes outright for a shorter window
// inside it, and a congestion wave washes over Europe — the continent
// hosting the paper's dominant facilities — as traffic detours.
func Outage() *Scenario {
	return New(PresetOutage,
		IXPOutage{
			City:          CityRef{HubRank: 0},
			Window:        Rounds(1.0/3, 2.0/3),
			RerouteFactor: 1.7,
			ExtraLoss:     0.08,
		},
		IXPOutage{
			City:      CityRef{HubRank: 1},
			Window:    Rounds(0.45, 0.60),
			Blackhole: true,
		},
		CongestionWave{
			Continent:       worlddata.Europe,
			Window:          Rounds(1.0/3, 2.0/3),
			Peak:            1.25,
			RampRounds:      2,
			ExtraLossAtPeak: 0.02,
		},
	)
}

// Diurnal is the load-cycle timeline: a global evening-peak wave,
// phase-shifted by longitude, cycling once per two rounds (24 h over
// the paper's 12 h cadence).
func Diurnal() *Scenario {
	return New(PresetDiurnal,
		DiurnalLoad{Amplitude: 0.3, PeriodRounds: 2},
	)
}

// Churn is the relay-instability timeline: roughly a third of the
// candidate relays drop out for a contiguous stretch of the campaign,
// stressing how much of the remedy survives when the relay inventory
// itself is unreliable.
func Churn() *Scenario {
	return New(PresetChurn,
		RelayChurn{Fraction: 0.35},
	)
}
