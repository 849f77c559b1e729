package measure

import (
	"time"

	"shortcuts/internal/atlas"
	"shortcuts/internal/relays"
	"shortcuts/internal/sim"
	"shortcuts/internal/topology"
)

// ImproveEntry records one relay that beat the direct path for a pair.
// Relay is int32, not uint16: scale-tier catalogs (ScaleWorldParams)
// exceed 65k relays, and the 8-byte struct layout is unchanged.
type ImproveEntry struct {
	Relay     int32   // catalog index
	RelayedMs float32 // stitched median RTT via this relay
}

// Observation is everything the campaign learned about one endpoint pair
// during one round. RTTs are median milliseconds; zero means "no valid
// measurement".
type Observation struct {
	Round    int
	SrcProbe atlas.ProbeID
	DstProbe atlas.ProbeID
	SrcAS    topology.ASN
	DstAS    topology.ASN
	SrcCC    string
	DstCC    string
	SrcCont  string
	DstCont  string

	// DirectMs is the forward direct median; RevDirectMs the reverse
	// direction (Section 2.5 verifies direction does not matter).
	DirectMs    float32
	RevDirectMs float32

	// BestMs / BestRelay hold, per relay type, the minimum stitched RTT
	// and the catalog index achieving it (-1 and 0 when no feasible
	// relay produced a valid median).
	BestMs    [relays.NumTypes]float32
	BestRelay [relays.NumTypes]int32

	// FeasibleCount is the number of relays per type that passed the
	// Section-2.4 feasibility filter for this pair.
	FeasibleCount [relays.NumTypes]uint16

	// Improving lists every relay (any type) whose stitched RTT beat the
	// direct path, in catalog order.
	Improving []ImproveEntry
}

// Intercontinental reports whether the endpoints sit on different
// continents.
func (o *Observation) Intercontinental() bool { return o.SrcCont != o.DstCont }

// ImprovementMs returns the latency gain of the best relay of the given
// type, in milliseconds; <= 0 means no improvement.
func (o *Observation) ImprovementMs(t relays.Type) float64 {
	if o.BestRelay[t] < 0 {
		return 0
	}
	return float64(o.DirectMs - o.BestMs[t])
}

// RoundInfo summarises one executed round.
type RoundInfo struct {
	Round       int
	Start       time.Time
	Endpoints   int
	RelayCounts [relays.NumTypes]int
	PingsSent   int64
	PairsUsable int // endpoint pairs with a valid direct median
	// PairsAttempted counts endpoint pairs whose direct path was
	// measured this round, before the >=3-replies validity cut.
	PairsAttempted int
	// RelaysChurned counts sampled relays removed this round by the
	// scenario's churn events (skipped by the feasibility filter).
	RelaysChurned int
	// RelaysHealed counts sampled relays excluded this round by the
	// self-heal controller (suspect-facility masking; see
	// Config.SelfHeal). Always 0 when self-healing is off.
	RelaysHealed int
}

// Results is the full campaign output. It is itself a Sink: Run wires
// it to RunStream, and callers composing their own sink stacks can tee
// into a Results to keep the analyses that rank the whole campaign
// available. Stats folds it into the paper's statistics.
type Results struct {
	Config       Config
	World        *sim.World
	Rounds       []RoundInfo
	Observations []Observation
	TotalPings   int64
	// PairsAttempted counts endpoint pairs whose direct path was
	// measured (before the >=3-replies validity cut); the ratio
	// usable/attempted reproduces the paper's ~84% responsiveness.
	PairsAttempted int
}

// NewResults returns an empty Results ready to collect a campaign
// stream for the given configuration.
func NewResults(cfg Config, w *sim.World) *Results {
	return &Results{Config: cfg, World: w}
}

// Emit implements Sink by appending the observation.
func (r *Results) Emit(o Observation) {
	r.Observations = append(r.Observations, o)
}

// RoundDone implements Sink by recording the round summary and rolling
// its counters into the campaign totals.
func (r *Results) RoundDone(info RoundInfo) {
	r.Rounds = append(r.Rounds, info)
	r.TotalPings += info.PingsSent
	r.PairsAttempted += info.PairsAttempted
}

// RelayedPathsStudied counts stitched relay paths evaluated across the
// campaign (the paper reports ~29M for ~90K direct paths).
func (r *Results) RelayedPathsStudied() int64 {
	var n int64
	for i := range r.Observations {
		for t := 0; t < relays.NumTypes; t++ {
			n += int64(r.Observations[i].FeasibleCount[t])
		}
	}
	return n
}
