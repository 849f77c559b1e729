package shortcuts

import (
	"io"

	"shortcuts/internal/measure"
	"shortcuts/internal/relays"
	"shortcuts/internal/report"
)

// NumRelayTypes is the number of relay populations; per-type arrays in
// Observation are indexed by RelayType.
const NumRelayTypes = relays.NumTypes

// RoundInfo summarises one executed measurement round, delivered to
// sinks (and progress callbacks) as soon as the round completes.
type RoundInfo = measure.RoundInfo

// ImproveEntry records one relay that beat the direct path for a pair:
// its catalog index and the stitched median RTT via it, in milliseconds.
type ImproveEntry = measure.ImproveEntry

// Observation is everything the campaign learned about one endpoint
// pair during one round. RTTs are median milliseconds, and 0 means no
// valid measurement. Per-type arrays are indexed by RelayType:
// BestRelay is the catalog index of the type's best relay, or -1 when
// no feasible relay produced a valid median. Improving lists every
// relay that beat the direct path, in catalog order.
type Observation = measure.Observation

// Sink receives campaign output incrementally: Emit once per usable
// pair observation (in deterministic order), RoundDone once after each
// round's observations. Calls arrive from a single goroutine. A sink
// receives the campaign's own observations, not copies, and may keep
// them: the campaign never writes an emitted Improving slice again.
type Sink = measure.Sink

// RunStream executes the campaign in streaming mode: observations are
// pushed into sink as rounds complete and are never materialized, so
// the campaign's own memory is bounded by one round regardless of
// Rounds. The returned StreamStats folds the stream into the paper's
// statistics; it keeps each improved case's exact gain (4 bytes per
// improved case and relay type) and counters otherwise. sink may be nil
// to collect the statistics only; it receives each observation before
// the statistics do.
//
// Equal seeds produce streams bit-for-bit identical to Run's results,
// for any Concurrency and engine shard count, and a StreamStats reports
// exactly the numbers the Results of the same campaign does.
func (c *Campaign) RunStream(sink Sink) (*StreamStats, error) {
	st := new(measure.Stats)
	ms := measure.StatsSink(st, c.world.Catalog)
	if sink != nil {
		ms = measure.MultiSink(sink, ms)
	}
	if err := measure.RunStream(c.world, c.mc, ms); err != nil {
		return nil, err
	}
	return &StreamStats{st}, nil
}

// RoundProgressSink returns a Sink that invokes f after each round and
// ignores per-observation detail.
func RoundProgressSink(f func(RoundInfo)) Sink { return roundProgressSink(f) }

type roundProgressSink func(RoundInfo)

func (f roundProgressSink) Emit(Observation) {}

func (f roundProgressSink) RoundDone(ri RoundInfo) { f(ri) }

// RunWithProgress executes the campaign like Run, additionally invoking
// onRound after each completed round (nil is allowed).
func (c *Campaign) RunWithProgress(onRound func(RoundInfo)) (*Results, error) {
	res := measure.NewResults(c.mc, c.world)
	var ms Sink = res
	if onRound != nil {
		ms = measure.MultiSink(res, RoundProgressSink(onRound))
	}
	if err := measure.RunStream(c.world, c.mc, ms); err != nil {
		return nil, err
	}
	return &Results{stats: res.Stats(), res: res}, nil
}

// StreamStats holds the paper's statistics over one streamed campaign:
// Pairs, Rounds, TotalPings, PairsAttempted, RelayedPathsStudied and
// ResponsiveFraction; per relay type ImprovedFraction, ImprovementCDF,
// MedianImprovementMs, ImprovedOverFraction, RelayRedundancyMedian,
// CountryChange and PerRoundImproved; and IntercontinentalFraction,
// VoIP and SymmetryWithin5. Each method is the one implementation that
// Results also reports, so both give the same numbers for the same
// campaign. It keeps no reference to the campaign's world.
type StreamStats struct {
	*stats
}

// stats names the aggregate that StreamStats and Results embed, so its
// methods are theirs.
type stats = measure.Stats

// CDFPoint is one point of a Figure-2 improvement CDF: the fraction of
// all cases whose gain is at most ImprovementMs.
type CDFPoint = measure.CDFPoint

// VoIPStats is the ITU G.114 threshold analysis: the shares of cases
// above ThresholdMs, direct and with COR relaying.
type VoIPStats = measure.VoIPStats

// WriteSummary renders the headline numbers next to the paper's: the
// table and in-text lines of Results.WriteSummary through direction
// symmetry.
func (s *StreamStats) WriteSummary(w io.Writer) error {
	return report.Summary(w, s.stats, nil)
}
