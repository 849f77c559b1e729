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
// peak memory is bounded by one round regardless of Rounds. The
// returned StreamStats aggregates the paper's headline statistics
// incrementally. sink may be nil to collect aggregates only.
//
// Equal seeds produce streams bit-for-bit identical to Run's results,
// for any Concurrency and engine shard count.
func (c *Campaign) RunStream(sink Sink) (*StreamStats, error) {
	stats := measure.NewStreamStats()
	var ms Sink = stats
	if sink != nil {
		ms = measure.MultiSink(stats, sink)
	}
	if err := measure.RunStream(c.world, c.mc, ms); err != nil {
		return nil, err
	}
	return &StreamStats{s: stats}, nil
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
	return &Results{res: res}, nil
}

// StreamStats holds the paper's headline aggregates computed
// incrementally from a streamed campaign, in memory that does not grow
// with campaign length. Improvement distributions are quantized into
// 0.25 ms bins.
type StreamStats struct {
	s *measure.StreamStats
}

// Rounds returns the number of completed rounds.
func (s *StreamStats) Rounds() int { return s.s.Rounds() }

// Pairs returns the number of usable pair observations streamed.
func (s *StreamStats) Pairs() int { return s.s.Pairs() }

// TotalPings returns the number of pings sent.
func (s *StreamStats) TotalPings() int64 { return s.s.TotalPings() }

// ResponsiveFraction returns the share of attempted pairs that produced
// a valid direct median (paper: ~84%).
func (s *StreamStats) ResponsiveFraction() float64 { return s.s.ResponsiveFraction() }

// RelayedPathsStudied counts the stitched overlay paths evaluated.
func (s *StreamStats) RelayedPathsStudied() int64 { return s.s.RelayedPathsStudied() }

// IntercontinentalFraction returns the share of pairs crossing
// continents (paper: 74%).
func (s *StreamStats) IntercontinentalFraction() float64 { return s.s.IntercontinentalFraction() }

// ImprovedFraction returns the share of pairs improved by the best
// relay of the type, identical to Results.ImprovedFraction over the
// same campaign.
func (s *StreamStats) ImprovedFraction(t RelayType) float64 {
	return s.s.ImprovedFraction(t)
}

// MedianImprovementMs returns the median gain among improved cases,
// resolved to the stream histogram's bin midpoint.
func (s *StreamStats) MedianImprovementMs(t RelayType) float64 {
	return s.s.MedianImprovementMs(t)
}

// ImprovedOverFraction returns, among the type's improved cases, the
// share improving by more than ms (bin-quantized).
func (s *StreamStats) ImprovedOverFraction(t RelayType, ms float64) float64 {
	return s.s.ImprovedOverFraction(t, ms)
}

// ImprovementCDF computes the Figure-2 CDF for the type on the given
// millisecond grid from the stream histogram.
func (s *StreamStats) ImprovementCDF(t RelayType, xs []float64) []CDFPoint {
	ys := s.s.ImprovementCDF(t, xs)
	out := make([]CDFPoint, len(xs))
	for i := range xs {
		out[i] = CDFPoint{ImprovementMs: xs[i], Fraction: ys[i]}
	}
	return out
}

// WriteSummary renders the streaming headline numbers next to the
// paper's.
func (s *StreamStats) WriteSummary(w io.Writer) error {
	return report.StreamSummary(w, s.s)
}
