package measure

import (
	"shortcuts/internal/relays"
)

// Histogram resolution of the streaming improvement CDFs: 0.25 ms bins
// up to 512 ms, with one overflow bucket. The paper's Figure-2 grid is
// 2 ms steps to 200 ms, so the streaming CDF is exact at that grid up
// to quantization of individual improvements into quarter-millisecond
// bins.
const (
	streamBinMs   = 0.25
	streamBins    = 2048 // covers [0, 512) ms
	streamBinsAll = streamBins + 1
)

// StreamStats is a Sink that folds the observation stream into the
// paper's headline aggregates in O(1) memory: per-type improved
// fractions and improvement CDFs (as fixed-bin histograms), the
// responsiveness funnel (attempted -> usable), ping and relayed-path
// totals. It never retains observations, so campaigns of any length
// stream through a constant footprint.
type StreamStats struct {
	rounds         int
	totalPings     int64
	pairsAttempted int
	cases          int // usable observations (valid direct median)
	intercont      int
	relayedPaths   int64

	improved [relays.NumTypes]int
	// hist[t][b] counts improved cases of type t whose improvement falls
	// in [b*streamBinMs, (b+1)*streamBinMs); the last bucket catches
	// everything above the covered range.
	hist [relays.NumTypes][streamBinsAll]int
}

// NewStreamStats returns an empty streaming aggregator.
func NewStreamStats() *StreamStats { return &StreamStats{} }

// Emit implements Sink.
func (s *StreamStats) Emit(o Observation) {
	s.cases++
	if o.Intercontinental() {
		s.intercont++
	}
	for t := 0; t < relays.NumTypes; t++ {
		s.relayedPaths += int64(o.FeasibleCount[t])
		imp := o.ImprovementMs(relays.Type(t))
		if imp <= 0 {
			continue
		}
		s.improved[t]++
		b := int(imp / streamBinMs)
		if b >= streamBins {
			b = streamBins
		}
		s.hist[t][b]++
	}
}

// RoundDone implements Sink.
func (s *StreamStats) RoundDone(info RoundInfo) {
	s.rounds++
	s.totalPings += info.PingsSent
	s.pairsAttempted += info.PairsAttempted
}

// Rounds returns the number of completed rounds.
func (s *StreamStats) Rounds() int { return s.rounds }

// Pairs returns the number of usable pair observations streamed.
func (s *StreamStats) Pairs() int { return s.cases }

// TotalPings returns the number of pings sent.
func (s *StreamStats) TotalPings() int64 { return s.totalPings }

// PairsAttempted returns the pairs whose direct path was measured.
func (s *StreamStats) PairsAttempted() int { return s.pairsAttempted }

// RelayedPathsStudied counts stitched relay paths evaluated.
func (s *StreamStats) RelayedPathsStudied() int64 { return s.relayedPaths }

// ResponsiveFraction returns the share of attempted pairs that yielded
// a valid direct median.
func (s *StreamStats) ResponsiveFraction() float64 {
	if s.pairsAttempted == 0 {
		return 0
	}
	return float64(s.cases) / float64(s.pairsAttempted)
}

// IntercontinentalFraction returns the share of observations whose
// endpoints sit on different continents.
func (s *StreamStats) IntercontinentalFraction() float64 {
	if s.cases == 0 {
		return 0
	}
	return float64(s.intercont) / float64(s.cases)
}

// ImprovedFraction returns the share of all cases whose best relay of
// the type beat the direct path. Identical to the batch
// analysis.ImprovedFraction over the same stream.
func (s *StreamStats) ImprovedFraction(t relays.Type) float64 {
	if s.cases == 0 {
		return 0
	}
	return float64(s.improved[t]) / float64(s.cases)
}

// ImprovementCDF evaluates the Figure-2 CDF for the type on the given
// millisecond grid: the fraction of all cases whose improvement is at
// most x (cases without improvement count as zero). Bins strictly
// below x are summed, so the value is exact whenever x sits on a
// streamBinMs boundary — which covers the paper's whole-millisecond
// grids — except for improvements exactly equal to x.
func (s *StreamStats) ImprovementCDF(t relays.Type, xs []float64) []float64 {
	out := make([]float64, len(xs))
	if s.cases == 0 {
		return out
	}
	for i, x := range xs {
		if x < 0 {
			continue
		}
		// Cases with zero (or no) improvement all satisfy imp <= x.
		n := s.cases - s.improved[t]
		top := int(x / streamBinMs)
		if top > streamBinsAll {
			top = streamBinsAll
		}
		for b := 0; b < top; b++ {
			n += s.hist[t][b]
		}
		out[i] = float64(n) / float64(s.cases)
	}
	return out
}

// MedianImprovementMs returns the median improvement among improved
// cases of the type, resolved to the histogram's bin midpoint.
func (s *StreamStats) MedianImprovementMs(t relays.Type) float64 {
	n := s.improved[t]
	if n == 0 {
		return 0
	}
	// The median is in the bin where the cumulative count crosses half.
	half := (n + 1) / 2
	cum := 0
	for b := 0; b < streamBinsAll; b++ {
		cum += s.hist[t][b]
		if cum >= half {
			return (float64(b) + 0.5) * streamBinMs
		}
	}
	return float64(streamBins) * streamBinMs
}

// ImprovedOverFraction returns, among improved cases of the type, the
// share whose improvement exceeds ms (bin-quantized). Every improved
// case improves by more than any non-positive threshold.
func (s *StreamStats) ImprovedOverFraction(t relays.Type, ms float64) float64 {
	if s.improved[t] == 0 {
		return 0
	}
	from := 0
	if ms > 0 {
		from = int(ms / streamBinMs)
	}
	over := 0
	for b := from; b < streamBinsAll; b++ {
		over += s.hist[t][b]
	}
	return float64(over) / float64(s.improved[t])
}
