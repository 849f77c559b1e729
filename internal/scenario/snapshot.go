package scenario

import "shortcuts/internal/latency"

// Compiled is a scenario resolved against one world and campaign
// length: an immutable per-round snapshot table. It is read-only after
// Compile, so any number of concurrent campaign workers may share it.
type Compiled struct {
	Name  string
	snaps []*Snapshot
}

// Snapshot returns round r's snapshot, or nil when the round is
// untouched by every event (the neutral round: measuring under a nil
// snapshot is bit-identical to measuring with no scenario at all).
// Out-of-range rounds are neutral.
func (c *Compiled) Snapshot(r int) *Snapshot {
	if c == nil || r < 0 || r >= len(c.snaps) {
		return nil
	}
	return c.snaps[r]
}

// Rounds returns the compiled campaign length.
func (c *Compiled) Rounds() int {
	if c == nil {
		return 0
	}
	return len(c.snaps)
}

// ActiveRounds counts rounds perturbed by at least one event.
func (c *Compiled) ActiveRounds() int {
	if c == nil {
		return 0
	}
	n := 0
	for _, s := range c.snaps {
		if s != nil {
			n++
		}
	}
	return n
}

// Snapshot is the per-round state of a compiled scenario: multiplier,
// loss and availability tables indexed by city, plus the relay churn
// mask indexed by catalog position. Nil tables mean "neutral", so quiet
// dimensions cost nothing. Snapshots are immutable after compile and
// implement latency.Overlay.
type Snapshot struct {
	Round    int
	factor   []float64 // per-city RTT multiplier; nil = all 1
	loss     []float64 // per-city extra loss probability; nil = all 0
	down     []bool    // per-city blackhole mask; nil = all up
	relayOut []bool    // per-relay churn mask; nil = all in
}

// maxExtraLoss caps the composed per-ping extra loss probability so a
// stack of events degrades a path severely without turning it into an
// accidental blackhole (Blackhole exists for that).
const maxExtraLoss = 0.95

// PairEffect implements latency.Overlay: the effect on a ping between
// endpoints attached in cities a and b. Factors of both cities
// multiply, losses add (capped), and a blackhole at either end downs
// the path. A handful of array loads, no allocation. Nil receivers are
// neutral, so a typed-nil *Snapshot handed to Engine.View prices
// correctly (if a touch slower than a nil Overlay).
func (s *Snapshot) PairEffect(a, b int) latency.Effect {
	eff := latency.Effect{RTTFactor: 1}
	if s == nil {
		return eff
	}
	if s.down != nil && (s.down[a] || s.down[b]) {
		eff.Down = true
		return eff
	}
	if s.factor != nil {
		eff.RTTFactor = s.factor[a] * s.factor[b]
	}
	if s.loss != nil {
		if l := s.loss[a] + s.loss[b]; l > 0 {
			if l > maxExtraLoss {
				l = maxExtraLoss
			}
			eff.ExtraLoss = l
		}
	}
	return eff
}

// RelayOut reports whether the relay at the given catalog index is
// churned out this round.
func (s *Snapshot) RelayOut(idx int) bool {
	return s != nil && s.relayOut != nil && idx < len(s.relayOut) && s.relayOut[idx]
}

// CitiesPerturbed counts cities with a non-neutral factor, loss or
// blackhole this round.
func (s *Snapshot) CitiesPerturbed() int {
	if s == nil {
		return 0
	}
	nc := len(s.factor)
	if len(s.loss) > nc {
		nc = len(s.loss)
	}
	if len(s.down) > nc {
		nc = len(s.down)
	}
	n := 0
	for i := 0; i < nc; i++ {
		if (i < len(s.factor) && s.factor[i] != 1) ||
			(i < len(s.loss) && s.loss[i] != 0) ||
			(i < len(s.down) && s.down[i]) {
			n++
		}
	}
	return n
}

// mulFactor multiplies city's RTT factor, allocating the table on first
// touch.
func (s *Snapshot) mulFactor(nc, city int, f float64) {
	if s.factor == nil {
		s.factor = make([]float64, nc)
		for i := range s.factor {
			s.factor[i] = 1
		}
	}
	s.factor[city] *= f
}

// addLoss adds to city's extra loss probability, allocating the table
// on first touch.
func (s *Snapshot) addLoss(nc, city int, l float64) {
	if s.loss == nil {
		s.loss = make([]float64, nc)
	}
	s.loss[city] += l
}

// ensureDown returns the blackhole mask, allocating on first touch.
func (s *Snapshot) ensureDown(nc int) []bool {
	if s.down == nil {
		s.down = make([]bool, nc)
	}
	return s.down
}

// ensureRelayOut returns the relay churn mask, allocating on first
// touch.
func (s *Snapshot) ensureRelayOut(nr int) []bool {
	if s.relayOut == nil {
		s.relayOut = make([]bool, nr)
	}
	return s.relayOut
}
