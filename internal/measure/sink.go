package measure

// Sink receives campaign output incrementally as the campaign runs,
// instead of materializing every Observation in one slice. Emit is
// called once per usable pair observation, in deterministic (pair)
// order; RoundDone is called once after all of a round's observations
// have been emitted. Both are always invoked from a single goroutine,
// so implementations need no locking of their own.
//
// A sink may keep what it receives. An emitted Observation's Improving
// is an exact-size, capacity-clamped slice carved from the campaign's
// improve arena, and the arena never writes it again, so an Emit
// implementation can retain the value without copying. The public
// shortcuts.Sink is this interface.
type Sink interface {
	Emit(o Observation)
	RoundDone(info RoundInfo)
}

// SelfHealController is the feedback half of a self-healing campaign
// (Config.SelfHeal): a Sink that watches the emitted stream — RunStream
// feeds it ahead of the caller's sink — plus a per-round relay
// exclusion the campaign consults before executing each round.
// Implemented by detect.Detector; the interface lives here so measure
// needs no dependency on the detection layer.
type SelfHealController interface {
	Sink
	// ExcludedRelays returns the catalog-indexed relay mask to exclude
	// from the given round's feasibility filter (nil or short masks
	// exclude nothing extra). The campaign guarantees RoundDone(r-1)
	// has returned before ExcludedRelays(r) is called: rounds run one
	// at a time.
	ExcludedRelays(round int) []bool
}

// MultiSink fans one observation stream out to several sinks, invoking
// them in argument order.
func MultiSink(sinks ...Sink) Sink { return multiSink(sinks) }

type multiSink []Sink

func (m multiSink) Emit(o Observation) {
	for _, s := range m {
		s.Emit(o)
	}
}

func (m multiSink) RoundDone(info RoundInfo) {
	for _, s := range m {
		s.RoundDone(info)
	}
}
