package latency

import "time"

// PingSample is one slot of a ping train: the observed RTT and whether a
// reply arrived at all.
type PingSample struct {
	RTT time.Duration
	OK  bool
}

// PingTrain simulates the round's whole ping train from a to b in one
// call: len(out) pings starting at t0, spaced by interval, filling out
// slot by slot. Slot s is bit-identical to Ping(a, b, round, s,
// t0.Add(s*interval)) — the train is purely an amortisation: the
// canonical key, pair hash, cache lookup and direction factor are
// resolved once per train instead of once per slot, and nothing in the
// loop touches the heap.
//
// The campaign calls this millions of times per run; it performs zero
// allocations once the pair's path state is cached.
func (e *Engine) PingTrain(a, b Endpoint, round int, t0 time.Time, interval time.Duration, out []PingSample) error {
	if len(out) == 0 {
		return nil
	}
	st, err := e.resolvePair(a, b)
	if err != nil {
		return err
	}
	for slot := range out {
		at := t0.Add(time.Duration(slot) * interval)
		rtt, ok := e.pingSlot(&st, round, slot, hourFracOf(at), NeutralEffect())
		out[slot] = PingSample{RTT: rtt, OK: ok}
	}
	return nil
}

// PingTrainSched is PingTrain with the slot wall-times pre-decomposed:
// hourFrac[slot] is slot s's UTC hour-of-day fraction, as produced by
// SlotHourFracs over the same (t0, interval). Every pair of a campaign
// round prices against the same slot schedule, so the per-ping time
// decomposition hoists to once per round; the samples are bit-identical
// to PingTrain's. len(hourFrac) must cover len(out). Once the pair's
// attachment pair is cached, it allocates nothing, even for an endpoint
// pair never priced before: this is the sampled direct-pair path.
func (v View) PingTrainSched(a, b Endpoint, round int, hourFrac []float64, out []PingSample) error {
	if len(out) == 0 {
		return nil
	}
	st, err := v.e.resolvePair(a, b)
	if err != nil {
		return err
	}
	h := PairHandle{st: st, eff: v.effect(a, b)}
	v.PingTrainSchedHandle(&h, round, hourFrac, out)
	return nil
}
