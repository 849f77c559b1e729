package latency

// Effect is what a scenario overlay adds to one ping: a multiplicative
// RTT factor, an extra loss probability, and a hard availability mask.
// The zero Effect is NOT neutral (its factor is 0); use NeutralEffect.
type Effect struct {
	// RTTFactor multiplies the priced RTT. 1 is neutral; multiplying by
	// exactly 1.0 is bit-exact in IEEE 754, so a neutral effect cannot
	// perturb a single result.
	RTTFactor float64
	// ExtraLoss is an additional per-ping loss probability applied after
	// the model's own loss draw. 0 is neutral and consumes no draw, so a
	// neutral effect leaves every stream's consumption unchanged.
	ExtraLoss float64
	// Down marks the path unavailable: the ping is lost before any draw.
	Down bool
}

// NeutralEffect is the identity overlay effect: pings priced under it
// are bit-identical to pings priced with no overlay at all.
func NeutralEffect() Effect { return Effect{RTTFactor: 1} }

// Overlay perturbs ping pricing for one measurement round without
// touching the engine's cached path state. Implementations must be safe
// for concurrent use and allocation-free: PairEffect runs on the ping
// hot path, once per train.
//
// The overlay sees city-level granularity — the (src city, dst city)
// attachment points of the two endpoints — which is what timeline events
// (IXP outages, regional congestion, diurnal load) are expressed in.
type Overlay interface {
	PairEffect(cityA, cityB int) Effect
}

// View is an Engine bound to an optional per-round Overlay. It is a
// value: constructing one allocates nothing, so the campaign can rebind
// the overlay every round for free. Its ResolveBatch and
// PingTrainSchedHandle are the only way a ping is priced; a nil overlay
// prices every ping under NeutralEffect.
type View struct {
	e  *Engine
	ov Overlay
}

// View binds an overlay to the engine. ov may be nil for the neutral
// view.
func (e *Engine) View(ov Overlay) View { return View{e: e, ov: ov} }

// effect is the overlay's effect on pings from a to b, or NeutralEffect
// for the neutral view. ResolveBatch resolves it once per pair: events
// are round-granular, and a train spans one round's window, so an
// active overlay adds two array loads per train, not per slot.
func (v View) effect(a, b *Line) Effect {
	if v.ov == nil {
		return NeutralEffect()
	}
	return v.ov.PairEffect(a.key.City, b.key.City)
}
