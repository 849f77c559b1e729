// Package latency prices round-trip times over the synthetic Internet.
//
// An RTT between two endpoints decomposes as:
//
//	RTT = forward one-way + reverse one-way
//	one-way = propagation(PoP polyline · directness) +
//	          perASHop · AS boundaries + perCityHop · segments +
//	          access delay of both endpoints
//
// scaled by a per-path static congestion multiplier (log-normal with a
// pathological tail) and a per-path diurnal factor, with per-ping
// multiplicative jitter, occasional heavy spikes and loss on top.
//
// All stochastic draws derive from (seed, path identity) or (seed, path
// identity, round, slot), never from call order, so concurrent campaigns
// are bit-for-bit reproducible.
//
// Every wide-area trait of a path (its BGP routes, congestion, asymmetry
// and diurnal load) derives from the pair's two (AS, city) attachment
// points; only the access delay belongs to the endpoint itself. The
// path-state cache is therefore keyed by the attachment pair, and holds
// the congestion-scaled wide-area RTT, both asymmetry factors and the
// diurnal traits. Each resolve adds the two endpoints' access terms on
// the stack, so every host behind the same attachments shares one entry.
//
// Every ping is priced one way: View.ResolveBatch resolves a batch of
// endpoint pairs into PairHandles, and View.PingTrainSchedHandle prices
// one handle's train on a slot schedule from SlotHourFracs. That path is
// allocation-free: per-ping draws come from value-type rng.Streams (a
// Derive is a hash, not a generator allocation), pair identities are
// hashed with an inlined FNV-1a over fixed-size buffers, and a handle
// carries its composed pathState by value, so pricing any endpoint pair
// over a cached attachment pair touches no heap at all.
package latency

import (
	"math"
	"time"

	"shortcuts/internal/bgp"
	"shortcuts/internal/geo"
	"shortcuts/internal/rng"
	"shortcuts/internal/topology"
)

// Engine computes RTTs. Safe for concurrent use.
//
// The attachment-pair path-state cache is split into power-of-two shards
// keyed by the pair hash, so a worker pool hammering the cache contends on
// 1/N-th of the lock traffic instead of one global RWMutex. The shard
// count is a pure performance knob: results are bit-for-bit identical
// for any value (all stochastic draws derive from path identity, never
// from cache layout).
type Engine struct {
	router *bgp.Router
	p      Params

	// base is the value-type stream every per-path, per-endpoint and
	// per-ping draw derives from. It is never advanced, only Derived, so
	// any number of goroutines share it without synchronisation.
	base rng.Stream

	shards []cacheShard
	mask   uint64

	// Frozen Derive prefixes of the three per-identity draw families
	// (rng.Prefix): the hot paths derive millions of streams per round
	// under these fixed labels, so the (state, label) fold is paid once
	// here instead of per derivation. pingPre.At(h) == base.Derive("ping", h).
	pingPre     rng.Prefix
	pathPre     rng.Prefix
	endpointPre rng.Prefix
}

// pairKey is the canonical (unordered) identity of an endpoint pair.
// The ping draws, the direction of the asymmetry factor and the access
// factors key on it; the path-state cache keys on its attachment pair.
type pairKey struct {
	lo, hi EndpointKey
}

func canonicalKey(a, b Endpoint) pairKey {
	ka, kb := a.Key(), b.Key()
	if less(kb, ka) {
		ka, kb = kb, ka
	}
	return pairKey{lo: ka, hi: kb}
}

func less(a, b EndpointKey) bool {
	if a.AS != b.AS {
		return a.AS < b.AS
	}
	if a.City != b.City {
		return a.City < b.City
	}
	return a.Access < b.Access
}

// attachment is the (AS, city) point an endpoint attaches at: its
// identity without the access delay.
type attachment struct {
	AS   topology.ASN
	City int
}

// netKey is the canonical identity of an attachment pair, the key of
// the path-state cache.
type netKey struct {
	lo, hi attachment
}

// net returns the attachment pair of an endpoint pair. less orders by
// (AS, city) before access, so the result is canonical too: access only
// breaks ties between two endpoints on one attachment, where lo and hi
// are the same point either way.
func (k pairKey) net() netKey {
	return netKey{
		lo: attachment{AS: k.lo.AS, City: k.lo.City},
		hi: attachment{AS: k.hi.AS, City: k.hi.City},
	}
}

// netState is the cached state of one attachment pair: everything about
// a path that derives from its two (AS, city) points. It holds scalars
// only: the PoP polylines are recomputed on demand (the router memoises
// its routing trees, which makes re-expansion cheap).
type netState struct {
	wide       float64 // congestion-scaled wide-area RTT, in float ns
	fwdAsym    float64 // multiplier in the canonical lo->hi direction
	revAsym    float64 // multiplier in the hi->lo direction
	diurnalAmp float64
	midLon     float64 // longitude of the path midpoint, for local time
}

// pathState is the resolved state of one endpoint pair in one
// direction: its attachment pair's netState plus the pair's access term,
// with the direction's asymmetry factor picked, and the pair's ping-draw
// identity. Resolves compose it by value on the stack; everything a ping
// multiplies by is here, once per train instead of once per slot.
type pathState struct {
	static     float64 // wide-area RTT plus line-scaled access, in float ns
	asym       float64 // asymmetry factor of the priced direction
	diurnalAmp float64
	midLon     float64
	hp         uint64 // hashPair: the key of the per-ping draw streams
}

// DefaultCacheShards is the path-state shard count used when
// Params.CacheShards is zero.
const DefaultCacheShards = 64

// New creates an engine over the given router with the given parameters;
// root drives all stochastic draws.
func New(router *bgp.Router, p Params, root *rng.Rand) *Engine {
	n := p.CacheShards
	if n <= 0 {
		n = DefaultCacheShards
	}
	n = ceilPow2(n)
	// Shard tables start empty and allocate their first slab on first
	// insert, so a high shard count costs nothing until pairs are cached.
	base := root.Stream("latency")
	return &Engine{
		router:      router,
		p:           p,
		base:        base,
		shards:      make([]cacheShard, n),
		mask:        uint64(n - 1),
		pingPre:     base.Prefix("ping"),
		pathPre:     base.Prefix("path"),
		endpointPre: base.Prefix("endpoint"),
	}
}

// shardOf maps a normalized pair hash to its cache shard. The shard
// index must come from hash bits the shard's pairTable does not probe
// by: the table's slot index is h & (cap-1) — the LOW bits — so taking
// the shard from the low bits too would leave every hash in a shard
// congruent mod the shard count. Only one slot in shardCount is then a
// home slot, entries collapse onto long linear runs, and a warm get
// scans dozens of slots instead of one or two. Bits 32.. are free of
// the slot index for any table under 2^32 entries per shard.
func (e *Engine) shardOf(h uint64) uint64 { return (h >> 32) & e.mask }

// ceilPow2 rounds n up to the next power of two.
func ceilPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// Params returns the engine's calibration constants.
func (e *Engine) Params() Params { return e.p }

// NumShards reports the path-state cache shard count.
func (e *Engine) NumShards() int { return len(e.shards) }

// netStateOf returns the cached state of an attachment pair, computing
// and admitting it on a miss. It hashes with the cheap tableHash — not
// an FNV draw identity — so the read path's critical chain is a few
// multiplies ahead of the probe loads (see tableHash).
func (e *Engine) netStateOf(key netKey) (*netState, error) {
	return e.netStateByHash(tableHash(key), key)
}

// netStateByHash is netStateOf with the table hash already in hand (the
// batched resolver computes it during its prefetch pass). The fast path
// is a single lock-free shard lookup; only a miss takes the shard
// mutex, and then solely to admit the freshly computed state.
func (e *Engine) netStateByHash(h uint64, key netKey) (*netState, error) {
	s := &e.shards[e.shardOf(h)]
	if ns := s.lookup(h, key); ns != nil {
		return ns, nil
	}
	computed, err := e.computeNetState(key)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	ns := s.lookup(h, key)
	if ns == nil {
		ns = s.insertLocked(h, key, computed)
	} // else a racing worker won; keep its slot
	s.mu.Unlock()
	return ns, nil
}

// computeNetState expands both BGP routes of an attachment pair and
// draws its path traits. The wide-area component is scaled by a
// per-path congestion factor derived from the attachment pair itself,
// never from call order, so two hosts behind the same attachments share
// traits and concurrent campaigns reproduce exactly.
func (e *Engine) computeNetState(key netKey) (netState, error) {
	lo, hi := key.lo, key.hi
	var fwd, rev bgp.PopPath
	if err := e.router.ExpandInto(&fwd, lo.AS, lo.City, hi.AS, hi.City); err != nil {
		return netState{}, err
	}
	if err := e.router.ExpandInto(&rev, hi.AS, hi.City, lo.AS, lo.City); err != nil {
		return netState{}, err
	}

	oneway := func(p *bgp.PopPath) time.Duration {
		prop := geo.PropDelay(p.DistanceKm * e.p.RouteDirectness)
		hops := time.Duration(p.ASHops())*e.p.PerASHop +
			time.Duration(p.CityHops())*e.p.PerCityHop
		return prop + hops
	}
	wide := oneway(&fwd) + oneway(&rev)

	g := e.pathPre.At(hashNetPath(key))
	congestion := e.p.CongestionMedian * g.LogNormal(0, e.p.CoreCongestionSigma)
	if g.Bool(e.p.BadPathProb) {
		congestion *= g.Uniform(e.p.BadPathMin, e.p.BadPathMax)
	}
	topo := e.router.Topology()
	mid := geo.Midpoint(topo.CityLoc(lo.City), topo.CityLoc(hi.City))

	asym := g.Normal(0, e.p.AsymmetrySigma)
	return netState{
		wide:       float64(wide) * congestion,
		fwdAsym:    1 + asym,
		revAsym:    1 - asym,
		diurnalAmp: g.Uniform(0, e.p.DiurnalAmpMax),
		midLon:     mid.Lon,
	}, nil
}

// compose resolves the endpoint pair key, priced from a, over its
// attachment pair's cached state. Access delay is scaled by each
// endpoint's own line-quality factor and charged out and back; the sum
// adds to the rounded wide-area product exactly as one
// wide*congestion + access expression evaluates. The direction keys on
// the full endpoint identity, so two endpoints on one attachment still
// pick opposite factors.
func (e *Engine) compose(ns *netState, key pairKey, a Endpoint) pathState {
	access := 2 * (scaleDuration(key.lo.Access, e.accessFactor(key.lo)) +
		scaleDuration(key.hi.Access, e.accessFactor(key.hi)))
	asym := ns.fwdAsym
	if a.Key() != key.lo {
		asym = ns.revAsym
	}
	return pathState{
		static:     ns.wide + float64(access),
		asym:       asym,
		diurnalAmp: ns.diurnalAmp,
		midLon:     ns.midLon,
		hp:         hashPair(key),
	}
}

func scaleDuration(d time.Duration, f float64) time.Duration {
	return time.Duration(float64(d) * f)
}

// accessFactor is the static line-quality multiplier of one endpoint's
// access delay. It is a pure function of the endpoint's full identity, so
// a congested DSL line is consistently congested across every path it
// terminates or relays.
func (e *Engine) accessFactor(k EndpointKey) float64 {
	g := e.endpointPre.At(hashEndpointKey(rng.FNVOffset64, k))
	return g.LogNormal(0, e.p.AccessCongestionSigma)
}

func hashPair(key pairKey) uint64 {
	h := hashEndpointKey(rng.FNVOffset64, key.lo)
	return hashEndpointKey(h, key.hi)
}

// hashNetPath hashes an attachment pair, so path traits are shared by
// co-attached hosts.
func hashNetPath(key netKey) uint64 {
	h := hashAttachment(rng.FNVOffset64, key.lo)
	return hashAttachment(h, key.hi)
}

// hashAttachment folds an attachment point into a running FNV-1a hash
// (rng's inlined zero-alloc fold): 8 little-endian bytes of AS, 4 of
// city.
func hashAttachment(h uint64, a attachment) uint64 {
	h = rng.FNVUint64(h, uint64(a.AS))
	return rng.FNVUint32(h, uint32(a.City))
}

// hashEndpointKey folds an endpoint identity into a running FNV-1a
// hash: its attachment point, then 8 bytes of the access delay.
func hashEndpointKey(h uint64, k EndpointKey) uint64 {
	h = hashAttachment(h, attachment{AS: k.AS, City: k.City})
	return rng.FNVUint64(h, uint64(k.Access))
}

// BaseRTT returns the load-independent RTT between two endpoints: the
// wide-area component scaled by the path's static congestion multiplier
// plus the line-scaled access delays. This is what the medians of
// repeated pings converge to at off-peak hours.
func (e *Engine) BaseRTT(a, b Endpoint) (time.Duration, error) {
	st, err := e.resolvePair(a, b)
	if err != nil {
		return 0, err
	}
	return time.Duration(st.static), nil
}

// hourFracOf is the UTC hour-of-day fraction of t — the pair-invariant
// part of the diurnal phase. Every pair of a round pings at the same
// slot times, so SlotHourFracs decomposes each slot once per round
// instead of once per ping.
func hourFracOf(t time.Time) float64 {
	u := t.UTC()
	return float64(u.Hour()) + float64(u.Minute())/60
}

// diurnalFactorHour returns the load factor at UTC hour fraction
// hourFrac for a path whose midpoint is at longitude midLon: a sinusoid
// peaking at 21:00 local. The association (hourFrac first, then
// + midLon/15) is the one the golden digests were recorded with.
func diurnalFactorHour(hourFrac, amp, midLon float64) float64 {
	if amp == 0 {
		return 1
	}
	localHour := hourFrac + midLon/15
	phase := (localHour - 21) / 24 * 2 * math.Pi
	return 1 + amp*(0.5+0.5*math.Cos(phase))
}

// SlotHourFracs appends the hour fraction (hourFracOf) of each of n ping
// slots — t0, t0+interval, ... — to buf and returns it: the slot
// schedule PingTrainSchedHandle prices on. Campaigns price every train
// of a round on one schedule, so the wall-time decomposition runs once
// per round, not once per ping.
func SlotHourFracs(t0 time.Time, interval time.Duration, n int, buf []float64) []float64 {
	for slot := 0; slot < n; slot++ {
		buf = append(buf, hourFracOf(t0.Add(time.Duration(slot)*interval)))
	}
	return buf
}

// pingSlot prices one ping slot against resolved path state, for
// PingTrainSchedHandle. eff is the scenario overlay effect for the pair
// (NeutralEffect when no scenario is active). A neutral effect is
// draw-for-draw and bit-for-bit identical to the pre-overlay pricing:
// Down skips draws only when set, ExtraLoss consumes a draw only when
// positive, and multiplying by an RTTFactor of exactly 1.0 is exact in
// IEEE 754.
func (e *Engine) pingSlot(st *pathState, round, slot int, hourFrac float64, eff Effect) (time.Duration, bool) {
	if eff.Down {
		return 0, false
	}
	h := st.hp ^ uint64(round)<<32 ^ uint64(slot)<<16
	g := e.pingPre.At(h)

	if g.Bool(e.p.LossProb) {
		return 0, false
	}
	if eff.ExtraLoss > 0 && g.Bool(eff.ExtraLoss) {
		return 0, false
	}
	rtt := st.static
	rtt *= diurnalFactorHour(hourFrac, st.diurnalAmp, st.midLon)
	rtt *= st.asym
	rtt *= g.LogNormal(0, e.p.JitterSigma)
	if g.Bool(e.p.SpikeProb) {
		spike := time.Duration(g.Pareto(float64(e.p.SpikeMin), e.p.SpikeAlpha))
		if spike > e.p.SpikeCap {
			spike = e.p.SpikeCap
		}
		rtt += float64(spike)
	}
	return time.Duration(rtt * eff.RTTFactor), true
}

// resolvePair resolves one endpoint pair, priced from a to b, for
// BaseRTT: the attachment pair's cached state composed with the pair's
// access term, the a->b direction factor and the pair hash (the
// per-ping RNG stream key). ResolveBatch composes through the same
// compose, so the two resolutions cannot diverge.
func (e *Engine) resolvePair(a, b Endpoint) (pathState, error) {
	key := canonicalKey(a, b)
	ns, err := e.netStateOf(key.net())
	if err != nil {
		return pathState{}, err
	}
	return e.compose(ns, key, a), nil
}

// Trace returns the forward PoP-level path from a to b (the city polyline
// traffic follows), for traceroute-style analyses. Traces are recomputed
// on demand rather than cached; the router's memoised trees keep this
// cheap.
func (e *Engine) Trace(a, b Endpoint) (*bgp.PopPath, error) {
	return e.router.Expand(a.AS, a.City, b.AS, b.City)
}

// CachedPairs reports how many attachment pairs have cached path state,
// summed across shards. Endpoint pairs that differ only in access delay
// share one entry. CacheStats (cache.go) exposes the per-shard
// breakdown, including each open-addressed table's load factor.
func (e *Engine) CachedPairs() int {
	n := 0
	for i := range e.shards {
		s := &e.shards[i]
		s.mu.Lock()
		if t := s.tab.Load(); t != nil {
			n += t.n
		}
		s.mu.Unlock()
	}
	return n
}
