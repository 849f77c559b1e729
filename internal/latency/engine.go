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
// the congestion-scaled wide-area RTT, the asymmetry draw, the diurnal
// amplitude and the ordered city pair. Each resolve adds the two
// endpoints' access terms on the stack, so every host behind the same
// attachments shares one entry.
//
// Every ping is priced one way: Engine.Line binds an endpoint to its
// line, View.ResolveBatch resolves a batch of line pairs into
// PairHandles, and View.PingTrainSchedHandle prices one handle's train
// on a Schedule from Engine.Schedule. The two pure functions a train
// would otherwise recompute are memoized where their inputs stop
// changing: a Line carries its line-scaled access delay, drawn once per
// binding, and a Schedule carries the diurnal load of every ordered city
// pair at every slot, so a ping's only transcendental work is its own
// jitter draw. Resolving and pricing are allocation-free: per-ping draws
// come from value-type rng.Streams (a Derive is a hash, not a generator
// allocation), pair identities are hashed with an inlined FNV-1a over
// fixed-size buffers, and a handle carries its composed pathState by
// value, so pricing any line pair over a cached attachment pair touches
// no heap at all.
package latency

import (
	"sync"
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
	nc     int // city count: ordered city pair (lo, hi) is lo*nc + hi

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

	// midLon is the path-midpoint longitude of every ordered city pair,
	// built on the first Schedule so that world build never pays for it.
	midOnce sync.Once
	midLon  []float64
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
// identity without the access delay. ASNs fit the 4-byte ASN space.
type attachment struct {
	AS   uint32
	City int32
}

// netKey is the canonical identity of an attachment pair, the key of
// the path-state cache.
type netKey struct {
	lo, hi attachment
}

// netKeyOf returns the attachment pair of a canonically ordered line
// pair. less orders by (AS, city) before access, so the result is
// canonical too: access only breaks ties between two endpoints on one
// attachment, where lo and hi are the same point either way.
func netKeyOf(lo, hi *Line) netKey {
	return netKey{lo: lo.key.attachment(), hi: hi.key.attachment()}
}

// netState is the cached state of one attachment pair: everything about
// a path that derives from its two (AS, city) points. It holds scalars
// only: the PoP polylines are recomputed on demand (the router memoises
// its routing trees, which makes re-expansion cheap).
type netState struct {
	wide       float64 // congestion-scaled wide-area RTT, in float ns
	asym       float64 // asymmetry draw: 1+asym prices lo->hi, 1-asym hi->lo
	diurnalAmp float64
	cityPair   int32 // ordered city pair lo.City*nc + hi.City: the Schedule row
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
	cityPair   int32
	hp         uint64 // the pair's FNV fold: the key of the per-ping draw streams
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
		nc:          len(router.Topology().Cities),
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
	if err := e.router.ExpandInto(&fwd, topology.ASN(lo.AS), int(lo.City), topology.ASN(hi.AS), int(hi.City)); err != nil {
		return netState{}, err
	}
	if err := e.router.ExpandInto(&rev, topology.ASN(hi.AS), int(hi.City), topology.ASN(lo.AS), int(lo.City)); err != nil {
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
	asym := g.Normal(0, e.p.AsymmetrySigma)
	return netState{
		wide:       float64(wide) * congestion,
		asym:       asym,
		diurnalAmp: g.Uniform(0, e.p.DiurnalAmpMax),
		cityPair:   lo.City*int32(e.nc) + hi.City,
	}, nil
}

// compose resolves a canonically ordered line pair over its attachment
// pair's cached state, priced lo->hi when fwd and hi->lo otherwise. The
// lines' access delays, already scaled by each line's quality factor,
// are charged out and back; the sum adds to the rounded wide-area
// product exactly as one wide*congestion + access expression evaluates.
// The direction keys on the full endpoint identity, so two endpoints on
// one attachment still pick opposite factors.
func (e *Engine) compose(ns *netState, lo, hi *Line, fwd bool) pathState {
	asym := 1 + ns.asym
	if !fwd {
		asym = 1 - ns.asym
	}
	return pathState{
		static:     ns.wide + float64(2*(lo.access+hi.access)),
		asym:       asym,
		diurnalAmp: ns.diurnalAmp,
		cityPair:   ns.cityPair,
		hp:         hashEndpointKey(lo.h, hi.key),
	}
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
// hash: its attachment point, then 8 bytes of the access delay. Folded
// from FNVOffset64 it keys the endpoint's line-quality draw; folding the
// hi endpoint onto the lo endpoint's fold keys the pair's ping draws.
func hashEndpointKey(h uint64, k EndpointKey) uint64 {
	h = hashAttachment(h, k.attachment())
	return rng.FNVUint64(h, uint64(k.Access))
}

// BaseRTT returns the load-independent RTT between two endpoints: the
// wide-area component scaled by the path's static congestion multiplier
// plus the line-scaled access delays. This is what the medians of
// repeated pings converge to at off-peak hours.
func (e *Engine) BaseRTT(a, b Endpoint) (time.Duration, error) {
	st, err := e.resolvePair(e.Line(a), e.Line(b))
	if err != nil {
		return 0, err
	}
	return time.Duration(st.static), nil
}

// pingSlot prices one ping slot against resolved path state, for
// PingTrainSchedHandle; load is the slot's diurnal load on the path's
// city pair (Schedule). eff is the scenario overlay effect for the pair
// (NeutralEffect when no scenario is active). A neutral effect is
// draw-for-draw and bit-for-bit identical to the pre-overlay pricing:
// Down skips draws only when set, ExtraLoss consumes a draw only when
// positive, and multiplying by an RTTFactor of exactly 1.0 is exact in
// IEEE 754. A path with no diurnal amplitude skips its factor of 1 for
// the same reason.
func (e *Engine) pingSlot(st *pathState, round, slot int, load float64, eff Effect) (time.Duration, bool) {
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
	if st.diurnalAmp != 0 {
		rtt *= 1 + st.diurnalAmp*load
	}
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

// resolvePair resolves one line pair, priced from a to b, for BaseRTT:
// the attachment pair's cached state composed with the pair's access
// term, the a->b direction factor and the pair hash (the per-ping RNG
// stream key). ResolveBatch composes through the same compose, so the
// two resolutions cannot diverge.
func (e *Engine) resolvePair(a, b Line) (pathState, error) {
	lo, hi := ordered(&a, &b)
	ns, err := e.netStateOf(netKeyOf(lo, hi))
	if err != nil {
		return pathState{}, err
	}
	return e.compose(ns, lo, hi, lo == &a), nil
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
