package measure

import (
	"slices"
	"sync"
	"time"

	"shortcuts/internal/sim"
)

// feasMemo memoizes the Section-2.4 feasibility structure per endpoint
// *city pair*. The speed-of-light filter compares
//
//	2 * (prop(srcCity, relayCity) + prop(relayCity, dstCity)) <= directRTT
//
// whose left side depends only on the three cities — not on which
// endpoint or relay happens to occupy them, and not on the round. So for
// each (srcCity, dstCity) the relay cities admit a fixed ranking by that
// ideal relayed RTT, computed once per campaign: a relay city is feasible
// for a given direct RTT iff its rank is below the count of ideals <=
// directRTT (one binary search per endpoint pair per round). The
// per-(pair x relay) check in the round loop collapses to a single
// uint16 load and compare, replacing two propagation-matrix loads plus
// arithmetic for each of the hundreds of millions of checks a campaign
// performs.
//
// The memo is exact, not approximate: rank(c) < upperBound(directRTT)
// holds iff ideal(c) <= directRTT, because ranks are assigned along the
// ascending ideal ordering (ties get distinct ranks, but every tied city
// falls on the same side of any threshold). The round loop cross-checks
// this equivalence in tests against the direct arithmetic predicate.
type feasMemo struct {
	nc   int
	prop []time.Duration // flat nc x nc one-way propagation delays

	// relayCities is the ascending set of cities hosting at least one
	// catalog relay — the only cities a ranking needs to cover.
	relayCities []int32

	// pairs maps canonical (loCity*nc + hiCity) to the memoized ranking;
	// entries are built lazily as city pairs appear in the endpoint
	// sample. The memo is shared by every campaign over one world (via
	// World.SharedCache), and a sweep runs campaigns concurrently, so
	// the map is guarded; entries themselves are immutable once stored.
	mu    sync.RWMutex
	pairs map[int64]*cityFeas

	// Slab state, guarded by mu (build runs under the write lock): a
	// first round faults in thousands of pair entries, and four heap
	// allocations per entry dominated its profile. Entries now carve
	// their struct, ideal array and rank array out of shared slabs
	// (feasSlabPairs entries per slab), and the sort scratch is reused
	// across builds, so the build burst costs a few dozen allocations
	// instead of tens of thousands.
	ranked    []cityIdeal
	cfSlab    []cityFeas
	idealSlab []time.Duration
	rankSlab  []uint16
}

// noRelayRank marks a city hosting no relays; it compares >= any
// feasible-rank threshold, so such cities are never feasible.
const noRelayRank = ^uint16(0)

// cityFeas is the memoized feasibility ranking of one endpoint city
// pair.
type cityFeas struct {
	// sortedIdeal holds the ideal relayed RTTs (2 * (prop(a,c) +
	// prop(c,b))) of every relay city, ascending.
	sortedIdeal []time.Duration
	// rank maps a city to its position in sortedIdeal (noRelayRank for
	// cities without relays).
	rank []uint16
}

func newFeasMemo(w *sim.World, nc int, prop []time.Duration) *feasMemo {
	seen := make([]bool, nc)
	for i := range w.Catalog.Relays {
		seen[w.Catalog.Relays[i].City] = true
	}
	m := &feasMemo{nc: nc, prop: prop, pairs: make(map[int64]*cityFeas)}
	for c, ok := range seen {
		if ok {
			m.relayCities = append(m.relayCities, int32(c))
		}
	}
	return m
}

// cityIdeal is the feasibility sort record: one relay city and its ideal
// relayed RTT for the pair being built.
type cityIdeal struct {
	ideal time.Duration
	city  int32
}

// feasSlabPairs is the slab granularity: how many pair entries each
// struct/ideal/rank slab serves before the next slab is allocated.
const feasSlabPairs = 256

// pairFeas returns (building on first use) the ranking for the
// (cityA, cityB) endpoint pair. The ideal is symmetric in the endpoint
// cities, so both orientations share one entry. Builds run under the
// write lock — they draw on the memo's shared slabs — so concurrent
// campaigns faulting the same pair build it exactly once.
func (m *feasMemo) pairFeas(cityA, cityB int) *cityFeas {
	lo, hi := cityA, cityB
	if lo > hi {
		lo, hi = hi, lo
	}
	key := int64(lo)*int64(m.nc) + int64(hi)
	m.mu.RLock()
	cf := m.pairs[key]
	m.mu.RUnlock()
	if cf != nil {
		return cf
	}
	m.mu.Lock()
	if cf = m.pairs[key]; cf == nil {
		cf = m.build(lo, hi)
		m.pairs[key] = cf
	}
	m.mu.Unlock()
	return cf
}

// build constructs one pair entry from the memo's slabs. The caller
// holds m.mu.
func (m *feasMemo) build(lo, hi int) *cityFeas {
	nrc := len(m.relayCities)
	if cap(m.ranked) < nrc {
		m.ranked = make([]cityIdeal, nrc)
	}
	ranked := m.ranked[:nrc]
	for i, c := range m.relayCities {
		ideal := 2 * (m.prop[lo*m.nc+int(c)] + m.prop[int(c)*m.nc+hi])
		ranked[i] = cityIdeal{ideal: ideal, city: c}
	}
	slices.SortFunc(ranked, func(a, b cityIdeal) int {
		if a.ideal != b.ideal {
			if a.ideal < b.ideal {
				return -1
			}
			return 1
		}
		return int(a.city - b.city) // deterministic tie order
	})
	if len(m.cfSlab) == 0 {
		m.cfSlab = make([]cityFeas, feasSlabPairs)
		m.idealSlab = make([]time.Duration, feasSlabPairs*nrc)
		m.rankSlab = make([]uint16, feasSlabPairs*m.nc)
	}
	cf := &m.cfSlab[0]
	m.cfSlab = m.cfSlab[1:]
	cf.sortedIdeal = m.idealSlab[:nrc:nrc]
	m.idealSlab = m.idealSlab[nrc:]
	cf.rank = m.rankSlab[:m.nc:m.nc]
	m.rankSlab = m.rankSlab[m.nc:]
	for i := range cf.rank {
		cf.rank[i] = noRelayRank
	}
	for i, ci := range ranked {
		cf.sortedIdeal[i] = ci.ideal
		cf.rank[ci.city] = uint16(i)
	}
	return cf
}

// feasibleRank returns the rank threshold for one endpoint pair's direct
// RTT: relay city c is feasible iff rank[c] < feasibleRank(directRTT).
func (cf *cityFeas) feasibleRank(directRTT time.Duration) uint16 {
	lo, hi := 0, len(cf.sortedIdeal)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if cf.sortedIdeal[mid] <= directRTT {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return uint16(lo)
}
