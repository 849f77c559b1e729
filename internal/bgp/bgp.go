// Package bgp computes inter-domain paths over a synthetic topology using
// the standard Gao-Rexford policy model: routes learned from customers are
// preferred over routes from peers, which are preferred over routes from
// providers; ties break on AS-path length and then on lowest next-hop ASN.
// Every computed path is valley-free (uphill, at most one peering edge,
// downhill).
//
// The package also walks AS-level paths at the city level: each AS
// boundary is crossed at one of the interconnection cities recorded on
// the link, chosen hot-potato style (the exit nearest to where the
// traffic currently is). Geographic path inflation — the root cause of
// the triangle-inequality violations the paper exploits — emerges from
// exactly this combination of policy routing and early-exit behaviour.
//
// A Router snapshots its topology at New into dense tables indexed by
// position: one adjacency row per AS and relationship, each entry
// carrying the index of its link; the routing tree toward each
// destination, published once computed; the exit memo per (link, city);
// and the city-to-city distance matrix. Walk reads only these tables,
// so it takes no lock and allocates nothing once its tree is built.
package bgp

import (
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"

	"shortcuts/internal/geo"
	"shortcuts/internal/par"
	"shortcuts/internal/topology"
)

// RouteClass ranks how a route was learned, in decreasing preference.
type RouteClass int8

const (
	// NoRoute marks unreachable destinations.
	NoRoute RouteClass = iota
	// ViaCustomer is a route learned from a customer (most preferred).
	ViaCustomer
	// ViaPeer is a route learned from a settlement-free peer.
	ViaPeer
	// ViaProvider is a route learned from a provider (least preferred).
	ViaProvider
)

// String implements fmt.Stringer.
func (c RouteClass) String() string {
	switch c {
	case NoRoute:
		return "none"
	case ViaCustomer:
		return "customer"
	case ViaPeer:
		return "peer"
	case ViaProvider:
		return "provider"
	default:
		return fmt.Sprintf("RouteClass(%d)", int8(c))
	}
}

// Router computes and caches valley-free routes over a topology. It is
// safe for concurrent use; per-destination routing trees are computed
// lazily, memoised, and deduplicated: concurrent callers asking for the
// same destination share one computation (singleflight) instead of
// racing to build identical trees.
type Router struct {
	topo *topology.Topology
	asns []topology.ASN // by dense index, the AS's position in the topology
	nc   int            // city count

	// slots is an open-addressed table from ASN to dense index, at most
	// half full, so a route resolves its endpoints without a map lookup.
	slots []asnSlot
	shift uint8 // 64 - log2(len(slots)): Fibonacci hashing keeps the top bits

	// adj holds every AS's neighbours as dense rows: adj[off[3*i+rel]:
	// off[3*i+rel+1]] lists AS i's providers, peers or customers (rel),
	// in the topology's order, each with the link joining them.
	adj []hop
	off []int32

	// trees[i] is the routing tree toward dense index i, nil until
	// computed; it is read without a lock, and mu guards only inflight.
	trees    []atomic.Pointer[tree]
	mu       sync.Mutex
	inflight map[int32]*treeCall

	scratch  sync.Pool    // *computeScratch, reused across compute calls
	computed atomic.Int64 // trees actually computed (not served from cache)

	// exits memoizes hot-potato exit cities per (link, fromCity) as
	// city+1 (0 = unset): the nearest-candidate scan is a pure function
	// of the snapshot, so racing fills store the same value.
	exits []atomic.Int32
	// km[a*nc+b] is geo.Distance from city a to city b.
	km []float64
}

// asnSlot is one slot of Router.slots; idx holds the dense index + 1,
// so the zero slot is empty.
type asnSlot struct {
	asn topology.ASN
	idx int32
}

// hop is one edge out of an AS: the dense index of the AS at its far
// end and the index in Topology.Links of the link joining them.
type hop struct{ as, link int32 }

// Adjacency rows, in the order New lays them out per AS.
const (
	providers = iota
	peers
	customers
)

// treeCall is one in-flight tree computation; waiters block on done and
// then read tr.
type treeCall struct {
	done chan struct{}
	tr   *tree
}

// tree is the routing state of every AS toward one destination.
type tree struct {
	class []RouteClass
	next  []hop // the selected next hop; {-1, -1} at the destination and without a route
}

// New creates a Router for the given topology. It snapshots the
// topology's ASes, adjacency, links and cities into dense tables, so
// the topology must be complete before New: what is added later is not
// routed. The city-distance matrix is filled here; routing trees and
// exit cities are computed on first use.
func New(topo *topology.Topology) *Router {
	n, nc := len(topo.ASes), len(topo.Cities)
	size := 2
	for size < 2*n {
		size *= 2
	}
	r := &Router{
		topo:     topo,
		asns:     make([]topology.ASN, n),
		nc:       nc,
		slots:    make([]asnSlot, size),
		shift:    uint8(64 - bits.TrailingZeros(uint(size))),
		adj:      make([]hop, 0, 2*len(topo.Links)),
		off:      make([]int32, 1, 3*n+1),
		trees:    make([]atomic.Pointer[tree], n),
		inflight: make(map[int32]*treeCall),
		exits:    make([]atomic.Int32, len(topo.Links)*nc),
		km:       make([]float64, nc*nc),
	}
	for i, a := range topo.ASes {
		r.asns[i] = a.ASN
		r.slots[r.slot(a.ASN)] = asnSlot{a.ASN, int32(i) + 1}
	}
	linkOf := make(map[*topology.Link]int32, len(topo.Links))
	for i, l := range topo.Links {
		linkOf[l] = int32(i)
	}
	for _, a := range r.asns {
		for _, row := range [...][]topology.ASN{topo.Providers(a), topo.Peers(a), topo.Customers(a)} {
			for _, b := range row {
				r.adj = append(r.adj, hop{as: r.indexOf(b), link: linkOf[topo.LinkBetween(a, b)]})
			}
			r.off = append(r.off, int32(len(r.adj)))
		}
	}
	for a := range nc {
		for b := range nc {
			r.km[a*nc+b] = geo.Distance(topo.CityLoc(a), topo.CityLoc(b))
		}
	}
	return r
}

// slot returns the slot that holds asn, or the empty slot it would take.
func (r *Router) slot(asn topology.ASN) int {
	i := int(uint64(asn) * 0x9e3779b97f4a7c15 >> r.shift)
	for r.slots[i].idx != 0 && r.slots[i].asn != asn {
		i = (i + 1) & (len(r.slots) - 1)
	}
	return i
}

// indexOf returns asn's dense index, or -1 for an AS not in the topology.
func (r *Router) indexOf(asn topology.ASN) int32 { return r.slots[r.slot(asn)].idx - 1 }

// row returns AS i's neighbours of one relationship.
func (r *Router) row(i int32, rel int) []hop {
	k := 3*int(i) + rel
	return r.adj[r.off[k]:r.off[k+1]]
}

// Topology returns the topology this router operates on.
func (r *Router) Topology() *topology.Topology { return r.topo }

// TreeComputations reports how many routing trees have actually been
// computed (cache hits and singleflight waiters excluded).
func (r *Router) TreeComputations() int64 { return r.computed.Load() }

// CachedTrees reports how many destination trees are memoised.
func (r *Router) CachedTrees() int {
	n := 0
	for i := range r.trees {
		if r.trees[i].Load() != nil {
			n++
		}
	}
	return n
}

// treeFor returns the routing tree toward dense index di, computing it
// on first use. Concurrent callers for the same uncomputed destination
// are coalesced onto a single computation.
func (r *Router) treeFor(di int32) *tree {
	if tr := r.trees[di].Load(); tr != nil {
		return tr
	}
	r.mu.Lock()
	if tr := r.trees[di].Load(); tr != nil {
		r.mu.Unlock()
		return tr
	}
	if c, ok := r.inflight[di]; ok {
		r.mu.Unlock()
		<-c.done
		return c.tr
	}
	c := &treeCall{done: make(chan struct{})}
	r.inflight[di] = c
	r.mu.Unlock()

	tr := r.compute(di)
	r.computed.Add(1)

	r.mu.Lock()
	r.trees[di].Store(tr)
	delete(r.inflight, di)
	r.mu.Unlock()

	c.tr = tr
	close(c.done)
	return tr
}

// Warm precomputes the routing trees toward every given destination
// on par.For (workers <= 0 means GOMAXPROCS). An unknown destination
// is an error before any tree is computed.
// Destinations already cached cost nothing; duplicates are deduplicated.
// Warming the campaign's destination set at world build removes the
// cold-start serialization otherwise paid during round 0.
func (r *Router) Warm(dsts []topology.ASN, workers int) error {
	// Dedupe and drop already-cached destinations up front.
	seen := make(map[int32]bool, len(dsts))
	var todo []int32
	for _, d := range dsts {
		di := r.indexOf(d)
		if di < 0 {
			return fmt.Errorf("bgp: warm: unknown destination AS %d", d)
		}
		if seen[di] || r.trees[di].Load() != nil {
			continue
		}
		seen[di] = true
		todo = append(todo, di)
	}
	return par.For(len(todo), workers, func(_, i int) error {
		r.treeFor(todo[i])
		return nil
	})
}

// cand is an AS's best route of one class: its length and next hop.
type cand struct {
	dist int32
	next hop
}

const inf = int32(1 << 30)

var unset = cand{dist: inf, next: hop{as: -1, link: -1}}

// computeScratch holds the per-computation working set. compute runs
// once per destination and needs three n-sized candidate arrays plus a
// queue and phase 3's buckets; pooling the whole set removes that churn
// when thousands of trees are computed (warmup, campaigns over many
// destinations).
type computeScratch struct {
	cust, peer, prov []cand
	queue            []int32
	// buckets is phase 3's bucket queue: bucket d, at words*d, is the
	// bitset of nodes queued at route length d.
	buckets []uint64
	words   int
}

func (s *computeScratch) reset(n int) {
	if cap(s.cust) < n {
		s.cust, s.peer, s.prov = make([]cand, n), make([]cand, n), make([]cand, n)
	}
	s.cust, s.peer, s.prov = s.cust[:n], s.peer[:n], s.prov[:n]
	for i := range n {
		s.cust[i], s.peer[i], s.prov[i] = unset, unset, unset
	}
	s.queue = s.queue[:0]
	s.buckets, s.words = s.buckets[:0], (n+63)/64
}

// push queues node x in bucket d, growing the queue by zeroed buckets
// up to d.
func (s *computeScratch) push(x, d int32) {
	k := int(d)*s.words + int(x>>6)
	if k >= len(s.buckets) {
		s.buckets = append(s.buckets, make([]uint64, (int(d)+1)*s.words-len(s.buckets))...)
	}
	s.buckets[k] |= 1 << (x & 63)
}

// compute builds the valley-free routing tree toward dense index di
// using the three-phase algorithm: customer routes spread up the
// provider hierarchy from di, peer routes take one lateral step,
// provider routes spread down to customer cones via a shortest-path
// pass keyed on each node's selected best-route length. Each selected
// next hop records the link of the adjacency entry it was relaxed over.
func (r *Router) compute(di int32) *tree {
	n := len(r.asns)

	s, _ := r.scratch.Get().(*computeScratch)
	if s == nil {
		s = &computeScratch{}
	}
	s.reset(n)
	defer r.scratch.Put(s)
	cust, peer, prov := s.cust, s.peer, s.prov

	// Phase 1: customer routes. di announces to its providers, who
	// announce to their providers, and so on. BFS guarantees shortest
	// paths; the ASN tie-break keeps trees deterministic.
	cust[di].dist = 0
	queue := append(s.queue, di)
	for head := 0; head < len(queue); head++ {
		x := queue[head]
		nd := cust[x].dist + 1
		for _, h := range r.row(x, providers) {
			c := &cust[h.as]
			if nd < c.dist || (nd == c.dist && better(r.asns[x], c.next.as, r.asns)) {
				if c.dist == inf {
					queue = append(queue, h.as)
				}
				*c = cand{nd, hop{x, h.link}}
			}
		}
	}
	s.queue = queue[:0]

	// Phase 2: peer routes. One lateral step from any AS holding a
	// customer route.
	for x := range int32(n) {
		if cust[x].dist == inf {
			continue
		}
		nd := cust[x].dist + 1
		for _, h := range r.row(x, peers) {
			c := &peer[h.as]
			if nd < c.dist || (nd == c.dist && better(r.asns[x], c.next.as, r.asns)) {
				*c = cand{nd, hop{x, h.link}}
			}
		}
	}

	// Phase 3: provider routes. An AS forwards along its own selected
	// best route, so the distance seeded into the downhill pass is the
	// length of each node's best customer-or-peer route; customers then
	// extend whatever their provider selected. Every edge weighs 1, so
	// a bucket queue keyed by length (Dial's algorithm) pops nodes in
	// (length, node) order: a node taken from bucket d queues its
	// customers in bucket d+1, and each bucket's bitset is walked in
	// ascending node order.
	best := func(i int32) (RouteClass, cand) {
		switch {
		case cust[i].dist != inf:
			return ViaCustomer, cust[i]
		case peer[i].dist != inf:
			return ViaPeer, peer[i]
		case prov[i].dist != inf:
			return ViaProvider, prov[i]
		default:
			return NoRoute, unset
		}
	}
	for x := range int32(n) {
		if cls, b := best(x); cls == ViaCustomer || cls == ViaPeer {
			s.push(x, b.dist)
		}
	}
	for d := int32(0); int(d)*s.words < len(s.buckets); d++ {
		bucket := int(d) * s.words
		for j := range s.words {
			// Relaxing pushes only to bucket d+1, so this word is final.
			for w := s.buckets[bucket+j]; w != 0; w &= w - 1 {
				x := int32(j<<6 + bits.TrailingZeros64(w))
				if _, b := best(x); d > b.dist {
					continue // stale entry
				}
				nd := d + 1
				for _, h := range r.row(x, customers) {
					c := &prov[h.as]
					if nd < c.dist || (nd == c.dist && better(r.asns[x], c.next.as, r.asns)) {
						updated := nd < c.dist
						*c = cand{nd, hop{x, h.link}}
						// Only re-queue when the provider route is the node's
						// selected best; otherwise its forwarding is unchanged.
						if cls, b := best(h.as); updated && cls == ViaProvider {
							s.push(h.as, b.dist)
						}
					}
				}
			}
		}
	}

	tr := &tree{
		class: make([]RouteClass, n),
		next:  make([]hop, n),
	}
	for i := range int32(n) {
		cls, b := best(i)
		tr.class[i], tr.next[i] = cls, b.next
	}
	return tr
}

// better reports whether candidate ASN a is preferred over the incumbent
// dense index (tie-break: lowest next-hop ASN; -1 means no incumbent).
func better(a topology.ASN, incumbent int32, asns []topology.ASN) bool {
	if incumbent < 0 {
		return true
	}
	return a < asns[incumbent]
}

// route resolves a route's endpoints to dense indexes and returns the
// tree toward dst, or nil when src == dst: that path is the one AS.
func (r *Router) route(src, dst topology.ASN) (si, di int32, tr *tree, err error) {
	if si = r.indexOf(src); si < 0 {
		return 0, 0, nil, fmt.Errorf("bgp: unknown source AS %d", src)
	}
	if src == dst {
		return si, si, nil, nil
	}
	if di = r.indexOf(dst); di < 0 {
		return 0, 0, nil, fmt.Errorf("bgp: unknown destination AS %d", dst)
	}
	if tr = r.treeFor(di); tr.class[si] == NoRoute {
		return 0, 0, nil, fmt.Errorf("bgp: no route from AS %d to AS %d", src, dst)
	}
	return si, di, tr, nil
}

// ASPath returns the AS-level path from src to dst, inclusive of both.
// For src == dst the path is the single AS.
func (r *Router) ASPath(src, dst topology.ASN) ([]topology.ASN, error) {
	si, di, tr, err := r.route(src, dst)
	if err != nil {
		return nil, err
	}
	path := []topology.ASN{src}
	for at := si; at != di; {
		if at = tr.next[at].as; at < 0 {
			return nil, fmt.Errorf("bgp: broken tree from AS %d to AS %d", src, dst)
		}
		if path = append(path, r.asns[at]); len(path) > len(r.asns) {
			return nil, fmt.Errorf("bgp: path loop from AS %d to AS %d", src, dst)
		}
	}
	return path, nil
}

var _ fmt.Stringer = NoRoute
