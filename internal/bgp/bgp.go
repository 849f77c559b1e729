// Package bgp computes inter-domain paths over a synthetic topology using
// the standard Gao-Rexford policy model: routes learned from customers are
// preferred over routes from peers, which are preferred over routes from
// providers; ties break on AS-path length and then on lowest next-hop ASN.
// Every computed path is valley-free (uphill, at most one peering edge,
// downhill).
//
// The package also expands AS-level paths to PoP-level city sequences:
// each AS boundary is crossed at one of the interconnection cities
// recorded on the link, chosen hot-potato style (the exit nearest to where
// the traffic currently is). Geographic path inflation — the root cause of
// the triangle-inequality violations the paper exploits — emerges from
// exactly this combination of policy routing and early-exit behaviour.
package bgp

import (
	"fmt"
	"sync"
	"sync/atomic"

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
	topo  *topology.Topology
	index map[topology.ASN]int32 // dense index
	asns  []topology.ASN         // inverse of index

	mu       sync.RWMutex
	trees    map[topology.ASN]*tree
	inflight map[topology.ASN]*treeCall

	scratch  sync.Pool    // *computeScratch, reused across compute calls
	computed atomic.Int64 // trees actually computed (not served from cache)

	// linkIdx/exits memoize hot-potato exit cities per (link, fromCity):
	// the nearest-candidate scan is a pure function of the immutable
	// topology, and path expansion at the scale tiers re-resolves the
	// same crossings millions of times per round. Slots hold city+1 (0 =
	// unset) and are filled lazily with atomic loads/stores — racing
	// writers store the same deterministic value. Links added to the
	// topology after router construction (hand-built tests) miss linkIdx
	// and fall back to the direct scan.
	linkIdx map[*topology.Link]int32
	exits   []int32
}

// treeCall is one in-flight tree computation; waiters block on done and
// then read tr.
type treeCall struct {
	done chan struct{}
	tr   *tree
}

// tree is the routing state of every AS toward one destination.
type tree struct {
	class []RouteClass
	dist  []int32 // AS-path length of the selected route
	next  []int32 // dense index of the next hop; -1 at the destination
}

// New creates a Router for the given topology.
func New(topo *topology.Topology) *Router {
	r := &Router{
		topo:     topo,
		index:    make(map[topology.ASN]int32, len(topo.ASes)),
		trees:    make(map[topology.ASN]*tree),
		inflight: make(map[topology.ASN]*treeCall),
	}
	for i, a := range topo.ASes {
		r.index[a.ASN] = int32(i)
		r.asns = append(r.asns, a.ASN)
	}
	r.linkIdx = make(map[*topology.Link]int32, len(topo.Links))
	for i, l := range topo.Links {
		r.linkIdx[l] = int32(i)
	}
	r.exits = make([]int32, len(topo.Links)*len(topo.Cities))
	return r
}

// Topology returns the topology this router operates on.
func (r *Router) Topology() *topology.Topology { return r.topo }

// TreeComputations reports how many routing trees have actually been
// computed (cache hits and singleflight waiters excluded).
func (r *Router) TreeComputations() int64 { return r.computed.Load() }

// CachedTrees reports how many destination trees are memoised.
func (r *Router) CachedTrees() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.trees)
}

// treeFor returns the routing tree toward dst, computing it on first use.
// Concurrent callers for the same uncomputed destination are coalesced
// onto a single computation.
func (r *Router) treeFor(dst topology.ASN) (*tree, error) {
	r.mu.RLock()
	tr, ok := r.trees[dst]
	r.mu.RUnlock()
	if ok {
		return tr, nil
	}
	if _, known := r.index[dst]; !known {
		return nil, fmt.Errorf("bgp: unknown destination AS %d", dst)
	}

	r.mu.Lock()
	if tr, ok := r.trees[dst]; ok {
		r.mu.Unlock()
		return tr, nil
	}
	if c, ok := r.inflight[dst]; ok {
		r.mu.Unlock()
		<-c.done
		return c.tr, nil
	}
	c := &treeCall{done: make(chan struct{})}
	r.inflight[dst] = c
	r.mu.Unlock()

	tr = r.compute(dst)
	r.computed.Add(1)

	r.mu.Lock()
	r.trees[dst] = tr
	delete(r.inflight, dst)
	r.mu.Unlock()

	c.tr = tr
	close(c.done)
	return tr, nil
}

// Warm precomputes the routing trees toward every given destination
// on par.For (workers <= 0 means GOMAXPROCS), and stops claiming
// destinations after the first error, which it returns.
// Destinations already cached cost nothing; duplicates are deduplicated.
// Warming the campaign's destination set at world build removes the
// cold-start serialization otherwise paid during round 0.
func (r *Router) Warm(dsts []topology.ASN, workers int) error {
	// Dedupe and drop already-cached destinations up front.
	seen := make(map[topology.ASN]bool, len(dsts))
	var todo []topology.ASN
	r.mu.RLock()
	for _, d := range dsts {
		if seen[d] || r.trees[d] != nil {
			continue
		}
		seen[d] = true
		todo = append(todo, d)
	}
	r.mu.RUnlock()
	for _, d := range todo {
		if _, known := r.index[d]; !known {
			return fmt.Errorf("bgp: warm: unknown destination AS %d", d)
		}
	}
	return par.For(len(todo), workers, func(_, i int) error {
		_, err := r.treeFor(todo[i])
		return err
	})
}

// computeScratch holds the per-computation working set. compute runs
// once per destination and allocates six n-sized arrays plus a queue and
// a heap; pooling the whole set removes that churn when thousands of
// trees are computed (warmup, campaigns over many destinations).
type computeScratch struct {
	custDist, custNext []int32
	peerDist, peerNext []int32
	provDist, provNext []int32
	queue              []int32
	heap               distHeap
}

func (s *computeScratch) reset(n int) {
	if cap(s.custDist) < n {
		s.custDist = make([]int32, n)
		s.custNext = make([]int32, n)
		s.peerDist = make([]int32, n)
		s.peerNext = make([]int32, n)
		s.provDist = make([]int32, n)
		s.provNext = make([]int32, n)
	}
	s.custDist = s.custDist[:n]
	s.custNext = s.custNext[:n]
	s.peerDist = s.peerDist[:n]
	s.peerNext = s.peerNext[:n]
	s.provDist = s.provDist[:n]
	s.provNext = s.provNext[:n]
	for i := 0; i < n; i++ {
		s.custDist[i], s.peerDist[i], s.provDist[i] = inf, inf, inf
		s.custNext[i], s.peerNext[i], s.provNext[i] = -1, -1, -1
	}
	s.queue = s.queue[:0]
	s.heap = s.heap[:0]
}

const inf = int32(1 << 30)

// compute builds the valley-free routing tree toward dst using the
// three-phase algorithm: customer routes spread up the provider hierarchy
// from dst, peer routes take one lateral step, provider routes spread down
// to customer cones via a Dijkstra pass keyed on each node's selected
// best-route length.
func (r *Router) compute(dst topology.ASN) *tree {
	n := len(r.asns)

	s, _ := r.scratch.Get().(*computeScratch)
	if s == nil {
		s = &computeScratch{}
	}
	s.reset(n)
	defer r.scratch.Put(s)
	custDist, custNext := s.custDist, s.custNext
	peerDist, peerNext := s.peerDist, s.peerNext
	provDist, provNext := s.provDist, s.provNext

	di := r.index[dst]

	// Phase 1: customer routes. dst announces to its providers, who
	// announce to their providers, and so on. BFS guarantees shortest
	// paths; the ASN tie-break keeps trees deterministic.
	custDist[di] = 0
	queue := append(s.queue, di)
	for head := 0; head < len(queue); head++ {
		x := queue[head]
		for _, p := range r.topo.Providers(r.asns[x]) {
			pi := r.index[p]
			nd := custDist[x] + 1
			if nd < custDist[pi] || (nd == custDist[pi] && better(r.asns[x], custNext[pi], r.asns)) {
				if custDist[pi] == inf {
					queue = append(queue, pi)
				}
				custDist[pi] = nd
				custNext[pi] = x
			}
		}
	}
	s.queue = queue[:0]

	// Phase 2: peer routes. One lateral step from any AS holding a
	// customer route.
	for x := 0; x < n; x++ {
		if custDist[x] == inf {
			continue
		}
		for _, q := range r.topo.Peers(r.asns[x]) {
			qi := r.index[q]
			nd := custDist[x] + 1
			if nd < peerDist[qi] || (nd == peerDist[qi] && better(r.asns[x], peerNext[qi], r.asns)) {
				peerDist[qi] = nd
				peerNext[qi] = int32(x)
			}
		}
	}

	// Phase 3: provider routes. An AS forwards along its own selected
	// best route, so the distance seeded into the downhill Dijkstra is
	// the length of each node's best customer-or-peer route; customers
	// then extend whatever their provider selected.
	pq := &s.heap
	best := func(i int32) (RouteClass, int32) {
		switch {
		case custDist[i] != inf:
			return ViaCustomer, custDist[i]
		case peerDist[i] != inf:
			return ViaPeer, peerDist[i]
		case provDist[i] != inf:
			return ViaProvider, provDist[i]
		default:
			return NoRoute, inf
		}
	}
	for x := int32(0); x < int32(n); x++ {
		if cls, d := best(x); cls == ViaCustomer || cls == ViaPeer {
			pq.push(distEntry{node: x, dist: d})
		}
	}
	for pq.Len() > 0 {
		e := pq.pop()
		if _, d := best(e.node); e.dist > d {
			continue // stale entry
		}
		for _, c := range r.topo.Customers(r.asns[e.node]) {
			ci := r.index[c]
			nd := e.dist + 1
			if nd < provDist[ci] || (nd == provDist[ci] && better(r.asns[e.node], provNext[ci], r.asns)) {
				updated := nd < provDist[ci]
				provDist[ci] = nd
				provNext[ci] = e.node
				// Only re-queue when the provider route is the node's
				// selected best; otherwise its forwarding is unchanged.
				if cls, d := best(ci); updated && cls == ViaProvider {
					pq.push(distEntry{node: ci, dist: d})
				}
			}
		}
	}

	tr := &tree{
		class: make([]RouteClass, n),
		dist:  make([]int32, n),
		next:  make([]int32, n),
	}
	for i := int32(0); i < int32(n); i++ {
		cls, d := best(i)
		tr.class[i] = cls
		tr.dist[i] = d
		switch cls {
		case ViaCustomer:
			tr.next[i] = custNext[i]
		case ViaPeer:
			tr.next[i] = peerNext[i]
		case ViaProvider:
			tr.next[i] = provNext[i]
		default:
			tr.next[i] = -1
		}
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

// ASPath returns the AS-level path from src to dst, inclusive of both.
// For src == dst the path is the single AS.
func (r *Router) ASPath(src, dst topology.ASN) ([]topology.ASN, error) {
	return r.asPathInto(nil, src, dst)
}

// asPathInto appends the AS path into buf (reset to length zero),
// returning the grown slice: the allocation-free core of ASPath.
func (r *Router) asPathInto(buf []topology.ASN, src, dst topology.ASN) ([]topology.ASN, error) {
	si, ok := r.index[src]
	if !ok {
		return nil, fmt.Errorf("bgp: unknown source AS %d", src)
	}
	buf = append(buf[:0], src)
	if src == dst {
		return buf, nil
	}
	tr, err := r.treeFor(dst)
	if err != nil {
		return nil, err
	}
	if tr.class[si] == NoRoute {
		return nil, fmt.Errorf("bgp: no route from AS %d to AS %d", src, dst)
	}
	cur := si
	for r.asns[cur] != dst {
		cur = tr.next[cur]
		if cur < 0 {
			return nil, fmt.Errorf("bgp: broken tree from AS %d to AS %d", src, dst)
		}
		buf = append(buf, r.asns[cur])
		if len(buf) > len(r.asns) {
			return nil, fmt.Errorf("bgp: path loop from AS %d to AS %d", src, dst)
		}
	}
	return buf, nil
}

// RouteInfo describes how src reaches dst.
type RouteInfo struct {
	Class RouteClass
	Hops  int // AS-path length in edges
}

// Route returns routing metadata for the pair.
func (r *Router) Route(src, dst topology.ASN) (RouteInfo, error) {
	si, ok := r.index[src]
	if !ok {
		return RouteInfo{}, fmt.Errorf("bgp: unknown source AS %d", src)
	}
	if src == dst {
		return RouteInfo{Class: ViaCustomer, Hops: 0}, nil
	}
	tr, err := r.treeFor(dst)
	if err != nil {
		return RouteInfo{}, err
	}
	if tr.class[si] == NoRoute {
		return RouteInfo{}, fmt.Errorf("bgp: no route from AS %d to AS %d", src, dst)
	}
	return RouteInfo{Class: tr.class[si], Hops: int(tr.dist[si])}, nil
}

// distEntry and distHeap implement the phase-3 priority queue as a typed
// binary min-heap: no container/heap indirection, no interface boxing of
// entries, and the backing array lives in the pooled computeScratch.
// Ordering is (dist, node) ascending; the node tie-break keeps pop order
// — and therefore tree construction — fully deterministic.
type distEntry struct {
	node int32
	dist int32
}

type distHeap []distEntry

// Len reports the number of queued entries.
func (h distHeap) Len() int { return len(h) }

func (h distHeap) less(i, j int) bool {
	if h[i].dist != h[j].dist {
		return h[i].dist < h[j].dist
	}
	return h[i].node < h[j].node
}

func (h *distHeap) push(e distEntry) {
	*h = append(*h, e)
	s := *h
	// Sift up.
	for i := len(s) - 1; i > 0; {
		parent := (i - 1) / 2
		if !s.less(i, parent) {
			break
		}
		s[i], s[parent] = s[parent], s[i]
		i = parent
	}
}

func (h *distHeap) pop() distEntry {
	s := *h
	n := len(s) - 1
	top := s[0]
	s[0] = s[n]
	s = s[:n]
	*h = s
	// Sift down.
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && s.less(l, smallest) {
			smallest = l
		}
		if r < n && s.less(r, smallest) {
			smallest = r
		}
		if smallest == i {
			break
		}
		s[i], s[smallest] = s[smallest], s[i]
		i = smallest
	}
	return top
}

var _ fmt.Stringer = NoRoute
