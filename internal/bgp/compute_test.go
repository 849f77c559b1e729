package bgp

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"slices"
	"testing"

	"shortcuts/internal/datasets/apnic"
	"shortcuts/internal/rng"
	"shortcuts/internal/topology"
	"shortcuts/internal/worlddata"
)

// treesDigest hashes the class and next hop of every AS in every
// destination's tree, destinations in dense order.
func treesDigest(r *Router) string {
	h := sha256.New()
	var buf [12]byte
	for di := range int32(len(r.asns)) {
		tr := r.treeFor(di)
		for i := range tr.class {
			buf[0] = byte(tr.class[i])
			binary.LittleEndian.PutUint32(buf[4:], uint32(tr.next[i].as))
			binary.LittleEndian.PutUint32(buf[8:], uint32(tr.next[i].link))
			h.Write(buf[:])
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestTreesPinned pins every routing tree of the default seed-1
// topology, as recorded from the heap-driven solver the bucket queue
// replaced.
func TestTreesPinned(t *testing.T) {
	const want = "6e54b457317ee50af859c5c1a0901c6a74c6c7d39bd939f885a08226b6b8cc1f"
	if got := treesDigest(testRouter(t)); got != want {
		t.Fatalf("trees digest %s, want %s", got, want)
	}
}

// checkComputeMatchesHeap requires compute's tree toward every
// destination of r to equal refCompute's.
func checkComputeMatchesHeap(t testing.TB, r *Router) {
	t.Helper()
	for di := range int32(len(r.asns)) {
		got, want := r.compute(di), refCompute(r, di)
		if !slices.Equal(got.class, want.class) || !slices.Equal(got.next, want.next) {
			t.Fatalf("tree toward AS %d differs from the heap solver's", r.asns[di])
		}
	}
}

func TestComputeMatchesHeap(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		for _, p := range []topology.GenParams{topology.SmallParams(), topology.DefaultParams()} {
			g := rng.New(seed)
			ds := apnic.Generate(g.Split("apnic"), apnic.DefaultParams(worlddata.CountryCodes()))
			topo, err := topology.Generate(g, p, ds)
			if err != nil {
				t.Fatal(err)
			}
			checkComputeMatchesHeap(t, New(topo))
		}
	}
}

// FuzzRouteTree builds a topology of up to 64 ASes from the input and
// holds every destination's tree to the heap solver. data[0] sets the
// AS count, data[1] and data[2] permute the ASNs against the dense
// order (the tie-break reads ASNs, the queues dense indexes), and each
// later byte triple adds one link: two ASes, a relationship, and the
// first AS's PoP city. Provider cycles and isolated ASes are allowed.
func FuzzRouteTree(f *testing.F) {
	f.Add([]byte{4, 0, 0, 1, 0, 0, 2, 1, 0, 3, 2, 0, 0, 3, 2})
	f.Add([]byte{62, 5, 9, 1, 2, 0, 2, 3, 1, 3, 4, 2, 9, 1, 0, 40, 2, 1, 7, 40, 0, 40, 50, 0, 50, 60, 0, 61, 40, 1})
	f.Add([]byte{16, 3, 1, 0, 1, 1, 1, 2, 1, 2, 3, 1, 3, 0, 1, 4, 5, 2, 5, 6, 0})
	// Two providers at equal length whose ASN order is not their dense
	// order: the phase-3 tie-break decides.
	f.Add([]byte("000780180190970"))
	cities := worlddata.Cities()[:8]
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		n := 2 + int(data[0])%63
		mult, off := 2*int(data[1])+1, int(data[2])
		topo := topology.NewManual(cities)
		for i := range n {
			// An odd multiplier permutes 0..63.
			asn := topology.ASN(1 + (i*mult+off)%64)
			topo.AddAS(&topology.AS{ASN: asn, Type: topology.Transit, PoPs: []int{i % len(cities)}})
		}
		for k := 3; k+2 < len(data); k += 3 {
			a, b := topo.ASes[int(data[k])%n], topo.ASes[int(data[k+1])%n]
			if a == b {
				continue
			}
			city := int(data[k+2]>>2) % len(cities)
			a.PoPs = append(a.PoPs, city)
			switch data[k+2] % 3 {
			case 0:
				topo.AddLink(a.ASN, b.ASN, topology.C2P, []int{city})
			case 1:
				topo.AddLink(b.ASN, a.ASN, topology.C2P, []int{city})
			default:
				topo.AddLink(a.ASN, b.ASN, topology.P2P, []int{city})
			}
		}
		checkComputeMatchesHeap(t, New(topo))
	})
}

// TestComputeAllocs gates compute on warm scratch: it allocates the
// tree it returns (the tree, its classes and its next hops) and nothing
// else.
func TestComputeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled scratch at random")
	}
	r := testRouter(t)
	di := r.indexOf(r.Topology().ASesOfType(topology.Eyeball)[0].ASN)
	allocs := testing.AllocsPerRun(100, func() { r.compute(di) })
	if allocs != 3 {
		t.Fatalf("compute on warm scratch allocates %v times, want 3", allocs)
	}
}

// refCompute is the route solver that compute replaced, kept as its
// reference: phase 3 runs Dijkstra's algorithm on the binary heap below.
// Only its scratch is its own, allocated per call instead of pooled.
func refCompute(r *Router, di int32) *tree {
	n := len(r.asns)

	cust, peer, prov := make([]cand, n), make([]cand, n), make([]cand, n)
	for i := range n {
		cust[i], peer[i], prov[i] = unset, unset, unset
	}

	// Phase 1: customer routes. di announces to its providers, who
	// announce to their providers, and so on. BFS guarantees shortest
	// paths; the ASN tie-break keeps trees deterministic.
	cust[di].dist = 0
	queue := []int32{di}
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
	// best route, so the distance seeded into the downhill Dijkstra is
	// the length of each node's best customer-or-peer route; customers
	// then extend whatever their provider selected.
	pq := &distHeap{}
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
			pq.push(distEntry{node: x, dist: b.dist})
		}
	}
	for pq.Len() > 0 {
		e := pq.pop()
		if _, b := best(e.node); e.dist > b.dist {
			continue // stale entry
		}
		nd := e.dist + 1
		for _, h := range r.row(e.node, customers) {
			c := &prov[h.as]
			if nd < c.dist || (nd == c.dist && better(r.asns[e.node], c.next.as, r.asns)) {
				updated := nd < c.dist
				*c = cand{nd, hop{e.node, h.link}}
				// Only re-queue when the provider route is the node's
				// selected best; otherwise its forwarding is unchanged.
				if cls, b := best(h.as); updated && cls == ViaProvider {
					pq.push(distEntry{node: h.as, dist: b.dist})
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
