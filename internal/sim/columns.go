package sim

import (
	"sync"
	"time"

	"shortcuts/internal/atlas"
	"shortcuts/internal/eyeball"
	"shortcuts/internal/latency"
	"shortcuts/internal/topology"
)

// Endpoint flag bits (EndpointColumns.Flags).
const (
	// FlagEligible marks probes passing the Section-2.1 filters.
	FlagEligible uint8 = 1 << iota
	// FlagAnchor marks Atlas anchors.
	FlagAnchor
	// FlagEyeball marks probes whose (AS, CC) tuple passed the APNIC
	// eyeball cutoff.
	FlagEyeball
)

// EndpointColumns is the struct-of-arrays view of the Atlas fleet: one
// row per probe, every attribute a measurement round touches laid out as
// a flat column. The row order is the platform's probe order, so rows,
// like probes, are immutable once the world is built, and a row index is
// a stable dense endpoint identity — what the round loop carries instead
// of *atlas.Probe pointers. At paper scale the difference is cache
// locality; at the ROADMAP's million-endpoint scale it is what makes a
// round's working set a handful of sequential arrays instead of a
// pointer chase per field read.
//
// Values are stored exactly (AccessNs keeps the full int64 duration, CC
// and Cont index shared string tables whose entries byte-equal the probe
// and city strings), so an Observation stitched from columns is
// bit-identical to one stitched from the structs.
type EndpointColumns struct {
	ProbeID  []uint32  // platform probe ID
	AS       []uint32  // probe's ASN
	City     []uint32  // home-city index into the topology
	CC       []uint16  // index into CCs
	Cont     []uint8   // index into Conts
	Flags    []uint8   // FlagEligible | FlagAnchor | FlagEyeball
	Lat, Lon []float32 // home-city coordinates
	AccessNs []int64   // exact last-mile one-way delay, nanoseconds
	Weight   []float32 // APNIC eyeball population weight (0 = not eyeball)

	// CCs and Conts are the string tables CC and Cont index, in first-
	// appearance (probe) order.
	CCs   []string
	Conts []string

	// rowOf maps a ProbeID to its row (-1 absent). Probe IDs are dense
	// from 1000, so a flat slice beats a map.
	rowOf []int32
}

// BuildEndpointColumnsWith flattens the platform fleet against the
// topology and the eyeball selector, sharded over the given worker
// budget. It draws no randomness, so the columns are a pure function of
// the already-built stages. The per-row columns are pure per-index writes
// against read-only inputs (probe attributes, the city table, the
// selector's verification maps), so they fill in parallel ranges; only
// the CC/Cont string-table interning walks sequentially, preserving the
// first-appearance table order exactly. Output is identical for every
// worker count.
func BuildEndpointColumnsWith(pl *atlas.Platform, topo *topology.Topology, sel *eyeball.Selector, workers int) *EndpointColumns {
	probes := pl.Probes()
	n := len(probes)
	c := &EndpointColumns{
		ProbeID:  make([]uint32, n),
		AS:       make([]uint32, n),
		City:     make([]uint32, n),
		CC:       make([]uint16, n),
		Cont:     make([]uint8, n),
		Flags:    make([]uint8, n),
		Lat:      make([]float32, n),
		Lon:      make([]float32, n),
		AccessNs: make([]int64, n),
		Weight:   make([]float32, n),
	}
	maxID := atlas.ProbeID(0)
	for _, p := range probes {
		if p.ID > maxID {
			maxID = p.ID
		}
	}
	c.rowOf = make([]int32, int(maxID)+1)
	shardRange(len(c.rowOf), workers, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			c.rowOf[i] = -1
		}
	})
	shardRange(n, workers, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			p := probes[i]
			c.ProbeID[i] = uint32(p.ID)
			c.AS[i] = uint32(p.AS)
			c.City[i] = uint32(p.City)
			c.AccessNs[i] = int64(p.Access)
			city := &topo.Cities[p.City]
			c.Lat[i] = float32(city.Loc.Lat)
			c.Lon[i] = float32(city.Loc.Lon)
			var f uint8
			if p.Eligible() {
				f |= FlagEligible
			}
			if p.Anchor {
				f |= FlagAnchor
			}
			if sel.IsEyeball(p.AS, p.CC) {
				f |= FlagEyeball
				c.Weight[i] = float32(sel.PopulationWeight(p.AS, p.CC))
			}
			c.Flags[i] = f
			c.rowOf[p.ID] = int32(i)
		}
	})
	ccIdx := make(map[string]uint16)
	contIdx := make(map[string]uint8)
	for i, p := range probes {
		cci, ok := ccIdx[p.CC]
		if !ok {
			cci = uint16(len(c.CCs))
			ccIdx[p.CC] = cci
			c.CCs = append(c.CCs, p.CC)
		}
		c.CC[i] = cci
		city := &topo.Cities[p.City]
		coi, ok := contIdx[city.Continent]
		if !ok {
			coi = uint8(len(c.Conts))
			contIdx[city.Continent] = coi
			c.Conts = append(c.Conts, city.Continent)
		}
		c.Cont[i] = coi
	}
	return c
}

// shardRange fans f over [0, n) in contiguous per-worker ranges; small
// inputs run inline.
func shardRange(n, workers int, f func(lo, hi int)) {
	if workers <= 1 || n < 4096 {
		f(0, n)
		return
	}
	if workers > n {
		workers = n
	}
	chunk := (n + workers - 1) / workers
	var wg sync.WaitGroup
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			f(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}

// Len returns the number of rows (probes).
func (c *EndpointColumns) Len() int { return len(c.ProbeID) }

// Row returns the row of the given probe, or -1 when the probe is not in
// the fleet.
func (c *EndpointColumns) Row(id atlas.ProbeID) int32 {
	if int(id) < 0 || int(id) >= len(c.rowOf) {
		return -1
	}
	return c.rowOf[id]
}

// Endpoint reconstructs the row's measurement attachment point. The
// value equals Probe.Endpoint() of the same probe exactly (AccessNs is
// stored at full precision), so latency draws keyed by endpoint identity
// are unchanged by the columnar path.
func (c *EndpointColumns) Endpoint(row int32) latency.Endpoint {
	return latency.Endpoint{
		AS:     topology.ASN(c.AS[row]),
		City:   int(c.City[row]),
		Access: time.Duration(c.AccessNs[row]),
	}
}

// CCString and ContString resolve a row's string-table entries.
func (c *EndpointColumns) CCString(row int32) string   { return c.CCs[c.CC[row]] }
func (c *EndpointColumns) ContString(row int32) string { return c.Conts[c.Cont[row]] }
