// Package atlas simulates the RIPE Atlas measurement platform: a global
// fleet of probes and anchors hosted inside real networks, each tagged
// with its AS, country, geolocation, firmware version and connection
// history. The paper draws three node populations from Atlas — campaign
// endpoints (Section 2.1), eyeball relays and "other network" relays
// (Section 2.3.2) — after filtering on exactly the attributes modelled
// here. Measurement scheduling happens under a credit budget, mirroring
// the platform's user-defined-measurement constraints.
package atlas

import (
	"math"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"shortcuts/internal/latency"
	"shortcuts/internal/rng"
	"shortcuts/internal/topology"
)

// CurrentFirmware is the newest probe firmware version; the paper keeps
// only probes running the latest firmware to minimise self-interference.
const CurrentFirmware = 4790

// ProbeID identifies a probe on the platform.
type ProbeID int

// firstID is the first probe's ID. Both generators assign IDs densely
// from it in registry order, so a probe's row is its ID minus firstID.
const firstID ProbeID = 1000

// Probe is one Atlas vantage point. The platform stores no Probe values:
// Platform.Probe(row) assembles one from the fleet's columns on demand.
type Probe struct {
	ID        ProbeID
	AS        topology.ASN
	CC        string
	City      int
	Anchor    bool // anchors are well-connected datacenter nodes
	Firmware  int
	Public    bool
	Connected bool // currently connected and pingable
	GeoTagged bool // has usable geolocation coordinates
	// StableDays counts days of uninterrupted connectivity over the last
	// 30; the paper requires a full 30.
	StableDays int
	// Access is the one-way last-mile delay of the probe's attachment.
	Access time.Duration
}

// Endpoint returns the probe's measurement attachment point.
func (p Probe) Endpoint() latency.Endpoint {
	return latency.Endpoint{AS: p.AS, City: p.City, Access: p.Access}
}

// Eligible applies the paper's Section-2.1 probe filters: latest
// firmware, publicly available, connected and pingable, geolocated, and
// stable for the whole past month.
func (p Probe) Eligible() bool {
	return p.Firmware == CurrentFirmware &&
		p.Public &&
		p.Connected &&
		p.GeoTagged &&
		p.StableDays >= 30
}

// Probe flag bits (Platform.flags).
const (
	flagAnchor uint8 = 1 << iota
	flagPublic
	flagConnected
	flagGeoTagged
	flagEligible // the probe passes Probe.Eligible
)

// Platform is the probe registry plus the availability process. The
// fleet is stored once, as columns indexed by row (a probe's row is its
// ID minus firstID, its position in registry order): a measurement round
// reads the attributes it needs as flat array loads, and Probe(row)
// reassembles a whole probe on demand. Rows are immutable after Generate.
type Platform struct {
	as       []uint32
	city     []int32
	cc       []uint16 // index into ccs
	firmware []int16
	stable   []uint8 // StableDays
	flags    []uint8
	access   []time.Duration
	// ccs holds each country code once, in first-appearance order.
	ccs []string

	// eligible memoizes EligibleIn per (asn, cc) as ascending row lists:
	// the campaign's endpoint draft asks for the same tuples every round,
	// so the filter runs once per platform instead of once per query.
	eligible map[eligKey][]int32

	avail *rng.Rand // seeds the per-(probe, round) availability draws
	// respFast and windFast are the scale-tier fast coins' per-label
	// derivation prefixes (see ResponsiveFast).
	respFast, windFast rng.Prefix

	// OfflineProb is the per-round probability that a probe is offline
	// at selection time.
	OfflineProb float64
	// WindowOutageProb is the probability that a probe selected for a
	// round nevertheless stops answering during the measurement window.
	// Together with OfflineProb this drives the paper's ~84% destination
	// responsiveness.
	WindowOutageProb float64
}

// eligKey identifies one (ASN, country) eligibility query.
type eligKey struct {
	asn topology.ASN
	cc  string
}

// Params controls fleet generation.
type Params struct {
	// EyeballBaseProbes and EyeballCoverageDiv size eyeball deployments:
	// probes ~ base + coverage/div (bigger ISPs host more probes).
	EyeballBaseProbes  int
	EyeballCoverageDiv float64
	// OtherNetProb is the chance a non-eyeball AS hosts probes at all,
	// per AS type.
	OtherNetProb map[topology.ASType]float64
	// OtherNetMax bounds probes per non-eyeball AS.
	OtherNetMax int
	// AnchorProb is the chance a non-eyeball probe is an anchor.
	AnchorProb float64
	// Attribute rates.
	CurrentFirmwareProb float64
	PublicProb          float64
	ConnectedProb       float64
	GeoTaggedProb       float64
	FullyStableProb     float64
	// OfflineProb is the per-round selection-time outage probability.
	OfflineProb float64
	// WindowOutageProb is the mid-window outage probability.
	WindowOutageProb float64
	// ShardedDeployment switches Generate to the scale-tier fleet
	// generator: per-AS value-type rng streams drawn in parallel shards
	// instead of one sequential generator walk. The fleet it produces is
	// deterministic and independent of worker count or goroutine
	// schedule, but it is a *different* deterministic fleet than the
	// sequential walk — ScaleWorldParams worlds opt in, paper-scale
	// worlds (and their golden digests) keep the sequential path.
	ShardedDeployment bool
}

// DefaultParams sizes the fleet so the eligible eyeball population lands
// near the paper's ~1190 probes across ~141 ASes.
func DefaultParams() Params {
	return Params{
		EyeballBaseProbes:  3,
		EyeballCoverageDiv: 6,
		OtherNetProb: map[topology.ASType]float64{
			topology.Tier1:      0.5,
			topology.Transit:    1.0,
			topology.Content:    0.8,
			topology.Enterprise: 0.7,
			topology.NREN:       0.6,
			topology.Campus:     0.5,
			topology.Backbone:   0.3,
		},
		OtherNetMax:         5,
		AnchorProb:          0.10,
		CurrentFirmwareProb: 0.88,
		PublicProb:          0.92,
		ConnectedProb:       0.95,
		GeoTaggedProb:       0.93,
		FullyStableProb:     0.82,
		OfflineProb:         0.08,
		WindowOutageProb:    0.09,
	}
}

// Generate deploys the fleet over the topology.
func Generate(g *rng.Rand, topo *topology.Topology, p Params) *Platform {
	return GenerateWith(g, topo, p, 1)
}

// GenerateWith is Generate with an explicit worker budget. Workers only
// matter when p.ShardedDeployment is set: the sharded generator draws
// each AS's deployment from its own value-type stream, so shards are
// independent and the fleet is bit-identical for every worker count.
// The sequential path ignores workers entirely.
func GenerateWith(g *rng.Rand, topo *topology.Topology, p Params, workers int) *Platform {
	g = g.Split("atlas")
	pl := &Platform{
		avail:            g.Split("availability"),
		OfflineProb:      p.OfflineProb,
		WindowOutageProb: p.WindowOutageProb,
	}
	fast := pl.avail.Stream("fast-avail")
	pl.respFast, pl.windFast = fast.Prefix("probe"), fast.Prefix("window")
	if p.ShardedDeployment {
		pl.generateSharded(g, topo, p, workers)
	} else {
		pl.generateSequential(g, topo, p)
	}
	pl.eligible = make(map[eligKey][]int32)
	for row := range int32(pl.Len()) {
		if pl.Eligible(row) {
			k := eligKey{asn: pl.AS(row), cc: pl.CC(row)}
			pl.eligible[k] = append(pl.eligible[k], row)
		}
	}
	return pl
}

// generateSequential is the original one-generator walk over the AS
// list: the draw sequence (and therefore the fleet) is byte-identical
// to every previous release, which the golden digests pin.
func (pl *Platform) generateSequential(g *rng.Rand, topo *topology.Topology, p Params) {
	ccIndex := make(map[string]uint16)
	for _, a := range topo.ASes {
		n := deployCount(g, a, p)
		if n == 0 {
			continue
		}
		cc := pl.intern(ccIndex, a.CC)
		first := pl.grow(n)
		for i := 0; i < n; i++ {
			city := a.PoPs[g.Intn(len(a.PoPs))]
			pl.set(drawProbe(g, a, p, firstID+ProbeID(first+i), city), cc)
		}
	}
}

// generateSharded deploys the fleet with one value-type stream per AS,
// drawn in parallel shards. Determinism does not depend on scheduling:
// every AS's draws come only from its own stream (derived from the AS
// index), and each AS writes the contiguous rows a prefix sum over the
// per-AS counts assigns it. The count draws are taken twice (sizing
// pass, then attribute pass re-derives the stream) so the two passes
// need no cross-AS coordination.
func (pl *Platform) generateSharded(g *rng.Rand, topo *topology.Topology, p Params, workers int) {
	base := g.Stream("deploy")
	ases := topo.ASes
	counts := make([]int32, len(ases))
	parallelASes(len(ases), workers, func(i int) {
		s := base.At(uint64(i))
		counts[i] = int32(deployCount(&s, ases[i], p))
	})
	offsets := make([]int32, len(ases)+1)
	ccs := make([]uint16, len(ases)) // per AS: its country's index
	ccIndex := make(map[string]uint16)
	for i, n := range counts {
		offsets[i+1] = offsets[i] + n
		if n > 0 {
			ccs[i] = pl.intern(ccIndex, ases[i].CC)
		}
	}
	pl.grow(int(offsets[len(ases)]))
	parallelASes(len(ases), workers, func(i int) {
		a := ases[i]
		s := base.At(uint64(i))
		deployCount(&s, a, p) // burn the sizing draws; attributes follow
		for j := 0; j < int(counts[i]); j++ {
			city := a.PoPs[s.IntBetween(0, len(a.PoPs)-1)]
			pl.set(drawProbe(&s, a, p, firstID+ProbeID(int(offsets[i])+j), city), ccs[i])
		}
	})
}

// parallelASes fans f over [0, n) with the given worker budget; callers
// guarantee f(i) touches only index-i state.
func parallelASes(n, workers int, f func(i int)) {
	if workers <= 1 || n < 64 {
		for i := 0; i < n; i++ {
			f(i)
		}
		return
	}
	if workers > n {
		workers = n
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				f(i)
			}
		}()
	}
	wg.Wait()
}

// drawer is the draw surface both fleet generators share: the
// sequential walk's *rng.Rand and the sharded generator's per-AS
// *rng.Stream.
type drawer interface {
	Bool(p float64) bool
	IntBetween(lo, hi int) int
	LogNormal(mu, sigma float64) float64
}

// deployCount draws how many probes AS a hosts: every eyeball some,
// sized by its coverage, other networks by chance.
func deployCount(d drawer, a *topology.AS, p Params) int {
	if a.Type == topology.Eyeball {
		return p.EyeballBaseProbes + int(a.Coverage/p.EyeballCoverageDiv) + d.IntBetween(0, 3)
	}
	if d.Bool(p.OtherNetProb[a.Type]) {
		return d.IntBetween(1, p.OtherNetMax)
	}
	return 0
}

// drawProbe draws the attributes of probe id of AS a, placed in city:
// firmware, the Section-2.1 filter attributes, stability and the
// last-mile delay, in the order both generators have always drawn them.
func drawProbe(d drawer, a *topology.AS, p Params, id ProbeID, city int) Probe {
	pr := Probe{ID: id, AS: a.ASN, CC: a.CC, City: city, Firmware: CurrentFirmware}
	if !d.Bool(p.CurrentFirmwareProb) {
		pr.Firmware -= d.IntBetween(1, 3) * 10
	}
	pr.Public = d.Bool(p.PublicProb)
	pr.Connected = d.Bool(p.ConnectedProb)
	pr.GeoTagged = d.Bool(p.GeoTaggedProb)
	if d.Bool(p.FullyStableProb) {
		pr.StableDays = 30
	} else {
		pr.StableDays = d.IntBetween(0, 29)
	}
	if a.Type == topology.Eyeball {
		// Residential last mile: right-skewed around ~6 ms.
		ms := d.LogNormal(math.Log(6), 0.45)
		if ms < 1.5 {
			ms = 1.5
		}
		if ms > 30 {
			ms = 30
		}
		pr.Access = time.Duration(ms * float64(time.Millisecond))
	} else {
		pr.Anchor = d.Bool(p.AnchorProb)
		if pr.Anchor {
			pr.Access = time.Duration(d.IntBetween(50, 300)) * time.Microsecond
		} else {
			pr.Access = time.Duration(d.IntBetween(100, 1000)) * time.Microsecond
		}
	}
	return pr
}

// intern returns cc's index into ccs, appending it on first sight.
func (pl *Platform) intern(index map[string]uint16, cc string) uint16 {
	i, ok := index[cc]
	if !ok {
		i = uint16(len(pl.ccs))
		index[cc] = i
		pl.ccs = append(pl.ccs, cc)
	}
	return i
}

// grow appends n zero rows to every column and returns the first of them.
func (pl *Platform) grow(n int) int {
	first := pl.Len()
	pl.as = append(pl.as, make([]uint32, n)...)
	pl.city = append(pl.city, make([]int32, n)...)
	pl.cc = append(pl.cc, make([]uint16, n)...)
	pl.firmware = append(pl.firmware, make([]int16, n)...)
	pl.stable = append(pl.stable, make([]uint8, n)...)
	pl.flags = append(pl.flags, make([]uint8, n)...)
	pl.access = append(pl.access, make([]time.Duration, n)...)
	return first
}

// set writes p into its row, which grow has already added; cc is p.CC's
// index into ccs. Distinct rows may be set concurrently.
func (pl *Platform) set(p Probe, cc uint16) {
	r := p.ID - firstID
	pl.as[r] = uint32(p.AS)
	pl.city[r] = int32(p.City)
	pl.cc[r] = cc
	pl.firmware[r] = int16(p.Firmware)
	pl.stable[r] = uint8(p.StableDays)
	pl.access[r] = p.Access
	var f uint8
	if p.Anchor {
		f |= flagAnchor
	}
	if p.Public {
		f |= flagPublic
	}
	if p.Connected {
		f |= flagConnected
	}
	if p.GeoTagged {
		f |= flagGeoTagged
	}
	if p.Eligible() {
		f |= flagEligible
	}
	pl.flags[r] = f
}

// Len returns the fleet size: rows run from 0 to Len()-1.
func (pl *Platform) Len() int { return len(pl.as) }

// Row returns the probe's row, or -1 when the ID is outside the fleet.
func (pl *Platform) Row(id ProbeID) int32 {
	if id < firstID || int(id-firstID) >= pl.Len() {
		return -1
	}
	return int32(id - firstID)
}

// ID returns the probe ID of a row.
func (pl *Platform) ID(row int32) ProbeID { return firstID + ProbeID(row) }

// AS returns the row's host AS.
func (pl *Platform) AS(row int32) topology.ASN { return topology.ASN(pl.as[row]) }

// City returns the row's home-city index into the topology.
func (pl *Platform) City(row int32) int { return int(pl.city[row]) }

// CC returns the row's country code.
func (pl *Platform) CC(row int32) string { return pl.ccs[pl.cc[row]] }

// Eligible reports whether the row passes Probe.Eligible.
func (pl *Platform) Eligible(row int32) bool { return pl.flags[row]&flagEligible != 0 }

// Endpoint returns the row's measurement attachment point, equal to
// Probe(row).Endpoint().
func (pl *Platform) Endpoint(row int32) latency.Endpoint {
	return latency.Endpoint{AS: pl.AS(row), City: pl.City(row), Access: pl.access[row]}
}

// Probe reassembles the row's probe exactly as generation drew it.
func (pl *Platform) Probe(row int32) Probe {
	f := pl.flags[row]
	return Probe{
		ID:         pl.ID(row),
		AS:         pl.AS(row),
		CC:         pl.CC(row),
		City:       pl.City(row),
		Anchor:     f&flagAnchor != 0,
		Firmware:   int(pl.firmware[row]),
		Public:     f&flagPublic != 0,
		Connected:  f&flagConnected != 0,
		GeoTagged:  f&flagGeoTagged != 0,
		StableDays: int(pl.stable[row]),
		Access:     pl.access[row],
	}
}

// EligibleIn returns the rows of the eligible probes in (asn, cc), in
// ascending order: the unit the paper's two-step endpoint sampling draws
// from. The result is memoized: callers must not mutate it.
func (pl *Platform) EligibleIn(asn topology.ASN, cc string) []int32 {
	return pl.eligible[eligKey{asn: asn, cc: cc}]
}

// Responsive reports whether the probe is online for the given round at
// selection time. The draw is a pure function of (platform seed, probe,
// round).
func (pl *Platform) Responsive(id ProbeID, round int) bool {
	return !pl.coin("probe-", id, round, pl.OfflineProb)
}

// WindowUp reports whether the probe keeps answering through the round's
// measurement window. Selection happens before the window, so a probe can
// be Responsive yet suffer a mid-window outage — that attrition is what
// limits the paper's campaign to ~84% responsive destinations.
func (pl *Platform) WindowUp(id ProbeID, round int) bool {
	return !pl.coin("window-", id, round, pl.WindowOutageProb)
}

// coin flips the availability coin whose stream label is prefix followed
// by the probe ID in decimal. The label is formatted into a stack buffer,
// so a coin allocates nothing.
func (pl *Platform) coin(prefix string, id ProbeID, round int, p float64) bool {
	var buf [32]byte
	label := strconv.AppendInt(append(buf[:0], prefix...), int64(id), 10)
	return pl.avail.BoolSplitN(string(label), round, p)
}

// ResponsiveFast is the scale-tier selection-time availability coin: a
// pure function of (platform seed, probe, round) like Responsive, drawn
// from the value-type fast-coin family. It costs about what a Responsive
// coin costs; it remains because the scale-tier golden digests were
// recorded with it. The fast family is NOT draw-compatible with
// Responsive; campaigns switch whole-config
// (measure.Config.FastAvailability).
func (pl *Platform) ResponsiveFast(id ProbeID, round int) bool {
	s := pl.respFast.At(uint64(id)).At(uint64(round))
	return !s.Bool(pl.OfflineProb)
}

// WindowUpFast is the scale-tier mid-window outage coin; see
// ResponsiveFast.
func (pl *Platform) WindowUpFast(id ProbeID, round int) bool {
	s := pl.windFast.At(uint64(id)).At(uint64(round))
	return !s.Bool(pl.WindowOutageProb)
}
