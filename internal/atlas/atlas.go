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
	"fmt"
	"math"
	"runtime"
	"sort"
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

// Probe is one Atlas vantage point.
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
func (p *Probe) Endpoint() latency.Endpoint {
	return latency.Endpoint{AS: p.AS, City: p.City, Access: p.Access}
}

// Eligible applies the paper's Section-2.1 probe filters: latest
// firmware, publicly available, connected and pingable, geolocated, and
// stable for the whole past month.
func (p *Probe) Eligible() bool {
	return p.Firmware == CurrentFirmware &&
		p.Public &&
		p.Connected &&
		p.GeoTagged &&
		p.StableDays >= 30
}

// Platform is the probe registry plus the availability process.
type Platform struct {
	probes []*Probe
	byCC   map[string][]*Probe
	byAS   map[topology.ASN][]*Probe
	avail  *rng.Rand // seeds the per-(probe, round) availability draws

	// eligible memoizes EligibleIn per (asn, cc): probe attributes are
	// immutable after Generate, and the campaign's endpoint sampler asks
	// for the same tuples every round, so the filter runs once per tuple
	// per platform instead of once per query.
	eligible map[eligKey][]*Probe

	// probeLabel/windowLabel are the per-probe availability stream
	// labels, precomputed so the per-round Responsive and WindowUp draws
	// don't rebuild identical strings millions of times per campaign.
	// Indexed directly by ProbeID (IDs are dense but start at 1000, so
	// the first thousand slots stay empty — cheaper than offset math).
	probeLabel  []string
	windowLabel []string

	// availFast seeds the scale-tier availability coins; respBase and
	// windBase are its per-probe derivations (indexed by ProbeID like
	// the labels), so a ResponsiveFast coin is one 8-byte hash fold and
	// one SplitMix64 step. The fast coins are a different stream family
	// from Responsive/WindowUp, kept because the scale-tier golden
	// digests were recorded with them: campaigns opt in per-config
	// (measure.Config.FastAvailability).
	availFast rng.Stream
	respBase  []rng.Stream
	windBase  []rng.Stream

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
		byCC:             make(map[string][]*Probe),
		byAS:             make(map[topology.ASN][]*Probe),
		avail:            g.Split("availability"),
		OfflineProb:      p.OfflineProb,
		WindowOutageProb: p.WindowOutageProb,
	}
	if p.ShardedDeployment {
		pl.generateSharded(g, topo, p, workers)
	} else {
		pl.generateSequential(g, topo, p)
	}
	pl.finalize()
	return pl
}

// maxProbeEstimate upper-bounds the fleet size without consuming a
// single draw, so probes can be laid out in one flat block up front
// (appending 1.9M individual *Probe allocations dominates scale-tier
// build profiles otherwise).
func maxProbeEstimate(topo *topology.Topology, p Params) int {
	est := 0
	for _, a := range topo.ASes {
		if a.Type == topology.Eyeball {
			est += p.EyeballBaseProbes + int(a.Coverage/p.EyeballCoverageDiv) + 3
		} else if p.OtherNetProb[a.Type] > 0 {
			est += p.OtherNetMax
		}
	}
	return est
}

// generateSequential is the original one-generator walk over the AS
// list: the draw sequence (and therefore the fleet) is byte-identical
// to every previous release, which the golden digests pin.
func (pl *Platform) generateSequential(g *rng.Rand, topo *topology.Topology, p Params) {
	block := make([]Probe, 0, maxProbeEstimate(topo, p))
	pl.probes = make([]*Probe, 0, cap(block))
	id := ProbeID(1000)
	for _, a := range topo.ASes {
		var n int
		var host bool
		if a.Type == topology.Eyeball {
			n = p.EyeballBaseProbes + int(a.Coverage/p.EyeballCoverageDiv) + g.IntBetween(0, 3)
			host = true
		} else if g.Bool(p.OtherNetProb[a.Type]) {
			n = g.IntBetween(1, p.OtherNetMax)
			host = true
		}
		if !host {
			continue
		}
		for i := 0; i < n; i++ {
			city := a.PoPs[g.Intn(len(a.PoPs))]
			pr := probeSlot(&block)
			*pr = Probe{
				ID:        id,
				AS:        a.ASN,
				CC:        a.CC,
				City:      city,
				Firmware:  firmwareDraw(g, p.CurrentFirmwareProb),
				Public:    g.Bool(p.PublicProb),
				Connected: g.Bool(p.ConnectedProb),
				GeoTagged: g.Bool(p.GeoTaggedProb),
			}
			if g.Bool(p.FullyStableProb) {
				pr.StableDays = 30
			} else {
				pr.StableDays = g.IntBetween(0, 29)
			}
			if a.Type == topology.Eyeball {
				// Residential last mile: right-skewed around ~6 ms.
				ms := g.LogNormal(math.Log(6), 0.45)
				if ms < 1.5 {
					ms = 1.5
				}
				if ms > 30 {
					ms = 30
				}
				pr.Access = time.Duration(ms * float64(time.Millisecond))
			} else {
				pr.Anchor = g.Bool(p.AnchorProb)
				if pr.Anchor {
					pr.Access = time.Duration(g.IntBetween(50, 300)) * time.Microsecond
				} else {
					pr.Access = time.Duration(g.IntBetween(100, 1000)) * time.Microsecond
				}
			}
			pl.add(pr)
			id++
		}
	}
}

// probeSlot carves the next Probe from the flat block while capacity
// lasts (the estimate is an upper bound, so it always does in practice)
// and degrades to individual allocation if it ever doesn't — pointers
// into the block must never be invalidated by a regrow.
func probeSlot(block *[]Probe) *Probe {
	if len(*block) < cap(*block) {
		*block = (*block)[:len(*block)+1]
		return &(*block)[len(*block)-1]
	}
	return &Probe{}
}

// generateSharded deploys the fleet with one value-type stream per AS,
// drawn in parallel shards. Determinism does not depend on scheduling:
// every AS's draws come only from its own stream (derived from the AS
// index), probe IDs come from a prefix sum over per-AS counts, and the
// final registry walk is sequential in AS order. The count draws are
// taken twice (sizing pass, then attribute pass re-derives the stream)
// so the two passes need no cross-AS coordination.
func (pl *Platform) generateSharded(g *rng.Rand, topo *topology.Topology, p Params, workers int) {
	base := g.Stream("deploy")
	ases := topo.ASes
	counts := make([]int32, len(ases))
	drawCount := func(s *rng.Stream, a *topology.AS) int {
		if a.Type == topology.Eyeball {
			return p.EyeballBaseProbes + int(a.Coverage/p.EyeballCoverageDiv) + s.IntBetween(0, 3)
		}
		if s.Bool(p.OtherNetProb[a.Type]) {
			return s.IntBetween(1, p.OtherNetMax)
		}
		return 0
	}
	parallelASes(len(ases), workers, func(i int) {
		s := base.At(uint64(i))
		counts[i] = int32(drawCount(&s, ases[i]))
	})
	offsets := make([]int32, len(ases)+1)
	for i, n := range counts {
		offsets[i+1] = offsets[i] + n
	}
	total := int(offsets[len(ases)])
	block := make([]Probe, total)
	parallelASes(len(ases), workers, func(i int) {
		a := ases[i]
		s := base.At(uint64(i))
		drawCount(&s, a) // burn the sizing draws; attributes follow
		for j := 0; j < int(counts[i]); j++ {
			pr := &block[int(offsets[i])+j]
			*pr = Probe{
				ID:        ProbeID(1000 + int(offsets[i]) + j),
				AS:        a.ASN,
				CC:        a.CC,
				City:      a.PoPs[s.IntBetween(0, len(a.PoPs)-1)],
				Firmware:  firmwareDrawStream(&s, p.CurrentFirmwareProb),
				Public:    s.Bool(p.PublicProb),
				Connected: s.Bool(p.ConnectedProb),
				GeoTagged: s.Bool(p.GeoTaggedProb),
			}
			if s.Bool(p.FullyStableProb) {
				pr.StableDays = 30
			} else {
				pr.StableDays = s.IntBetween(0, 29)
			}
			if a.Type == topology.Eyeball {
				ms := s.LogNormal(math.Log(6), 0.45)
				if ms < 1.5 {
					ms = 1.5
				}
				if ms > 30 {
					ms = 30
				}
				pr.Access = time.Duration(ms * float64(time.Millisecond))
			} else {
				pr.Anchor = s.Bool(p.AnchorProb)
				if pr.Anchor {
					pr.Access = time.Duration(s.IntBetween(50, 300)) * time.Microsecond
				} else {
					pr.Access = time.Duration(s.IntBetween(100, 1000)) * time.Microsecond
				}
			}
		}
	})
	pl.probes = make([]*Probe, 0, total)
	for i := range ases {
		if counts[i] == 0 {
			continue
		}
		pl.byAS[ases[i].ASN] = make([]*Probe, 0, counts[i])
		for j := 0; j < int(counts[i]); j++ {
			pl.add(&block[int(offsets[i])+j])
		}
	}
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

// finalize builds the post-generation lookup structures: the per-(asn,
// cc) eligibility memo, the per-probe availability-stream labels, and
// the per-probe fast-coin stream bases. Probe attributes never change
// after Generate, so all are immutable. The per-probe fills are pure
// per-index writes, so they run sharded over the fleet.
func (pl *Platform) finalize() {
	pl.eligible = make(map[eligKey][]*Probe)
	maxID := ProbeID(0)
	for _, p := range pl.probes {
		if p.Eligible() {
			k := eligKey{asn: p.AS, cc: p.CC}
			pl.eligible[k] = append(pl.eligible[k], p)
		}
		if p.ID > maxID {
			maxID = p.ID
		}
	}
	pl.availFast = pl.avail.Stream("fast-avail")
	pl.probeLabel = make([]string, int(maxID)+1)
	pl.windowLabel = make([]string, int(maxID)+1)
	pl.respBase = make([]rng.Stream, int(maxID)+1)
	pl.windBase = make([]rng.Stream, int(maxID)+1)
	parallelASes(len(pl.probes), runtime.GOMAXPROCS(0), func(i int) {
		p := pl.probes[i]
		s := strconv.Itoa(int(p.ID))
		pl.probeLabel[p.ID] = "probe-" + s
		pl.windowLabel[p.ID] = "window-" + s
		pl.respBase[p.ID] = pl.availFast.Derive("probe", uint64(p.ID))
		pl.windBase[p.ID] = pl.availFast.Derive("window", uint64(p.ID))
	})
}

func firmwareDraw(g *rng.Rand, currentProb float64) int {
	if g.Bool(currentProb) {
		return CurrentFirmware
	}
	return CurrentFirmware - g.IntBetween(1, 3)*10
}

func firmwareDrawStream(s *rng.Stream, currentProb float64) int {
	if s.Bool(currentProb) {
		return CurrentFirmware
	}
	return CurrentFirmware - s.IntBetween(1, 3)*10
}

func (pl *Platform) add(p *Probe) {
	pl.probes = append(pl.probes, p)
	pl.byCC[p.CC] = append(pl.byCC[p.CC], p)
	pl.byAS[p.AS] = append(pl.byAS[p.AS], p)
}

// Probes returns the whole fleet.
func (pl *Platform) Probes() []*Probe { return pl.probes }

// ProbesIn returns the probes hosted in the given country.
func (pl *Platform) ProbesIn(cc string) []*Probe { return pl.byCC[cc] }

// ProbesOf returns the probes hosted by the given AS.
func (pl *Platform) ProbesOf(asn topology.ASN) []*Probe { return pl.byAS[asn] }

// EligibleIn returns eligible probes in (asn, cc), the unit the paper's
// two-step endpoint sampling draws from. The result is memoized (probe
// attributes are immutable after Generate): callers must not mutate it.
func (pl *Platform) EligibleIn(asn topology.ASN, cc string) []*Probe {
	if pl.eligible != nil {
		return pl.eligible[eligKey{asn: asn, cc: cc}]
	}
	var out []*Probe
	for _, p := range pl.byAS[asn] {
		if p.CC == cc && p.Eligible() {
			out = append(out, p)
		}
	}
	return out
}

// Countries returns the sorted country codes with at least one probe.
func (pl *Platform) Countries() []string {
	out := make([]string, 0, len(pl.byCC))
	for cc := range pl.byCC {
		out = append(out, cc)
	}
	sort.Strings(out)
	return out
}

// availLabel returns the precomputed stream label for the probe, or
// formats one for IDs outside the generated fleet (hand-built tests).
// The string content is exactly what SplitN always received, so the
// memo cannot shift a single availability draw.
func (pl *Platform) availLabel(labels []string, format string, id ProbeID) string {
	if i := int(id); i >= 0 && i < len(labels) && labels[i] != "" {
		return labels[i]
	}
	return fmt.Sprintf(format, id)
}

// Responsive reports whether the probe is online for the given round at
// selection time. The draw is a pure function of (platform seed, probe,
// round).
func (pl *Platform) Responsive(id ProbeID, round int) bool {
	return !pl.avail.BoolSplitN(pl.availLabel(pl.probeLabel, "probe-%d", id), round, pl.OfflineProb)
}

// WindowUp reports whether the probe keeps answering through the round's
// measurement window. Selection happens before the window, so a probe can
// be Responsive yet suffer a mid-window outage — that attrition is what
// limits the paper's campaign to ~84% responsive destinations.
func (pl *Platform) WindowUp(id ProbeID, round int) bool {
	return !pl.avail.BoolSplitN(pl.availLabel(pl.windowLabel, "window-%d", id), round, pl.WindowOutageProb)
}

// ResponsiveFast is the scale-tier selection-time availability coin: a
// pure function of (platform seed, probe, round) like Responsive, drawn
// from the value-type fast-coin family. It costs about what a Responsive
// coin costs; it remains because the scale-tier golden digests were
// recorded with it. The fast family is NOT draw-compatible with
// Responsive; campaigns switch whole-config
// (measure.Config.FastAvailability).
func (pl *Platform) ResponsiveFast(id ProbeID, round int) bool {
	s := pl.fastBase(pl.respBase, "probe", id).At(uint64(round))
	return !s.Bool(pl.OfflineProb)
}

// WindowUpFast is the scale-tier mid-window outage coin; see
// ResponsiveFast.
func (pl *Platform) WindowUpFast(id ProbeID, round int) bool {
	s := pl.fastBase(pl.windBase, "window", id).At(uint64(round))
	return !s.Bool(pl.WindowOutageProb)
}

// fastBase returns the probe's precomputed fast-coin base stream, or
// derives one on the fly for IDs outside the generated fleet
// (hand-built tests) — the derivation is exactly what finalize stored,
// so the memo cannot shift a draw.
func (pl *Platform) fastBase(bases []rng.Stream, label string, id ProbeID) rng.Stream {
	if i := int(id); i >= 0 && i < len(bases) && i < len(pl.probeLabel) && pl.probeLabel[i] != "" {
		return bases[i]
	}
	return pl.availFast.Derive(label, uint64(id))
}
