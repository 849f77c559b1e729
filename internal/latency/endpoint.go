package latency

import (
	"fmt"
	"time"

	"shortcuts/internal/rng"
	"shortcuts/internal/topology"
)

// AccessClass describes how a measurement endpoint attaches to its AS.
type AccessClass int

const (
	// HostAccess is a residential/office end host behind a last-mile
	// access link (RIPE Atlas probes in eyeballs).
	HostAccess AccessClass = iota
	// ServerAccess is a server or router interface attached at a PoP or
	// inside a facility (colo IPs, PlanetLab servers, anchors, LGs).
	ServerAccess
)

// String implements fmt.Stringer.
func (c AccessClass) String() string {
	switch c {
	case HostAccess:
		return "host"
	case ServerAccess:
		return "server"
	default:
		return fmt.Sprintf("AccessClass(%d)", int(c))
	}
}

// Endpoint is a measurable attachment point in the synthetic Internet: an
// (AS, city) pair plus the one-way access delay between the measured IP
// and its AS's backbone. Access is charged twice per RTT (out and back),
// and — crucially for the paper's relay comparison — four times when the
// endpoint is used as a relay, because both overlay legs cross it.
type Endpoint struct {
	AS     topology.ASN
	City   int
	Access time.Duration
}

// Key returns a compact identity for map keys and deterministic hashing.
func (e Endpoint) Key() EndpointKey {
	return EndpointKey{AS: e.AS, City: e.City, Access: e.Access}
}

// EndpointKey is the comparable identity of an Endpoint.
type EndpointKey struct {
	AS     topology.ASN
	City   int
	Access time.Duration
}

// attachment returns the key's (AS, city) point.
func (k EndpointKey) attachment() attachment {
	return attachment{AS: uint32(k.AS), City: int32(k.City)}
}

// Line is an endpoint bound to its line: its identity, its access delay
// scaled by its line-quality factor, and the FNV fold of its identity
// that keys both that factor's draw and, as the first half of a pair's
// fold, the pair's ping draws. The factor is a pure function of the
// identity, so a congested DSL line is consistently congested across
// every path it terminates or relays; binding it once lets every train
// through the endpoint reuse the draw. Engine.Line is the only
// constructor, so an unbound endpoint cannot be priced.
type Line struct {
	key    EndpointKey
	access time.Duration // Access scaled by the line-quality factor
	h      uint64        // hashEndpointKey(FNVOffset64, key)
}

// Line binds ep to its line: one log-normal line-quality draw, keyed by
// the endpoint's full identity.
func (e *Engine) Line(ep Endpoint) Line {
	k := ep.Key()
	h := hashEndpointKey(rng.FNVOffset64, k)
	g := e.endpointPre.At(h)
	factor := g.LogNormal(0, e.p.AccessCongestionSigma)
	return Line{key: k, access: time.Duration(float64(k.Access) * factor), h: h}
}

// ordered returns a line pair in canonical order: by the full endpoint
// identity, so the pair's draws and cache entry do not depend on which
// end was priced from.
func ordered(a, b *Line) (lo, hi *Line) {
	if less(b.key, a.key) {
		return b, a
	}
	return a, b
}
