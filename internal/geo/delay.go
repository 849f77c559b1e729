package geo

import "time"

// SpeedOfLightKmPerSec is the speed of light in vacuum, in km/s.
const SpeedOfLightKmPerSec = 299792.458

// FiberFactor is the fraction of c at which signals propagate in optical
// fiber. The paper follows Singla et al. ("The Internet at the speed of
// light") and uses c * 2/3.
const FiberFactor = 2.0 / 3.0

// FiberSpeedKmPerSec is the propagation speed used for all delay
// computations: roughly 199,862 km/s.
const FiberSpeedKmPerSec = SpeedOfLightKmPerSec * FiberFactor

// PropDelay returns the one-way propagation delay for a great-circle
// distance of km kilometres through optical fiber.
func PropDelay(km float64) time.Duration {
	if km <= 0 {
		return 0
	}
	seconds := km / FiberSpeedKmPerSec
	return time.Duration(seconds * float64(time.Second))
}

// PropDelayBetween returns the one-way fiber propagation delay between two
// coordinates.
func PropDelayBetween(a, b Coord) time.Duration {
	return PropDelay(Distance(a, b))
}

// MinRTT returns the lower bound on the round-trip time between two
// coordinates in a "speed-of-light Internet": twice the one-way fiber
// propagation delay along the geodesic.
func MinRTT(a, b Coord) time.Duration {
	return 2 * PropDelayBetween(a, b)
}

// FeasibleRelay implements the feasibility rule of Section 2.4: a relay f
// is feasible for the endpoint pair (n1, n2) only if, under ideal
// speed-of-light conditions, the relayed round trip could still beat the
// measured direct RTT:
//
//	2 * [t(n1,f) + t(f,n2)] <= RTT(n1,n2)
//
// where t is the one-way fiber propagation delay. Relays failing this test
// cannot possibly improve the pair and are excluded before measuring.
func FeasibleRelay(n1, relay, n2 Coord, directRTT time.Duration) bool {
	if directRTT <= 0 {
		return false
	}
	ideal := 2 * (PropDelayBetween(n1, relay) + PropDelayBetween(relay, n2))
	return ideal <= directRTT
}
