package latency

import (
	"math"
	"time"

	"shortcuts/internal/geo"
)

// Schedule is the diurnal load of one slot schedule: for every ordered
// city pair and every ping slot t0, t0+interval, ..., the load
// 0.5+0.5*cos(phase) of a sinusoid peaking at 21:00 local time at the
// pair's path midpoint. A path's diurnal factor at a slot is
// 1 + amplitude*load. The load reads only the slot's UTC hour and
// minute, so every train of a round, and every round starting at the
// same UTC time of day, prices on one Schedule. Ordered city pair
// (lo, hi) is row lo*nc + hi, in the attachment order of the cache key:
// the midpoint is not symmetric bit for bit.
type Schedule struct {
	n    int       // slots per train
	load []float64 // row p is load[p*n : (p+1)*n]
}

// Schedule tables the diurnal load of n ping slots starting at t0,
// interval apart, for every ordered city pair of the engine's topology.
func (e *Engine) Schedule(t0 time.Time, interval time.Duration, n int) *Schedule {
	e.midOnce.Do(func() {
		topo := e.router.Topology()
		e.midLon = make([]float64, e.nc*e.nc)
		for lo := range e.nc {
			for hi := range e.nc {
				e.midLon[lo*e.nc+hi] = geo.Midpoint(topo.CityLoc(lo), topo.CityLoc(hi)).Lon
			}
		}
	})
	hourFrac := make([]float64, n)
	for slot := range hourFrac {
		u := t0.Add(time.Duration(slot) * interval).UTC()
		hourFrac[slot] = float64(u.Hour()) + float64(u.Minute())/60
	}
	s := &Schedule{n: n, load: make([]float64, len(e.midLon)*n)}
	for p, midLon := range e.midLon {
		for slot, hf := range hourFrac {
			// The association (hour fraction first, then + midLon/15) is
			// the one the golden digests were recorded with.
			localHour := hf + midLon/15
			phase := (localHour - 21) / 24 * 2 * math.Pi
			s.load[p*n+slot] = 0.5 + 0.5*math.Cos(phase)
		}
	}
	return s
}
