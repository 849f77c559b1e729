package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/url"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// Read kinds of the request mix.
const (
	kindBest = iota
	kindPlans
	kindFacilities
	kindRelays
	numKinds
)

var kindNames = [numKinds]string{"best", "plans", "facilities", "relays"}

// corridor is a country pair as /v1/plans lists it.
type corridor struct{ A, B string }

// mixRequest is one read of the request mix.
type mixRequest struct {
	kind     int
	path     string
	corridor int // index into the corridor pool for best reads, else -1
}

// buildMix draws n reads from the seed over the corridor pool:
// /v1/relays/best (60%), /v1/plans with filters and paging (15%),
// /v1/facilities with filters (15%) and /v1/relays with paging and
// filters (10%). Every read is valid in every serving state whose plans
// list all of the pool's corridors.
func buildMix(seed int64, pool []corridor, n int) []mixRequest {
	rng := rand.New(rand.NewSource(seed))
	cc := func() string {
		c := pool[rng.Intn(len(pool))]
		if rng.Intn(2) == 0 {
			return c.A
		}
		return c.B
	}
	mix := make([]mixRequest, n)
	for i := range mix {
		q := url.Values{}
		var m mixRequest
		m.corridor = -1
		switch x := rng.Float64(); {
		case x < 0.60:
			m.kind, m.corridor = kindBest, rng.Intn(len(pool))
			c := pool[m.corridor]
			src, dst := c.A, c.B
			if rng.Intn(2) == 0 {
				src, dst = dst, src
			}
			q.Set("src", src)
			q.Set("dst", dst)
			m.path = "/v1/relays/best?" + q.Encode()
		case x < 0.75:
			m.kind = kindPlans
			switch rng.Intn(3) {
			case 0:
				q.Set("src", cc())
			case 1:
				q.Set("improved", "true")
				q.Set("offset", fmt.Sprint(rng.Intn(200)))
			case 2:
				c := pool[rng.Intn(len(pool))]
				q.Set("src", c.A)
				q.Set("dst", c.B)
			}
			q.Set("limit", "20")
			m.path = "/v1/plans?" + q.Encode()
		case x < 0.90:
			m.kind = kindFacilities
			switch rng.Intn(3) {
			case 0:
				q.Set("cc", cc())
			case 1:
				q.Set("cloud", "true")
				q.Set("limit", "20")
			case 2:
				q.Set("top10", "true")
			}
			m.path = "/v1/facilities?" + q.Encode()
		default:
			m.kind = kindRelays
			switch rng.Intn(3) {
			case 0:
				q.Set("offset", fmt.Sprint(rng.Intn(500)))
			case 1:
				q.Set("type", "COR")
				q.Set("cc", cc())
			case 2:
				q.Set("type", "PLR")
			}
			q.Set("limit", "20")
			m.path = "/v1/relays?" + q.Encode()
		}
		mix[i] = m
	}
	return mix
}

// readSample is one timed read of the open loop.
type readSample struct {
	due  time.Time
	lat  time.Duration // done - due
	svc  time.Duration // done - sent
	late time.Duration // generator lateness, see account
	wait time.Duration // sent - due: lateness plus queueing behind the connection
	kind uint8
	cold bool
	ok   bool
}

// account times one read of the open loop. Its latency runs from when
// it was due, so a stall delays the reads queued behind it too. The
// generator's own lateness is how long after the later of its due time
// and its connection becoming free the read went out.
func account(due, free, sent, done time.Time) (lat, late time.Duration) {
	ready := due
	if free.After(ready) {
		ready = free
	}
	return done.Sub(due), sent.Sub(ready)
}

// sleepUntil waits for t. time.Sleep rounds sub-millisecond waits up to
// a millisecond through the network poller, more than a read takes, so
// short waits use nanosleep, woken a little early to absorb its wake-up
// delay.
func sleepUntil(t time.Time) {
	const wake = 50 * time.Microsecond
	d := time.Until(t)
	switch {
	case d > 2*time.Millisecond:
		time.Sleep(d - time.Millisecond)
		sleepUntil(t)
	case d > wake:
		ts := syscall.NsecToTimespec(int64(d - wake))
		_ = syscall.Nanosleep(&ts, nil) // an early wake-up only makes the read early
	}
}

// loadGen is the open-loop read generator. Read i of a phase is due at
// start + i/rate whatever happened to earlier reads, and goes out over
// the first of its connections to become free. Each connection is its
// own http.Client, so the reads use exactly len(clients) connections.
type loadGen struct {
	base    string
	clients []*http.Client
	mix     []mixRequest
	pos     int64 // mix position of the next phase's first read

	gen     atomic.Int64   // serving generation; bumped after each boot or swap
	touched []atomic.Int64 // per pool corridor: generation of its last best read
}

func newLoadGen(base string, conns int, mix []mixRequest, poolSize int) *loadGen {
	g := &loadGen{base: base, mix: mix, touched: make([]atomic.Int64, poolSize)}
	for i := 0; i < conns; i++ {
		g.clients = append(g.clients, &http.Client{
			Timeout:   10 * time.Second,
			Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
		})
	}
	g.gen.Store(1)
	return g
}

func (g *loadGen) close() {
	for _, c := range g.clients {
		c.CloseIdleConnections()
	}
}

// phase runs the open loop at rate until d has passed or stop closes,
// and returns when it started and its reads in due order.
func (g *loadGen) phase(rate float64, d time.Duration, stop <-chan struct{}) (time.Time, []readSample) {
	start := time.Now().Add(time.Millisecond)
	end := start.Add(d)
	interval := float64(time.Second) / rate
	var next atomic.Int64
	out := make([][]readSample, len(g.clients))
	var wg sync.WaitGroup
	for c := range g.clients {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var buf bytes.Buffer
			free := time.Now()
			for {
				i := next.Add(1) - 1
				due := start.Add(time.Duration(float64(i) * interval))
				if !due.Before(end) {
					return
				}
				select {
				case <-stop:
					return
				default:
				}
				sleepUntil(due)
				m := &g.mix[(g.pos+i)%int64(len(g.mix))]
				s := readSample{due: due, kind: uint8(m.kind)}
				if m.corridor >= 0 {
					gen := g.gen.Load()
					s.cold = g.touched[m.corridor].Swap(gen) != gen
				}
				sent := time.Now()
				s.ok = g.get(g.clients[c], m.path, &buf) == nil
				done := time.Now()
				s.lat, s.late = account(due, free, sent, done)
				s.svc, s.wait = done.Sub(sent), sent.Sub(due)
				free = done
				out[c] = append(out[c], s)
			}
		}(c)
	}
	wg.Wait()
	var all []readSample
	for _, o := range out {
		all = append(all, o...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].due.Before(all[j].due) })
	g.pos += int64(len(all))
	return start, all
}

// get performs one read: it must answer 2xx with a JSON body.
func (g *loadGen) get(c *http.Client, path string, buf *bytes.Buffer) error {
	resp, err := c.Get(g.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	buf.Reset()
	if _, err := io.Copy(buf, resp.Body); err != nil {
		return err
	}
	return checkBody(resp.StatusCode, buf.Bytes())
}

func checkBody(code int, body []byte) error {
	if code < 200 || code > 299 {
		return fmt.Errorf("status %d: %.200s", code, body)
	}
	if !json.Valid(body) {
		return fmt.Errorf("body is not JSON: %.200s", body)
	}
	return nil
}

// readStats summarises a set of reads.
type readStats struct {
	cold, best     int
	lat, late, svc timing
}

func summarize(name string, xs []readSample) readStats {
	var st readStats
	lat := make([]float64, 0, len(xs))
	late := make([]float64, 0, len(xs))
	svc := make([]float64, 0, len(xs))
	for _, s := range xs {
		if s.kind == kindBest {
			st.best++
			if s.cold {
				st.cold++
			}
		}
		lat = append(lat, ms(s.lat))
		late = append(late, ms(s.late))
		svc = append(svc, ms(s.svc))
	}
	st.lat = newTiming(name+" read latency from due", "ms", lat)
	st.late = newTiming(name+" generator lateness", "ms", late)
	st.svc = newTiming(name+" read service time", "ms", svc)
	return st
}

// windowedMedian splits reads into windows of length w by due time and
// returns the median of the windows' median latencies, in ms. A burst
// of contention from outside that covers a minority of the windows
// leaves it unchanged, where it would shift the plain median.
func windowedMedian(xs []readSample, w time.Duration) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	start := xs[0].due
	var meds, win []float64
	for i, x := range xs {
		win = append(win, ms(x.lat))
		if i == len(xs)-1 || xs[i+1].due.Sub(start) >= w*time.Duration(len(meds)+1) {
			meds = append(meds, medianOf(win))
			win = win[:0]
		}
	}
	return medianOf(meds)
}

// ladderStep is one rate of the saturation ladder.
type ladderStep struct {
	rate     float64       // target reads per second
	achieved float64       // reads completed per second of the step
	p99      time.Duration // read latency from due
	backlog  time.Duration // median wait behind the connections over the step's last tenth
	failed   int
}

// passes reports whether the step met the latency limit at its rate:
// p99 within limit, no failed read, no growing backlog and at least 95%
// of the target rate achieved.
func (s ladderStep) passes(limit time.Duration) bool {
	return s.failed == 0 && s.p99 <= limit && s.backlog <= limit/2 && s.achieved >= 0.95*s.rate
}

// measureStep reduces one ladder step's reads.
func measureStep(rate float64, start time.Time, xs []readSample) ladderStep {
	st := ladderStep{rate: rate}
	if len(xs) == 0 {
		return st
	}
	lat := make([]float64, len(xs))
	var last time.Time
	for i, s := range xs {
		lat[i] = float64(s.lat)
		if !s.ok {
			st.failed++
		}
		if d := s.due.Add(s.lat); d.After(last) {
			last = d
		}
	}
	sort.Float64s(lat)
	st.p99 = time.Duration(percentile(lat, 99))
	tail := xs[len(xs)-max(len(xs)/10, 1):]
	waits := make([]float64, len(tail))
	for i, s := range tail {
		waits[i] = float64(s.wait)
	}
	sort.Float64s(waits)
	st.backlog = time.Duration(percentile(waits, 50))
	if span := last.Sub(start); span > 0 {
		st.achieved = float64(len(xs)) / span.Seconds()
	}
	return st
}

// ladderRates returns rates from lo growing by factor (at most 1.1, so
// neighbouring steps are at most 10% apart) up to hi.
func ladderRates(lo, hi, factor float64) []float64 {
	factor = min(factor, 1.1)
	var rates []float64
	for r := lo; r <= hi; r *= factor {
		rates = append(rates, r)
	}
	return rates
}

// maxRate returns the highest step that passes. The climb stops after
// two failing steps in a row, so a lone failure from a stray pause does
// not end it.
func maxRate(steps []ladderStep, limit time.Duration) (ladderStep, bool) {
	var best ladderStep
	ok := false
	for _, s := range steps {
		if s.passes(limit) && s.rate > best.rate {
			best, ok = s, true
		}
	}
	return best, ok
}

// climbDone reports whether the ladder should stop: its last two steps
// failed.
func climbDone(steps []ladderStep, limit time.Duration) bool {
	n := len(steps)
	return n >= 2 && !steps[n-1].passes(limit) && !steps[n-2].passes(limit)
}
