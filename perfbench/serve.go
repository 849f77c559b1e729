package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"sort"
	"strings"
	"time"

	"shortcuts"
	"shortcuts/internal/detect"
	"shortcuts/internal/measure"
	"shortcuts/internal/serve"
	"shortcuts/internal/sim"
)

// serve-swap settings. The rates are fixed, not derived from the
// machine, so two commits are always compared at the same load.
const (
	serveRounds   = 4    // warm campaign rounds per serving state, relayserve's default
	nominalRate   = 3500 // reads/s: about a quarter of the 2-connection closed-loop capacity on a 2-core host
	readConns     = 2    // connections of the read stream
	readLimit     = 2 * time.Millisecond
	ladderLo      = nominalRate
	ladderHi      = 40000.0
	ladderFactor  = 1.08
	bootSamples   = 3
	poolSize      = 400 // corridors the best reads draw from
	compareSample = 32  // corridors whose bodies are compared with a fresh server's
)

// serveLayerMetrics are the per-layer metrics only serve-swap reaches.
var serveLayerMetrics = []string{
	"serve.boot.world_ms", "serve.boot.campaign_ms", "serve.boot.catalog_ms", "serve.boot.rest_ms",
	"serve.swap.world_ms", "serve.swap.campaign_ms",
	"net.transport_us_p50", "serve.best_cold_frac", "gen.late_ms_p99",
}

func handlerMetric(kind, stat string) string { return "serve.handler." + kind + "." + stat }

var handlerKinds = []string{"best_warm", "best_cold", "plans", "facilities", "relays"}

// setShares sets cpu_share.* and notes every layer's share.
func setShares(r *report, shares map[string]float64) {
	var layers []string
	for l := range shares {
		layers = append(layers, l)
	}
	sort.Slice(layers, func(i, j int) bool { return shares[layers[i]] > shares[layers[j]] })
	line := "CPU profile by layer:"
	for _, l := range layers {
		line += fmt.Sprintf(" %s %.3f", l, shares[l])
	}
	r.note("%s", line)
	for _, l := range profiledLayers {
		r.set("cpu_share."+l, shares[l])
	}
}

// setServeLayersUnreached reports the serve-only layers as 0 on the
// campaign workloads, which never call them.
func setServeLayersUnreached(r *report) {
	for _, m := range serveLayerMetrics {
		r.set(m, 0)
	}
	for _, k := range handlerKinds {
		r.set(handlerMetric(k, "p50_us"), 0)
		r.set(handlerMetric(k, "p99_us"), 0)
	}
}

// liveServer is relayserve started in process exactly as cmd/relayserve
// starts it: serve.New, bind the listener, serve HTTP, Warm in a
// goroutine.
type liveServer struct {
	base   string
	http   *http.Server
	served chan error
	warmed chan error
	poll   *http.Client
}

// bootServer starts a server for seed and returns it once /readyz
// answers 200 over loopback, with the time that took.
func bootServer(seed int64) (*liveServer, time.Duration, error) {
	t0 := time.Now()
	srv, err := serve.New(serve.Options{Seed: seed, Rounds: serveRounds})
	if err != nil {
		return nil, 0, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, 0, err
	}
	ls := &liveServer{
		base:   "http://" + ln.Addr().String(),
		http:   &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 10 * time.Second},
		served: make(chan error, 1),
		warmed: make(chan error, 1),
		poll:   &http.Client{Timeout: 10 * time.Second},
	}
	go func() { ls.served <- ls.http.Serve(ln) }()
	go func() { ls.warmed <- srv.Warm() }()
	for {
		code, _, err := ls.fetch(http.MethodGet, "/readyz")
		if err != nil {
			ls.stop()
			return nil, 0, err
		}
		if code == http.StatusOK {
			return ls, time.Since(t0), nil
		}
		select {
		case err := <-ls.warmed:
			ls.warmed <- err
			if err != nil {
				ls.stop()
				return nil, 0, fmt.Errorf("warm: %w", err)
			}
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// fetch performs one request on the server's control connection.
func (ls *liveServer) fetch(method, path string) (int, []byte, error) {
	req, err := http.NewRequest(method, ls.base+path, nil)
	if err != nil {
		return 0, nil, err
	}
	resp, err := ls.poll.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

// stop waits for Warm, shuts the HTTP server down and waits for Serve
// to return.
func (ls *liveServer) stop() {
	<-ls.warmed
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = ls.http.Shutdown(ctx) // the benchmark is done with the server; a late close changes nothing
	<-ls.served
	ls.poll.CloseIdleConnections()
}

// readyState is the part of /readyz the checks read.
type readyState struct {
	Ready    bool   `json:"ready"`
	Seed     int64  `json:"seed"`
	Scenario string `json:"scenario"`
}

// swapResult is one POST /v1/admin/swap.
type swapResult struct {
	start, end time.Time
	worldMs    float64
	campaignMs float64
}

type swapResponse struct {
	Swapped bool `json:"swapped"`
	State   struct {
		Seed       int64  `json:"seed"`
		Scenario   string `json:"scenario"`
		WorldMs    int64  `json:"world_build_ms"`
		CampaignMs int64  `json:"campaign_ms"`
	} `json:"state"`
}

// swap moves the server to (seed, scen) and checks that /readyz then
// reports that state.
func (ls *liveServer) swap(seed int64, scen string) (swapResult, error) {
	sr := swapResult{start: time.Now()}
	code, body, err := ls.fetch(http.MethodPost, fmt.Sprintf("/v1/admin/swap?seed=%d&scenario=%s", seed, scen))
	sr.end = time.Now()
	if err != nil {
		return sr, err
	}
	if err := checkBody(code, body); err != nil {
		return sr, err
	}
	var resp swapResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return sr, err
	}
	if !resp.Swapped || resp.State.Seed != seed || resp.State.Scenario != scen {
		return sr, fmt.Errorf("swap answered %s", body)
	}
	sr.worldMs, sr.campaignMs = float64(resp.State.WorldMs), float64(resp.State.CampaignMs)
	code, body, err = ls.fetch(http.MethodGet, "/readyz")
	if err != nil {
		return sr, err
	}
	var rs readyState
	if err := json.Unmarshal(body, &rs); err != nil || code != http.StatusOK {
		return sr, fmt.Errorf("/readyz after swap: %d %s", code, body)
	}
	if !rs.Ready || rs.Seed != seed || rs.Scenario != scen {
		return sr, fmt.Errorf("/readyz reports seed %d scenario %q after swapping to seed %d scenario %q", rs.Seed, rs.Scenario, seed, scen)
	}
	return sr, nil
}

// inProcess answers requests from a server's handler without a network.
type inProcess struct{ h http.Handler }

func (p inProcess) get(path string) (int, []byte) {
	w := &bodyWriter{header: http.Header{}}
	// The paths are the benchmark's own; NewRequest fails only on an
	// unparsable URL or method.
	req, _ := http.NewRequest(http.MethodGet, "http://local"+path, nil)
	p.h.ServeHTTP(w, req)
	return w.code, w.body
}

// bodyWriter is the smallest http.ResponseWriter that keeps the body.
type bodyWriter struct {
	header http.Header
	code   int
	body   []byte
}

func (w *bodyWriter) Header() http.Header { return w.header }
func (w *bodyWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
}
func (w *bodyWriter) Write(b []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	w.body = append(w.body, b...)
	return len(b), nil
}

type plansPage struct {
	Plans []struct {
		Src string `json:"src"`
		Dst string `json:"dst"`
	} `json:"plans"`
}

func decodeCorridors(code int, body []byte) ([]corridor, error) {
	if err := checkBody(code, body); err != nil {
		return nil, err
	}
	var p plansPage
	if err := json.Unmarshal(body, &p); err != nil {
		return nil, err
	}
	out := make([]corridor, len(p.Plans))
	for i, pl := range p.Plans {
		out[i] = corridor{pl.Src, pl.Dst}
	}
	return out, nil
}

// corridorPool returns the corridors both serving states measured,
// sorted, and a pool of up to n of them drawn by the seed.
func corridorPool(seed int64, a, b []corridor, n int) (common, pool []corridor) {
	inB := make(map[corridor]bool, len(b))
	for _, c := range b {
		inB[c] = true
	}
	for _, c := range a {
		if inB[c] {
			common = append(common, c)
		}
	}
	sort.Slice(common, func(i, j int) bool {
		return common[i].A < common[j].A || (common[i].A == common[j].A && common[i].B < common[j].B)
	})
	rng := rand.New(rand.NewSource(seed))
	perm := rng.Perm(len(common))
	for _, i := range perm[:min(n, len(perm))] {
		pool = append(pool, common[i])
	}
	return common, pool
}

// serveRun holds what the untraced and the traced serve run share.
type serveRun struct {
	o       options
	r       *report
	tr      *tracer
	boots   []float64
	live    *liveServer
	fresh   inProcess // fresh server of the last swap's state
	common  []corridor
	pool    []corridor
	gen     *loadGen
	nominal []readSample
	swaps   []swapResult
	during  []readSample // reads due while a swap was building
	swapAll []readSample
	steps   []ladderStep
}

// swapTarget is the (seed, scenario) of swap k: swaps alternate between
// the next world seed under the outage preset and the boot state, the
// default world (worldSeed) calm. The served states are part of the
// workload; the run's seed draws the read stream. An odd number of
// swaps ends on the outage state.
func swapTarget(k int) (int64, string) {
	if k%2 == 0 {
		return worldSeed + 1, "outage"
	}
	return worldSeed, "calm"
}

// runServe runs serve-swap: boot relayserve, measure reads at the
// nominal rate, climb the rate ladder, then swap back and forth while
// the nominal stream continues, and check every answer.
func runServe(o options, r *report) error {
	s := &serveRun{o: o, r: r}
	if o.traced {
		s.tr = newTracer()
	}
	err := s.setup()
	if s.live != nil {
		defer s.live.stop()
	}
	if err != nil {
		return err
	}
	defer s.gen.close()
	phase := o.seconds / 4
	if o.traced {
		s.traceServe(phase)
		return nil
	}
	s.nominal = s.readPhase("nominal", phase)
	s.climb(phase)
	s.swapPhase(o.seconds / 3)
	s.verify()
	s.report()
	return nil
}

// setup boots the server bootSamples times (keeping the last), builds
// a fresh in-process server of the state the swaps end on, and draws
// the request mix from the corridors both states serve.
func (s *serveRun) setup() error {
	for i := 0; i < bootSamples; i++ {
		if s.live != nil {
			s.live.stop()
			s.live = nil
		}
		runtime.GC()
		run := s.tr.newRun()
		t0 := time.Now()
		ls, d, err := bootServer(worldSeed)
		s.r.op("boot", err)
		if err != nil {
			return err
		}
		s.tr.add(run, -1, "serve boot: New, Listen, Serve, Warm until /readyz", t0, t0.Add(d))
		s.live = ls
		s.boots = append(s.boots, sec(d))
	}
	if err := s.freshServer(); err != nil {
		return err
	}
	code, body, err := s.live.fetch(http.MethodGet, "/v1/plans")
	if err != nil {
		return err
	}
	a, err := decodeCorridors(code, body)
	if err != nil {
		return fmt.Errorf("boot state /v1/plans: %w", err)
	}
	b, err := decodeCorridors(s.fresh.get("/v1/plans"))
	if err != nil {
		return fmt.Errorf("swap state /v1/plans: %w", err)
	}
	s.fresh = inProcess{} // not resident while phases run; verify builds it again
	s.common, s.pool = corridorPool(s.o.seed, a, b, poolSize)
	if len(s.pool) == 0 {
		return errors.New("the two serving states share no corridor")
	}
	s.gen = newLoadGen(s.live.base, readConns, buildMix(s.o.seed, s.pool, 8192), len(s.pool))
	return nil
}

// freshServer builds, in process, a server of the state the swaps end
// on.
func (s *serveRun) freshServer() error {
	seed, scen := swapTarget(0)
	fresh, err := serve.New(serve.Options{Seed: seed, Scenario: scen, Rounds: serveRounds})
	if err == nil {
		err = fresh.Warm()
	}
	if err != nil {
		return fmt.Errorf("fresh server: %w", err)
	}
	s.fresh = inProcess{fresh.Handler()}
	return nil
}

// readPhase runs the nominal open loop for d with no swap in flight.
// Every measured phase starts from a collected heap, so whether a
// collection falls inside it does not depend on what ran before.
func (s *serveRun) readPhase(name string, d time.Duration) []readSample {
	runtime.GC()
	run := s.tr.newRun()
	t0 := time.Now()
	_, xs := s.gen.phase(nominalRate, d, nil)
	s.tr.add(run, -1, "loadgen "+name+" phase", t0, time.Now())
	s.countReads(name, xs)
	return xs
}

func (s *serveRun) countReads(name string, xs []readSample) {
	failed := 0
	for _, x := range xs {
		if !x.ok {
			failed++
		}
	}
	s.r.ops(name+" reads", int64(len(xs)), int64(failed))
}

// climb runs the rate ladder from ladderLo until two steps in a row
// miss the limit, giving each step a fixed share of the phase.
func (s *serveRun) climb(d time.Duration) {
	step := max(d/15, 250*time.Millisecond)
	run := s.tr.newRun()
	root := s.tr.open(run, -1, "loadgen ladder")
	defer s.tr.close(root)
	for _, rate := range ladderRates(ladderLo, ladderHi, ladderFactor) {
		runtime.GC()
		t0 := time.Now()
		start, xs := s.gen.phase(rate, step, nil)
		s.tr.add(run, root, fmt.Sprintf("loadgen step %.0f/s", rate), t0, time.Now())
		s.countReads("ladder", xs)
		s.steps = append(s.steps, measureStep(rate, start, xs))
		if climbDone(s.steps, readLimit) {
			break
		}
	}
}

// swapPhase swaps back and forth while the nominal stream runs, for at
// least d and always an odd number of swaps.
func (s *serveRun) swapPhase(d time.Duration) {
	runtime.GC()
	stop := make(chan struct{})
	done := make(chan []readSample, 1)
	go func() {
		_, xs := s.gen.phase(nominalRate, time.Hour, stop)
		done <- xs
	}()
	run := s.tr.newRun()
	t0 := time.Now()
	for k := 0; k%2 == 0 || time.Since(t0) < d; k++ {
		seed, scen := swapTarget(k)
		sr, err := s.live.swap(seed, scen)
		s.r.op("swap", err)
		s.gen.gen.Add(1)
		s.tr.add(run, -1, fmt.Sprintf("POST /v1/admin/swap seed=%d scenario=%s", seed, scen), sr.start, sr.end)
		if err != nil {
			break
		}
		s.swaps = append(s.swaps, sr)
	}
	close(stop)
	s.swapAll = <-done
	s.countReads("swap-phase", s.swapAll)
	for _, x := range s.swapAll {
		for _, sw := range s.swaps {
			if !x.due.Before(sw.start) && x.due.Before(sw.end) {
				s.during = append(s.during, x)
				break
			}
		}
	}
}

// verify compares /v1/relays/best bodies after the last swap with a
// fresh in-process server's for the same state.
func (s *serveRun) verify() {
	if s.fresh.h == nil {
		if err := s.freshServer(); err != nil {
			s.r.op("fresh server", err)
			return
		}
	}
	rng := rand.New(rand.NewSource(s.o.seed + 1))
	for _, i := range rng.Perm(len(s.common))[:min(compareSample, len(s.common))] {
		c := s.common[i]
		path := fmt.Sprintf("/v1/relays/best?src=%s&dst=%s", c.A, c.B)
		code, got, err := s.live.fetch(http.MethodGet, path)
		if err == nil {
			err = checkBody(code, got)
		}
		if err == nil {
			if wcode, want := s.fresh.get(path); wcode != code || string(want) != string(got) {
				err = fmt.Errorf("%s: loopback %d %q, fresh server %d %q", path, code, got, wcode, want)
			}
		}
		s.r.op("compare best body", err)
	}
}

// report sets the end-to-end metrics.
func (s *serveRun) report() {
	r := s.r
	var campaign, round, swapS []float64
	for _, sw := range s.swaps {
		campaign = append(campaign, sw.campaignMs/1e3)
		round = append(round, sw.campaignMs/serveRounds)
		swapS = append(swapS, sec(sw.end.Sub(sw.start)))
	}
	tBoot := newTiming("boot until /readyz", "s", s.boots)
	tCampaign := newTiming("swap warm campaign", "s", campaign)
	tRound := newTiming("swap warm campaign per round", "ms", round)
	tSwap := newTiming("swap POST to response", "s", swapS)
	nominal := summarize("nominal", s.nominal)
	during := summarize("during swap", s.during)
	best, ok := maxRate(s.steps, readLimit)
	if !ok {
		r.note("rate ladder: no step kept p99 <= %v, not even %v/s", readLimit, ladderLo)
	}
	r.set("setup_s", tBoot.median())
	r.set("campaign_s", tCampaign.median())
	r.set("round_p50_ms", tRound.median())
	r.set("round_p75_ms", tRound.p(75))
	r.set("read_p50_ms", windowedMedian(s.nominal, time.Second))
	r.set("read_p99_ms", nominal.lat.p(99))
	r.set("read_max_rps", best.achieved)
	r.set("swap_read_p99_ms", during.lat.p(99))
	r.set("swap_s", tSwap.median())
	for _, t := range []timing{tBoot, tCampaign, tRound, tSwap, nominal.lat, nominal.late, during.lat} {
		r.note("%s", t.describe())
	}
	for _, st := range s.steps {
		r.note("ladder %7.0f/s: achieved %7.0f/s, p99 %6.3f ms, backlog %6.3f ms, failed %d, pass %v",
			st.rate, st.achieved, ms(st.p99), ms(st.backlog), st.failed, st.passes(readLimit))
	}
	r.note("read_max_rps %.6g (step %.0f/s); %d swaps; %d corridors common to both states, pool %d",
		best.achieved, best.rate, len(s.swaps), len(s.common), len(s.pool))
}

// traceServe is the traced run: the untraced phases once more with the
// CPU profiler on and spans recorded, preceded by an untraced nominal
// phase for the overhead, then per-layer replicas: the handlers in
// process, the boot's calls one by one, and the public adapter.
func (s *serveRun) traceServe(phase time.Duration) {
	r := s.r
	spansPath, profPath := traceFiles(s.o.outDir, s.o.workload, s.o.seed)
	clock := clockCost()
	untraced := summarize("untraced nominal", s.readPhase("untraced nominal", phase))
	prof, err := startCPUProfile(profPath)
	if err != nil {
		r.op("cpu profile", err)
		return
	}
	s.nominal = s.readPhase("nominal", phase)
	s.climb(phase)
	s.swapPhase(s.o.seconds / 3)
	if err := prof.stop(); err != nil {
		r.op("cpu profile", err)
	}
	if err := s.freshServer(); err != nil {
		r.op("fresh server", err)
		return
	}
	handlerP50 := s.handlerBench(clock)
	s.verify()
	s.report()
	traced := summarize("nominal", s.nominal)
	shares, samples, err := prof.shares()
	r.op("cpu profile", err)
	setShares(r, shares)

	// Serve layer and transport.
	var swapWorld, swapCampaign []float64
	for _, sw := range s.swaps {
		swapWorld = append(swapWorld, sw.worldMs)
		swapCampaign = append(swapCampaign, sw.campaignMs)
	}
	r.set("serve.swap.world_ms", medianOf(swapWorld))
	r.set("serve.swap.campaign_ms", medianOf(swapCampaign))
	all := append(append([]readSample(nil), s.nominal...), s.swapAll...)
	st := summarize("all", all)
	r.set("serve.best_cold_frac", float64(st.cold)/float64(max(st.best, 1)))
	r.set("gen.late_ms_p99", traced.late.p(99))
	r.set("net.transport_us_p50", (traced.svc.median()-handlerP50)*1e3)
	r.set("trace.overhead_frac", (traced.lat.median()-untraced.lat.median())/untraced.lat.median())

	// The boot's calls, one by one, and the public adapter.
	s.bootReplica()
	s.adapterReplica(clock, strings.TrimSuffix(profPath, ".cpu.pprof")+"-adapter.cpu.pprof")
	r.set("coverage.setup", (r.metrics["sim.build_ms"]+r.metrics["bgp.warm_routes_ms"])/(r.metrics["setup_s"]*1e3))
	bootSum := r.metrics["serve.boot.world_ms"] + r.metrics["serve.boot.campaign_ms"] +
		r.metrics["serve.boot.catalog_ms"] + r.metrics["serve.boot.rest_ms"]
	r.set("coverage.boot", bootSum/(r.metrics["setup_s"]*1e3))
	if err := s.tr.write(spansPath); err != nil {
		r.op("write spans", err)
	}
	r.note("traced serve-swap seed %d: %d CPU samples; spans in %s, profile in %s", s.o.seed, samples, spansPath, profPath)
	r.note("coverage: (sim.build + bgp.warm) / setup = %.3f; Σ rounds / campaign = %.3f; Σ serve.boot.* / setup = %.3f",
		r.metrics["coverage.setup"], r.metrics["coverage.rounds"], r.metrics["coverage.boot"])
}

// handlerBench times Handler().ServeHTTP in process on the fresh
// server: first touches of every common corridor (cold), then the mix
// (warm best reads and the listings). It returns the p50 over the mix in
// ms, the in-process counterpart of a loopback read.
func (s *serveRun) handlerBench(clock time.Duration) float64 {
	run := s.tr.newRun()
	root := s.tr.open(run, -1, "serve handlers in process")
	defer s.tr.close(root)
	lat := map[string][]float64{}
	timeOne := func(kind, path string) float64 {
		t0 := time.Now()
		code, body := s.fresh.get(path)
		us := float64(time.Since(t0)-clock) / 1e3
		if err := checkBody(code, body); err != nil {
			s.r.op("in-process "+path, err)
		}
		lat[kind] = append(lat[kind], us)
		return us
	}
	t0 := time.Now()
	for _, c := range s.common {
		timeOne("best_cold", fmt.Sprintf("/v1/relays/best?src=%s&dst=%s", c.A, c.B))
	}
	s.tr.add(run, root, "serve.handleBest cold", t0, time.Now())
	t1 := time.Now()
	var mixUs []float64
	for i := 0; i < 3; i++ {
		for _, m := range s.gen.mix {
			kind := kindNames[m.kind]
			if m.kind == kindBest {
				kind = "best_warm"
			}
			mixUs = append(mixUs, timeOne(kind, m.path))
		}
	}
	s.tr.add(run, root, "serve handlers: request mix", t1, time.Now())
	for _, k := range handlerKinds {
		t := newTiming(k, "us", lat[k])
		s.r.set(handlerMetric(k, "p50_us"), t.median())
		s.r.set(handlerMetric(k, "p99_us"), t.p(99))
		s.r.note("handler %s", t.describe())
	}
	return medianOf(mixUs) / 1e3
}

// roundTimer is a measure.Sink that only times rounds.
type roundTimer struct {
	last      time.Time
	roundMs   []float64
	alloc     []float64
	endpoints int
	prevAlloc uint64
}

func (t *roundTimer) Emit(measure.Observation) {}

func (t *roundTimer) RoundDone(ri measure.RoundInfo) {
	now := time.Now()
	t.roundMs = append(t.roundMs, ms(now.Sub(t.last)))
	t.last = now
	t.endpoints += ri.Endpoints
	u := readUsage()
	t.alloc = append(t.alloc, float64(u.alloc-t.prevAlloc)/(1<<20))
	t.prevAlloc = u.alloc
}

// bootReplica repeats the calls serve's buildState makes for the boot
// state — world build, warm campaign with a monitoring detector, result
// catalog — timing each, and times Warm on a fresh server; the part of
// Warm the calls do not cover is serve.boot.rest_ms (plans and lookup
// tables).
func (s *serveRun) bootReplica() {
	r := s.r
	run := s.tr.newRun()
	root := s.tr.open(run, -1, "serve boot replica")
	defer s.tr.close(root)
	clock := clockCost()
	runtime.GC()
	t0 := time.Now()
	w, err := sim.BuildWith(sim.DefaultWorldParams(worldSeed), sim.BuildOptions{WarmRoutes: false})
	if err != nil {
		r.op("replica build", err)
		return
	}
	t1 := time.Now()
	err = w.WarmRoutes(0)
	t2 := time.Now()
	r.op("replica warm routes", err)
	s.tr.add(run, root, "sim.BuildWith", t0, t1)
	s.tr.add(run, root, "bgp.WarmRoutes", t1, t2)
	mc := measure.QuickConfig(serveRounds)
	mc.CampaignSeed = worldSeed
	det := &timedDetector{d: detect.New(w, detect.Options{})}
	mc.SelfHeal = det
	res := measure.NewResults(mc, w)
	rt := &roundTimer{}
	u0 := readUsage()
	rt.prevAlloc = u0.alloc
	t3 := time.Now()
	rt.last = t3
	err = measure.RunStream(w, mc, measure.MultiSink(res, rt))
	t4 := time.Now()
	u1 := readUsage()
	r.op("replica campaign", err)
	cat := measure.NewResultCatalog(res)
	t5 := time.Now()
	s.tr.add(run, root, "measure.RunStream (detector attached)", t3, t4)
	s.tr.add(run, root, "measure.NewResultCatalog", t4, t5)
	if err != nil || len(rt.roundMs) == 0 {
		return
	}

	runtime.GC()
	srv, err := serve.New(serve.Options{Seed: worldSeed, Rounds: serveRounds})
	t6 := time.Now()
	if err == nil {
		err = srv.Warm()
	}
	t7 := time.Now()
	r.op("replica Warm", err)
	s.tr.add(run, root, "serve.Warm", t6, t7)

	world, campaign, catalog := t2.Sub(t0), t4.Sub(t3), t5.Sub(t4)
	r.set("sim.build_ms", ms(t1.Sub(t0)))
	r.set("bgp.warm_routes_ms", ms(t2.Sub(t1)))
	r.set("serve.boot.world_ms", ms(world))
	r.set("serve.boot.campaign_ms", ms(campaign))
	r.set("serve.boot.catalog_ms", ms(catalog))
	r.set("serve.boot.rest_ms", ms(t7.Sub(t6)-world-campaign-catalog))
	r.set("measure.round0_ms", rt.roundMs[0])
	r.set("measure.round_ms_p50", medianOf(rt.roundMs[1:]))
	usable := 0
	for _, ri := range res.Rounds {
		usable += ri.PairsUsable
	}
	r.set("measure.pings", float64(res.TotalPings))
	r.set("measure.relayed_paths", float64(res.RelayedPathsStudied()))
	r.set("measure.pairs_usable_ratio", float64(usable)/float64(max(res.PairsAttempted, 1)))
	r.set("measure.alloc_mb_per_round", medianOf(rt.alloc))
	r.set("runtime.gc_cpu_s", u1.gc-u0.gc)
	r.set("cpu.busy_frac", busyFrac(u0, u1))
	cached, loadMax := w.Engine.CachedPairs(), 0.0
	for _, st := range w.Engine.CacheStats() {
		loadMax = max(loadMax, st.LoadFactor())
	}
	r.set("latency.cached_pairs", float64(cached))
	r.set("latency.cache_load_max", loadMax)
	r.set("detect.emit_ns", perCallNs(det.emitTime, det.emits, clock))
	r.set("detect.round_us", perCallNs(det.roundTime, det.rounds, clock)/1e3)
	r.set("detect.events", float64(len(det.d.Events())))
	r.set("endpoints_per_s", float64(rt.endpoints)/campaign.Seconds())
	r.set("coverage.rounds", sum(rt.roundMs)/ms(campaign))
	if len(cat.Corridors()) == 0 {
		r.op("replica catalog", errors.New("no corridors"))
	}
}

// adapterReplica runs the boot state's campaign through the public API
// under the CPU profiler, and again below it into an equivalent sink:
// both streams must match. The adapter's cost is the profile's share of
// the public package times the campaign's CPU time, as on the campaign
// workloads.
func (s *serveRun) adapterReplica(clock time.Duration, profPath string) {
	cfg := shortcuts.Config{Seed: worldSeed, Rounds: serveRounds}
	runtime.GC()
	w, err := shortcuts.BuildWorld(cfg)
	if err != nil {
		s.r.op("adapter world", err)
		return
	}
	c, err := shortcuts.NewCampaignWith(w, cfg)
	if err != nil {
		s.r.op("adapter campaign", err)
		return
	}
	pub := newCampaignStream()
	pub.timeEmit = true
	prof, err := startCPUProfile(profPath)
	if err != nil {
		s.r.op("adapter profile", err)
		return
	}
	u0 := readUsage()
	pub.start()
	_, err = c.RunStream(publicSink{pub})
	u1 := readUsage()
	s.r.op("adapter profile", prof.stop())
	s.r.op("adapter public campaign", err)
	shares, _, perr := prof.shares()
	s.r.op("adapter profile", perr)
	mc := measure.QuickConfig(serveRounds)
	mc.CampaignSeed = worldSeed
	in, err := internalCampaign(sim.DefaultWorldParams(worldSeed), mc, false, nil, 0, -1)
	s.r.op("adapter internal campaign", err)
	if err == nil && pub.d.sum() != in.stream.d.sum() {
		s.r.op("adapter digest", fmt.Errorf("public %s, internal %s", pub.d.sum(), in.stream.d.sum()))
	}
	s.r.set("shortcuts.adapter_ms", shares["shortcuts"]*ms(u1.cpu-u0.cpu))
	s.r.set("sink.emit_ns", perCallNs(pub.emitTime, int(pub.d.obs), clock/2))
}
