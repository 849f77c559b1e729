package main

import (
	"testing"
	"time"
)

// simulate runs one connection's share of an open loop on paper: read i
// is due at i*interval and takes service[i]; the connection sends a read
// when it is due or, if busy, as soon as it is free.
func simulate(interval time.Duration, service []time.Duration) (lat, late []time.Duration) {
	t0 := time.Unix(0, 0)
	free := t0
	for i, svc := range service {
		due := t0.Add(time.Duration(i) * interval)
		sent := due
		if free.After(sent) {
			sent = free
		}
		done := sent.Add(svc)
		l, g := account(due, free, sent, done)
		lat, late = append(lat, l), append(late, g)
		free = done
	}
	return lat, late
}

func TestOpenLoopTimesFromDue(t *testing.T) {
	ms := time.Millisecond
	// The first read stalls for 3.5 ms; the three due behind it queue.
	lat, late := simulate(ms, []time.Duration{3500 * time.Microsecond, 100 * time.Microsecond, 100 * time.Microsecond, 100 * time.Microsecond, 100 * time.Microsecond})
	want := []time.Duration{3500 * time.Microsecond, 2600 * time.Microsecond, 1700 * time.Microsecond, 800 * time.Microsecond, 100 * time.Microsecond}
	for i := range want {
		if lat[i] != want[i] {
			t.Errorf("read %d latency %v, want %v (timed from its due time)", i, lat[i], want[i])
		}
		if late[i] != 0 {
			t.Errorf("read %d lateness %v, want 0: queueing behind a stall is not the generator's lateness", i, late[i])
		}
	}
}

func TestOpenLoopLateness(t *testing.T) {
	t0 := time.Unix(0, 0)
	due := t0.Add(time.Millisecond)
	// Free before the due time, sent 70µs after it: the generator was late.
	if lat, late := account(due, t0, due.Add(70*time.Microsecond), due.Add(170*time.Microsecond)); late != 70*time.Microsecond || lat != 170*time.Microsecond {
		t.Errorf("lat %v late %v, want 170µs and 70µs", lat, late)
	}
	// Busy until 0.5 ms after the due time, sent 20µs after that.
	free := due.Add(500 * time.Microsecond)
	if lat, late := account(due, free, free.Add(20*time.Microsecond), free.Add(120*time.Microsecond)); late != 20*time.Microsecond || lat != 620*time.Microsecond {
		t.Errorf("lat %v late %v, want 620µs and 20µs", lat, late)
	}
}

func TestMeasureStepBacklog(t *testing.T) {
	start := time.Unix(0, 0)
	steady := make([]readSample, 100)
	growing := make([]readSample, 100)
	for i := range steady {
		due := start.Add(time.Duration(i) * time.Millisecond)
		steady[i] = readSample{due: due, lat: 200 * time.Microsecond, wait: 10 * time.Microsecond, ok: true}
		// Each read waits 0.1 ms longer than the one before: the queue grows.
		w := time.Duration(i) * 100 * time.Microsecond
		growing[i] = readSample{due: due, lat: w + 200*time.Microsecond, wait: w, ok: true}
	}
	s := measureStep(1000, start, steady)
	if !s.passes(readLimit) || s.achieved < 990 {
		t.Errorf("steady step %+v should pass at ~1000/s", s)
	}
	g := measureStep(1000, start, growing)
	if g.passes(readLimit) || g.backlog < 9*time.Millisecond {
		t.Errorf("growing step %+v should fail on its backlog", g)
	}
}

func TestLadderSelection(t *testing.T) {
	pass := func(rate float64) ladderStep {
		return ladderStep{rate: rate, achieved: rate, p99: time.Millisecond}
	}
	slow := func(rate float64) ladderStep {
		return ladderStep{rate: rate, achieved: rate, p99: 3 * time.Millisecond}
	}
	steps := []ladderStep{pass(5000), pass(5400), slow(5832), pass(6299)}
	if climbDone(steps, readLimit) {
		t.Error("one failing step must not end the climb")
	}
	steps = append(steps, slow(6802), slow(7346))
	if !climbDone(steps, readLimit) {
		t.Error("two failing steps in a row end the climb")
	}
	best, ok := maxRate(steps, readLimit)
	if !ok || best.rate != 6299 {
		t.Errorf("maxRate = %v %v, want the 6299/s step", best.rate, ok)
	}

	short := pass(8000)
	short.achieved = 7000 // the generator fell behind the schedule
	failed := pass(9000)
	failed.failed = 1
	if short.passes(readLimit) || failed.passes(readLimit) {
		t.Error("a step below 95% of its rate or with a failed read must not pass")
	}
	if _, ok := maxRate([]ladderStep{slow(5000), slow(5400)}, readLimit); ok {
		t.Error("maxRate with no passing step must report !ok")
	}
}

func TestLadderRatesStepAtMostTenPercent(t *testing.T) {
	rates := ladderRates(5000, 40000, 1.25)
	if len(rates) < 2 || rates[0] != 5000 {
		t.Fatalf("ladderRates = %v", rates)
	}
	for i := 1; i < len(rates); i++ {
		if r := rates[i] / rates[i-1]; r > 1.1+1e-9 {
			t.Errorf("step %d grows by %.3f, more than 10%%", i, r)
		}
	}
}

func TestBuildMixIsSeeded(t *testing.T) {
	pool := []corridor{{"DE", "JP"}, {"BR", "US"}, {"FR", "ZA"}}
	a, b, c := buildMix(3, pool, 500), buildMix(3, pool, 500), buildMix(4, pool, 500)
	differs := false
	counts := [numKinds]int{}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("read %d differs for one seed: %+v vs %+v", i, a[i], b[i])
		}
		differs = differs || a[i] != c[i]
		counts[a[i].kind]++
		if (a[i].kind == kindBest) != (a[i].corridor >= 0) {
			t.Errorf("read %+v: only best reads carry a corridor", a[i])
		}
	}
	if !differs {
		t.Error("seeds 3 and 4 drew the same mix")
	}
	for k, n := range counts {
		if n == 0 {
			t.Errorf("no %s reads in 500", kindNames[k])
		}
	}
}

func TestWindowedMedianIgnoresABurst(t *testing.T) {
	start := time.Unix(0, 0)
	var xs []readSample
	for i := 0; i < 500; i++ {
		lat := 100 * time.Microsecond
		if i >= 400 { // the last of five windows is three times slower
			lat = 300 * time.Microsecond
		}
		xs = append(xs, readSample{due: start.Add(time.Duration(i) * 10 * time.Millisecond), lat: lat})
	}
	if got := windowedMedian(xs, time.Second); got != 0.1 {
		t.Errorf("windowedMedian = %g ms, want 0.1: one slow window of five must not move it", got)
	}
	if got := windowedMedian(xs[:450], time.Second); got != 0.1 {
		t.Errorf("windowedMedian over a partial last window = %g ms, want 0.1", got)
	}
}
