package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sync"
	"syscall"
	"time"
)

// span is one call into a layer, timed from the benchmark's side of the
// call. Spans of one operation (a campaign, a boot, a swap, a load
// phase) share Run; Parent is the ID of the span that made the call, or
// -1 at the root.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Run    int    `json:"run"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced run: every method is a no-op.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
	runs  int
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// newRun returns a fresh operation ID.
func (t *tracer) newRun() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.runs++
	return t.runs
}

// add records a finished span and returns its ID.
func (t *tracer) add(run, parent int, name string, start, end time.Time) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Run: run, Name: name,
		Start: start.Sub(t.epoch).Nanoseconds(), End: end.Sub(t.epoch).Nanoseconds(),
	})
	return id
}

// open records a span whose end is not known yet; close sets it. Use it
// for a parent whose children are recorded while it runs.
func (t *tracer) open(run, parent int, name string) int {
	now := time.Now()
	return t.add(run, parent, name, now, now)
}

func (t *tracer) close(id int) {
	if t == nil || id < 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].End = time.Since(t.epoch).Nanoseconds()
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	if t == nil {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// cpuTime returns the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB returns the process's maximum resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// gcCPUSeconds returns the runtime's estimate of CPU time spent in GC.
func gcCPUSeconds() float64 {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 {
		return 0
	}
	return s[0].Value.Float64()
}

// usage brackets a measured section with the process counters the
// per-layer metrics need.
type usage struct {
	wall  time.Time
	cpu   time.Duration
	gc    float64
	alloc uint64
}

func readUsage() usage {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return usage{wall: time.Now(), cpu: cpuTime(), gc: gcCPUSeconds(), alloc: m.TotalAlloc}
}

// busyFrac is the share of the machine's cores the process kept busy
// between a and b.
func busyFrac(a, b usage) float64 {
	wall := b.wall.Sub(a.wall)
	if wall <= 0 {
		return 0
	}
	return float64(b.cpu-a.cpu) / (float64(wall) * float64(runtime.GOMAXPROCS(0)))
}

// clockCost measures the mean cost of one timed empty section
// (time.Now then time.Since), which per-call timers subtract.
func clockCost() time.Duration {
	const n = 20000
	var total time.Duration
	for i := 0; i < n; i++ {
		t0 := time.Now()
		total += time.Since(t0)
	}
	return total / n
}

// perCallNs is the mean nanoseconds per call of a section timed with
// per-call clock reads, less the clock's own cost.
func perCallNs(total time.Duration, calls int, clock time.Duration) float64 {
	if calls == 0 {
		return 0
	}
	return max(0, float64(total-time.Duration(calls)*clock)/float64(calls))
}

// traceFiles names the spans and CPU profile of one traced run.
func traceFiles(dir, workload string, seed int64) (spans, profile string) {
	base := filepath.Join(dir, fmt.Sprintf("%s-seed%d", workload, seed))
	return base + ".spans.jsonl", base + ".cpu.pprof"
}
