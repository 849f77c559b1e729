// Command perfbench is the repository's end-to-end benchmark. It runs
// one seeded workload against the public surfaces — campaigns through
// the shortcuts package, the relay service through internal/serve on
// loopback — checks every output, and prints the metrics listed in
// BENCHMARK.json as the last line of standard output:
//
//	perfbench --workload paper-campaign --seed 1 --seconds 20 --trace 0
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs the workload
// again with spans, a CPU profile and per-layer replicas, and prints
// the per-layer metrics. "perfbench steady" repeats runs and reports
// their spread (see steady.go). Run it through run.sh from the
// repository root; README.md describes every metric.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
	"time"
)

// benchSpec is the part of BENCHMARK.json the program reads: the
// metric names, units and bounds it must print.
type benchSpec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// specPath is the benchmark definition, read from the repository root.
const specPath = "BENCHMARK.json"

func loadSpec(path string) (*benchSpec, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// options are one run's inputs.
type options struct {
	workload string
	seed     int64
	seconds  time.Duration
	traced   bool
	outDir   string // spans and CPU profile of traced runs
}

// report collects one run's outcome: operations attempted and failed,
// and the metrics measured.
type report struct {
	attempted int64
	failed    int64
	errs      []string
	metrics   map[string]float64
	notes     []string // human-readable lines for standard error
}

func newReport() *report { return &report{metrics: map[string]float64{}} }

// op counts one operation and, when err is non-nil, its failure.
func (r *report) op(what string, err error) {
	r.attempted++
	if err != nil {
		r.failed++
		if len(r.errs) < 20 {
			r.errs = append(r.errs, fmt.Sprintf("%s: %v", what, err))
		}
	}
}

// ops counts n operations of which failed failed.
func (r *report) ops(what string, n, failed int64) {
	r.attempted += n
	r.failed += failed
	if failed > 0 && len(r.errs) < 20 {
		r.errs = append(r.errs, fmt.Sprintf("%s: %d of %d failed", what, failed, n))
	}
}

func (r *report) set(name string, v float64) { r.metrics[name] = v }

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(options, *report) error{
	"paper-campaign": func(o options, r *report) error { return runCampaign(paperCampaign, o, r) },
	"scale-campaign": func(o options, r *report) error { return runCampaign(scaleCampaign, o, r) },
	"serve-swap":     runServe,
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "steady" {
		os.Exit(steadyMain(os.Args[2:], os.Stdout))
	}
	os.Exit(runMain(os.Args[1:], os.Stdout, os.Stderr))
}

func runMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Int("seconds", 20, "measurement time")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	outDir := fs.String("out", ".bench_build/trace", "directory for the spans and CPU profile of traced runs")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	run, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (%s), --seconds >= 1 and --trace 0|1\n", strings.Join(workloadNames(), ", "))
		return 2
	}
	bs, err := loadSpec(specPath)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	o := options{workload: *workload, seed: *seed, seconds: time.Duration(*seconds) * time.Second, traced: *trace == 1, outDir: *outDir}
	want := bs.EndToEnd
	if o.traced {
		want = bs.PerLayer
		if err := os.MkdirAll(o.outDir, 0o755); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 2
		}
	}

	r := newReport()
	if err := run(o, r); err != nil {
		r.op("workload", err)
	}
	r.set("peak_rss_mb", peakRSSMB())
	for _, n := range r.notes {
		fmt.Fprintln(stderr, n)
	}
	for _, e := range r.errs {
		fmt.Fprintln(stderr, "FAILED:", e)
	}
	fmt.Fprintf(stderr, "failed_frac %.6g (%d of %d operations failed)\n",
		float64(r.failed)/float64(max(r.attempted, 1)), r.failed, r.attempted)
	metrics, err := r.pick(want)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	printMetrics(stderr, want, metrics)
	out := struct {
		Correct   bool                  `json:"correct"`
		Attempted int64                 `json:"attempted"`
		Failed    int64                 `json:"failed"`
		Metrics   map[string]metricJSON `json:"metrics"`
	}{r.failed == 0 && r.attempted > 0, max(r.attempted, 1), r.failed, metrics}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !out.Correct {
		return 1
	}
	return 0
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// pick returns exactly the metrics want names; every one must have
// been measured and be finite.
func (r *report) pick(want []metricSpec) (map[string]metricJSON, error) {
	out := make(map[string]metricJSON, len(want))
	var missing []string
	for _, m := range want {
		v, ok := r.metrics[m.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			missing = append(missing, m.Name)
			continue
		}
		out[m.Name] = metricJSON{Value: v, Unit: m.Unit}
	}
	if len(missing) > 0 {
		return nil, errors.New("metrics not measured: " + strings.Join(missing, ", "))
	}
	return out, nil
}

func printMetrics(w io.Writer, want []metricSpec, got map[string]metricJSON) {
	for _, m := range want {
		fmt.Fprintf(w, "  %-34s %14.6g %s\n", m.Name, got[m.Name].Value, m.Unit)
	}
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
