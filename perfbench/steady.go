package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"strings"
	"time"
)

// steadyMain is "perfbench steady": it runs each workload -runs times
// in fresh processes, seed s, s+1, ..., and prints for every end-to-end
// metric the median, the quartiles and the spread, (Q3-Q1)/median as
// Python's statistics.quantiles computes them. A spread above the
// metric's bound is flagged, except for setup_s, which is compared by
// its median alone; one above a third of the bound is marked as short
// of the tuning target. With -sets 2 the whole set runs twice over the same seeds and
// a median that worsened by more than the bound between the sets is
// flagged too. It exits non-zero when anything is flagged.
func steadyMain(args []string, out io.Writer) int {
	fs := flag.NewFlagSet("perfbench steady", flag.ContinueOnError)
	runs := fs.Int("runs", 10, "runs per workload and set")
	seed := fs.Int64("seed", 1, "seed of the first run; run i uses seed+i")
	sets := fs.Int("sets", 1, "number of sets of runs to compare")
	only := fs.String("workloads", "", "comma-separated workloads (default: all in the spec)")
	seconds := fs.Int("seconds", 0, "run length (default: run_seconds of the spec)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	spec, err := loadSpec(specPath)
	if err != nil {
		fmt.Fprintln(out, "steady:", err)
		return 2
	}
	if *seconds == 0 {
		*seconds = spec.RunSeconds
	}
	var names []string
	if *only != "" {
		names = strings.Split(*only, ",")
	} else {
		for _, w := range spec.Workloads {
			names = append(names, w.Name)
		}
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(out, "steady:", err)
		return 2
	}

	flagged := false
	for _, name := range names {
		var medians []map[string]float64
		for set := 0; set < *sets; set++ {
			values := map[string][]float64{}
			for i := 0; i < *runs; i++ {
				s := *seed + int64(i)
				t0 := time.Now()
				m, err := runOnce(self, name, s, *seconds)
				if err != nil {
					fmt.Fprintf(out, "%s seed %d: %v\n", name, s, err)
					flagged = true
					continue
				}
				fmt.Fprintf(out, "%s set %d seed %d: ran %.1f s\n", name, set+1, s, time.Since(t0).Seconds())
				for k, v := range m {
					values[k] = append(values[k], v)
				}
			}
			fmt.Fprintf(out, "\n%s, set %d: %d runs of %d s, seeds %d..%d\n", name, set+1, *runs, *seconds, *seed, *seed+int64(*runs)-1)
			fmt.Fprintf(out, "  %-18s %-5s %12s %12s %12s %8s %6s\n", "metric", "unit", "median", "q1", "q3", "spread", "bound")
			meds := map[string]float64{}
			for _, m := range spec.EndToEnd {
				xs := values[m.Name]
				if len(xs) == 0 {
					fmt.Fprintf(out, "  %-18s no values\n", m.Name)
					flagged = true
					continue
				}
				q1, q2, q3 := quartiles(xs)
				sp := spread(xs)
				meds[m.Name] = q2
				mark := ""
				switch {
				case m.Name != "setup_s" && sp > m.Bound:
					mark, flagged = "SPREAD ABOVE BOUND", true
				case m.Name != "setup_s" && sp > m.Bound/3:
					mark = "above bound/3"
				}
				fmt.Fprintf(out, "  %-18s %-5s %12.6g %12.6g %12.6g %8.4f %6.3f %s\n", m.Name, m.Unit, q2, q1, q3, sp, m.Bound, mark)
			}
			medians = append(medians, meds)
		}
		for set := 1; set < len(medians); set++ {
			fmt.Fprintf(out, "\n%s, set %d against set 1 (change of the median, worse is positive)\n", name, set+1)
			for _, m := range spec.EndToEnd {
				a, b := medians[0][m.Name], medians[set][m.Name]
				worse := (b - a) / math.Abs(a)
				if m.Better == "higher" {
					worse = -worse
				}
				mark := ""
				if worse > m.Bound {
					mark, flagged = "WORSE BY MORE THAN BOUND", true
				}
				fmt.Fprintf(out, "  %-18s %+8.4f %6.3f %s\n", m.Name, worse, m.Bound, mark)
			}
		}
		fmt.Fprintln(out)
	}
	if flagged {
		return 1
	}
	return 0
}

// runOnce runs one untraced workload in a fresh process and returns its
// metrics.
func runOnce(self, workload string, seed int64, seconds int) (map[string]float64, error) {
	cmd := exec.Command(self, "--workload", workload, "--seed", fmt.Sprint(seed),
		"--seconds", fmt.Sprint(seconds), "--trace", "0")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%v: %s", err, failures(stderr.String()))
	}
	var last string
	sc := bufio.NewScanner(&stdout)
	for sc.Scan() {
		if t := strings.TrimSpace(sc.Text()); t != "" {
			last = t
		}
	}
	var res struct {
		Correct bool `json:"correct"`
		Metrics map[string]struct {
			Value float64 `json:"value"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return nil, fmt.Errorf("last line is not a result: %v", err)
	}
	if !res.Correct {
		return nil, fmt.Errorf("run reported incorrect output: %s", failures(stderr.String()))
	}
	m := make(map[string]float64, len(res.Metrics))
	for k, v := range res.Metrics {
		m[k] = v.Value
	}
	return m, nil
}

// failures picks a run's FAILED lines out of its standard error, or its
// last lines when it printed none.
func failures(stderr string) string {
	lines := strings.Split(strings.TrimSpace(stderr), "\n")
	var out []string
	for _, l := range lines {
		if strings.HasPrefix(l, "FAILED") || strings.HasPrefix(l, "perfbench:") {
			out = append(out, l)
		}
	}
	if len(out) == 0 {
		out = lines[max(0, len(lines)-5):]
	}
	return strings.Join(out, "\n")
}
