package measure

import (
	"fmt"
	"testing"

	"shortcuts/internal/scenario"
	"shortcuts/internal/sim"
)

// TestSampledGoldenStreamDigests pins the PairBudget sampling mode the
// same way TestGoldenStreamDigests pins the exhaustive mode: SHA-256
// over the full emitted stream, run across the scheduling matrix
// (Concurrency 1 and 8 with latency-cache shards 1 and 8; cell names
// keep their historical -k1 suffix). The digests were recorded at
// Concurrency 1, shards 1 when sampling landed; every other cell passing
// proves the sampled plan and everything downstream of it derive from
// (seed, round, stratum) alone — never from scheduling — and any later
// engine change that perturbs a single sampled observation fails here.
func TestSampledGoldenStreamDigests(t *testing.T) {
	cases := []struct {
		name       string
		seed       int64
		rounds     int
		budget     int
		perCountry int
		preset     string
		want       string
	}{
		{"seed17-r3-b200", 17, 3, 200, 1, "",
			"88673784564d9d729abc219066cea11a897a56161d9160ca3078c323b24e7b40"},
		{"seed17-r2-b400-epc4", 17, 2, 400, 4, "",
			"df4aad0161388e2ddae5528d053565a2b64ead2de30e6fab87b21491e1277ed6"},
		{"seed23-r3-b200-churn", 23, 3, 200, 1, scenario.PresetChurn,
			"df156f9e123d01175c3388f9cb2f0ff2da9aa0e9ef1f938474f392a7429673d1"},
	}
	schedules := []struct {
		concurrency int
		shards      int
	}{
		{1, 1},
		{8, 8},
	}
	if testing.Short() {
		cases = cases[:1]
	}
	for _, tc := range cases {
		for _, sch := range schedules {
			name := fmt.Sprintf("%s/c%d-s%d-k1", tc.name, sch.concurrency, sch.shards)
			t.Run(name, func(t *testing.T) {
				wp := sim.SmallWorldParams(tc.seed)
				wp.Latency.CacheShards = sch.shards
				w, err := sim.Build(wp)
				if err != nil {
					t.Fatal(err)
				}
				cfg := QuickConfig(tc.rounds)
				cfg.Concurrency = sch.concurrency
				cfg.PairBudget = tc.budget
				cfg.EndpointsPerCountry = tc.perCountry
				// The epc4 case's enlarged endpoint population sends more
				// pings per round than the paper's daily credit budget
				// allows; the digest suite is about stream identity, not
				// budget enforcement.
				cfg.DailyCreditLimit = 0
				if tc.preset != "" {
					sc, err := scenario.ByName(tc.preset)
					if err != nil {
						t.Fatal(err)
					}
					cfg.Scenario = sc
				}
				sink := newDigestSink()
				if err := RunStream(w, cfg, sink); err != nil {
					t.Fatal(err)
				}
				if got := sink.sum(); got != tc.want {
					t.Fatalf("sampled stream digest drifted from golden:\n got %s\nwant %s", got, tc.want)
				}
			})
		}
	}
}
