package shortcuts

import (
	"testing"
)

// benchSweepSeeds is the ISSUE's reference sweep workload: 8 campaign
// seeds over the small world.
var benchSweepSeeds = []int64{1, 2, 3, 4, 5, 6, 7, 8}

// BenchmarkSweep compares the ways to run a multi-seed campaign
// workload. shared-world builds the world once and attaches all eight
// campaigns to it (they also share warmed BGP trees and the latency
// path-state cache, so later campaigns run against hot caches);
// rebuild-per-campaign is the pre-World pattern — every campaign pays a
// full world build and cold caches. Measurement work is identical, so
// the gap is pure construction and cache waste.
//
// Both the world size (the small world, pinned by config) and the
// iteration count (pinned by scripts/bench.sh, which runs sweep
// benchmarks at a fixed multi-iteration benchtime) are held constant
// across trajectory runs: a single ~1s iteration of this benchmark
// showed ±7% run-to-run noise on shared runners (BENCH_PR5's own
// rebuild-per-campaign numbers moved 995→1064ms with no code change on
// that path), so per-PR comparisons must average several iterations of
// an identical workload.
func BenchmarkSweep(b *testing.B) {
	cfg := Config{Seed: 1, Rounds: 1, SmallWorld: true}

	b.Run("shared-world", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			world, err := BuildWorld(cfg)
			if err != nil {
				b.Fatal(err)
			}
			results, err := Sweep{Config: cfg, Seeds: benchSweepSeeds, World: world}.Run()
			if err != nil {
				b.Fatal(err)
			}
			if results[len(results)-1].Stats.Pairs() == 0 {
				b.Fatal("sweep streamed nothing")
			}
		}
	})

	b.Run("rebuild-per-campaign", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, seed := range benchSweepSeeds {
				world, err := BuildWorld(cfg)
				if err != nil {
					b.Fatal(err)
				}
				c, err := NewCampaignWith(world, Config{Seed: seed, Rounds: cfg.Rounds})
				if err != nil {
					b.Fatal(err)
				}
				stats, err := c.RunStream(nil)
				if err != nil {
					b.Fatal(err)
				}
				if stats.Pairs() == 0 {
					b.Fatal("campaign streamed nothing")
				}
			}
		}
	})
}
