package shortcuts

import (
	"strings"
	"sync"
	"testing"
)

// TestSweepSharedWorld runs a multi-seed sweep over one shared world and
// checks ordering, per-seed determinism, and equivalence with a direct
// NewCampaignWith campaign.
func TestSweepSharedWorld(t *testing.T) {
	camp, _ := apiResults(t)
	world := camp.World()
	seeds := []int64{3, 4, 5}

	sweep := Sweep{
		Config: Config{Rounds: 1},
		Seeds:  seeds,
		World:  world,
	}
	results, err := sweep.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(seeds) {
		t.Fatalf("%d results for %d seeds", len(results), len(seeds))
	}
	for i, r := range results {
		if r.Seed != seeds[i] {
			t.Fatalf("result %d has seed %d, want %d", i, r.Seed, seeds[i])
		}
		if r.Err != nil || r.Stats == nil {
			t.Fatalf("result %d: err=%v stats=%v", i, r.Err, r.Stats)
		}
		if r.Stats.Pairs() == 0 || r.Stats.TotalPings() == 0 {
			t.Fatalf("result %d streamed nothing", i)
		}
	}

	// A sweep entry must equal the same campaign run directly.
	direct, err := NewCampaignWith(world, Config{Seed: 3, Rounds: 1})
	if err != nil {
		t.Fatal(err)
	}
	stats, err := direct.RunStream(nil)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Pairs() != results[0].Stats.Pairs() ||
		stats.TotalPings() != results[0].Stats.TotalPings() {
		t.Fatal("sweep entry differs from direct campaign over the same world")
	}
	for _, ty := range RelayTypes() {
		if stats.ImprovedFraction(ty) != results[0].Stats.ImprovedFraction(ty) {
			t.Fatalf("%v improved fraction differs between sweep and direct run", ty)
		}
	}
}

// TestSweepParallelMatchesSequential proves campaign-level parallelism
// over one shared world is schedule-free: same per-seed aggregates.
func TestSweepParallelMatchesSequential(t *testing.T) {
	camp, _ := apiResults(t)
	world := camp.World()
	seeds := []int64{7, 8, 9, 10}

	seq, err := Sweep{Config: Config{Rounds: 1}, Seeds: seeds, World: world}.Run()
	if err != nil {
		t.Fatal(err)
	}
	par, err := Sweep{Config: Config{Rounds: 1}, Seeds: seeds, World: world, Parallelism: 4}.Run()
	if err != nil {
		t.Fatal(err)
	}
	for i := range seeds {
		if seq[i].Stats.Pairs() != par[i].Stats.Pairs() ||
			seq[i].Stats.TotalPings() != par[i].Stats.TotalPings() {
			t.Fatalf("seed %d differs across sweep parallelism", seeds[i])
		}
		for _, ty := range RelayTypes() {
			if seq[i].Stats.ImprovedFraction(ty) != par[i].Stats.ImprovedFraction(ty) {
				t.Fatalf("seed %d %v fraction differs across sweep parallelism", seeds[i], ty)
			}
		}
	}
}

// TestSweepRebuildPoolMatchesSequential proves the rebuild-mode
// prebuild pool is schedule-free: per-seed worlds built concurrently
// through the shared pool (with divided build budgets) and campaigns
// run two at a time must reproduce the classic sequential rebuild
// sweep aggregate-for-aggregate.
func TestSweepRebuildPoolMatchesSequential(t *testing.T) {
	cfg := Config{Rounds: 2, SmallWorld: true}
	seeds := []int64{2, 3}

	seq, err := Sweep{Config: cfg, Seeds: seeds}.Run()
	if err != nil {
		t.Fatal(err)
	}
	par, err := Sweep{Config: cfg, Seeds: seeds, Parallelism: 2}.Run()
	if err != nil {
		t.Fatal(err)
	}
	for i := range seeds {
		if seq[i].Stats.Pairs() != par[i].Stats.Pairs() ||
			seq[i].Stats.TotalPings() != par[i].Stats.TotalPings() {
			t.Fatalf("seed %d differs between sequential rebuild and pooled rebuild", seeds[i])
		}
		for _, ty := range RelayTypes() {
			if seq[i].Stats.ImprovedFraction(ty) != par[i].Stats.ImprovedFraction(ty) {
				t.Fatalf("seed %d %v fraction differs across rebuild scheduling", seeds[i], ty)
			}
		}
	}
}

// TestSweepPerSeedWorlds checks the rebuild-per-seed mode: each entry
// must match the classic NewCampaign over that seed.
func TestSweepPerSeedWorlds(t *testing.T) {
	cfg := Config{Rounds: 1, SmallWorld: true}
	results, err := Sweep{Config: cfg, Seeds: []int64{2}}.Run()
	if err != nil {
		t.Fatal(err)
	}
	classic, err := NewCampaign(Config{Seed: 2, Rounds: 1, SmallWorld: true})
	if err != nil {
		t.Fatal(err)
	}
	stats, err := classic.RunStream(nil)
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Stats.Pairs() != stats.Pairs() ||
		results[0].Stats.TotalPings() != stats.TotalPings() {
		t.Fatal("per-seed sweep differs from classic NewCampaign")
	}
}

// TestSweepSinkFor verifies per-seed sinks receive each campaign's
// stream, including under parallel execution.
func TestSweepSinkFor(t *testing.T) {
	camp, _ := apiResults(t)
	world := camp.World()
	seeds := []int64{11, 12}

	var mu sync.Mutex
	emits := make(map[int64]int)
	results, err := Sweep{
		Config:      Config{Rounds: 1},
		Seeds:       seeds,
		World:       world,
		Parallelism: 2,
		SinkFor: func(seed int64) Sink {
			return RoundProgressSink(func(ri RoundInfo) {
				mu.Lock()
				emits[seed] += ri.PairsUsable
				mu.Unlock()
			})
		},
	}.Run()
	if err != nil {
		t.Fatal(err)
	}
	for i, seed := range seeds {
		if emits[seed] != results[i].Stats.Pairs() {
			t.Fatalf("seed %d sink saw %d usable pairs, stats have %d",
				seed, emits[seed], results[i].Stats.Pairs())
		}
	}
}

// TestSweepDefaultsToConfigSeed covers the empty-seed-list default.
func TestSweepDefaultsToConfigSeed(t *testing.T) {
	camp, _ := apiResults(t)
	results, err := Sweep{Config: Config{Seed: 1, Rounds: 1}, World: camp.World()}.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 || results[0].Seed != 1 {
		t.Fatalf("default sweep = %+v", results)
	}
}

// TestSweepRoundsValidation ensures an invalid template fails up front,
// before any world is built or campaign run, in both sweep modes.
func TestSweepRoundsValidation(t *testing.T) {
	camp, _ := apiResults(t)
	for _, sw := range []Sweep{
		{Config: Config{Rounds: 0}, Seeds: []int64{1}, World: camp.World()},
		{Config: Config{Rounds: 0, SmallWorld: true}, Seeds: []int64{1, 2}},
	} {
		results, err := sw.Run()
		if err == nil || !strings.Contains(err.Error(), "Rounds") {
			t.Fatalf("zero-round sweep: err = %v, want one naming Rounds", err)
		}
		if results != nil {
			t.Fatalf("zero-round sweep returned results %+v, want nil", results)
		}
	}
}
