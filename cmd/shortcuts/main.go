// Command shortcuts runs the full measurement campaign and regenerates
// every table and figure of the paper's evaluation: the Figure-1 eyeball
// cutoff curve, the Figure-2 improvement CDFs, the Figure-3 top-relay
// coverage curves, the Figure-4 threshold curves, the Table-1 facility
// ranking, the COR pipeline funnel, and the in-text statistics. Figures
// are written as CSV files when -out is given; tables and the summary go
// to stdout.
//
// The world is built once — staged, in parallel, BGP routes pre-warmed —
// and campaigns attach to it. With -seeds the command becomes a sweep:
// one campaign per seed over the single shared world, reporting each
// seed's headline numbers side by side.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"shortcuts"
)

func main() {
	var (
		seed    = flag.Int64("seed", 1, "world seed (campaigns are deterministic per seed)")
		rounds  = flag.Int("rounds", 45, "measurement rounds (paper: 45 over one month)")
		small   = flag.Bool("small", false, "use the reduced world for a fast run")
		out     = flag.String("out", "", "directory for figure CSVs (omit to skip)")
		stream  = flag.Bool("stream", false, "streaming mode: the headline table and in-text lines without retaining observations (no stability, coverage, Table 1, future-work lines or figure CSVs)")
		seeds   = flag.String("seeds", "", "comma-separated campaign seeds: sweep them all over ONE shared world (sweeps always run in streaming mode, so -stream is implied)")
		par     = flag.Int("parallel", 1, "campaigns running concurrently in a -seeds sweep")
		budget  = flag.Int("pairbudget", 0, "endpoint pairs measured per round: 0 = exhaustive n*(n-1)/2, a positive budget switches to deterministic stratified sampling")
		scale   = flag.Int("scale", 0, "grow the world to roughly this many responsive endpoints and run the scale-tier campaign path (requires -pairbudget; incompatible with -small)")
		scen    = flag.String("scenario", "", "dynamic-world scenario the campaign runs under: "+strings.Join(shortcuts.ScenarioNames(), "|")+" (empty = static world)")
		heal    = flag.Bool("selfheal", false, "attach the online disruption detector and self-heal: confirmed events exclude the suspect city's relays and re-plan mid-campaign (detected events print after the run)")
		cpuProf = flag.String("cpuprofile", "", "write a CPU profile of the run to this file (inspect with `go tool pprof`)")
		memProf = flag.String("memprofile", "", "write a heap profile to this file at exit")
	)
	flag.Parse()
	if *stream && *out != "" {
		fatal(fmt.Errorf("-out requires materialized observations; drop -stream to write figure CSVs"))
	}
	if *seeds != "" && *out != "" {
		fatal(fmt.Errorf("-out applies to a single campaign; drop -seeds to write figure CSVs"))
	}
	cfg := shortcuts.Config{Seed: *seed, Rounds: *rounds, SmallWorld: *small,
		PairBudget: *budget, ScaleEndpoints: *scale, SelfHeal: *heal}
	if err := validateFlags(cfg, *par); err != nil {
		fatal(err)
	}
	if err := validateSelfHeal(*heal, *seeds); err != nil {
		fatal(err)
	}
	sweepSeeds, err := parseSeeds(*seeds)
	if err != nil {
		fatal(err)
	}
	if *scen != "" {
		sc, err := shortcuts.ScenarioByName(*scen)
		if err != nil {
			fatal(err)
		}
		cfg.Scenario = sc
	}
	// Profiles start only once every flag has been accepted, so a
	// rejected run leaves no profile file behind.
	if err := startProfiles(*cpuProf, *memProf); err != nil {
		fatal(err)
	}
	defer stopProfiles()

	start := time.Now()
	world, err := shortcuts.BuildWorld(cfg)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("world built in %v (seed %d)\n\n", time.Since(start).Round(time.Millisecond), *seed)

	fmt.Println("== COR selection pipeline (Section 2.2) ==")
	f := world.Funnel()
	fmt.Printf("%d -> %d -> %d -> %d -> %d -> %d  (paper: 2675 -> 1008 -> 764 -> 725 -> 725 -> 356)\n",
		f.Initial, f.SingleFacilityActive, f.Pingable, f.SameOwnership,
		f.ActiveFacilityPresence, f.Geolocated)
	fmt.Printf("%d facilities in %d cities (paper: 58 in 36)\n\n", f.Facilities, f.Cities)

	if cfg.Scenario != nil {
		fmt.Printf("scenario: %s (dynamic world)\n\n", cfg.Scenario.Name())
	}

	if sweepSeeds != nil {
		runSweep(world, cfg, sweepSeeds, *par)
		return
	}

	campaign, err := shortcuts.NewCampaignWith(world, cfg)
	if err != nil {
		fatal(err)
	}

	progress := func(ri shortcuts.RoundInfo) {
		churn := ""
		if ri.RelaysChurned > 0 {
			churn = fmt.Sprintf(", %d relays churned out", ri.RelaysChurned)
		}
		if ri.RelaysHealed > 0 {
			churn += fmt.Sprintf(", %d relays healed out", ri.RelaysHealed)
		}
		fmt.Printf("round %d/%d: %d endpoints, %d/%d pairs usable, %d pings%s\n",
			ri.Round+1, *rounds, ri.Endpoints, ri.PairsUsable, ri.PairsAttempted, ri.PingsSent, churn)
	}

	if *stream {
		// Streaming mode: observations are folded into the statistics
		// on the fly and never materialized. The summary prints batch
		// mode's table and lines through direction symmetry; what ranks
		// the whole campaign needs batch mode.
		start = time.Now()
		stats, err := campaign.RunStream(shortcuts.RoundProgressSink(progress))
		if err != nil {
			fatal(err)
		}
		fmt.Printf("\ncampaign (streaming): %d rounds in %v, %d pings, %d pair observations\n\n",
			stats.Rounds(), time.Since(start).Round(time.Millisecond), stats.TotalPings(), stats.Pairs())
		fmt.Println("== Headline results (streaming aggregates) ==")
		if err := stats.WriteSummary(os.Stdout); err != nil {
			fatal(err)
		}
		printDisruptions(campaign)
		return
	}

	start = time.Now()
	res, err := campaign.RunWithProgress(progress)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("\ncampaign: %d rounds in %v, %d pings, %d pair observations\n\n",
		res.Rounds(), time.Since(start).Round(time.Millisecond), res.TotalPings(), res.Pairs())

	fmt.Println("== Headline results (Figure 2 and in-text) ==")
	if err := res.WriteSummary(os.Stdout); err != nil {
		fatal(err)
	}

	fmt.Println("\n== Table 1: facilities of the top-20 COR relays ==")
	if err := res.WriteTable1(os.Stdout, 20); err != nil {
		fatal(err)
	}

	fmt.Println("\n== Future-work analyses (Section 5) ==")
	for _, feat := range res.FacilityFeatureAttribution() {
		fmt.Printf("facility feature %-20s rank correlation %+.2f\n", feat.Name, feat.Correlation)
	}
	fmt.Printf("RAR_other improving relays by host type: %v\n", res.RAROtherBreakdown())
	for _, b := range res.LandingPointProximity([]float64{100, 500, 2000}) {
		label := fmt.Sprintf("<= %.0f km", b.MaxDistanceKm)
		if b.MaxDistanceKm < 0 {
			label = "farther"
		}
		fmt.Printf("landing-point distance %-10s: %3d relays, %d improvement events\n",
			label, b.Relays, b.Improvements)
	}

	if *out != "" {
		if err := writeFigures(world, res, *out); err != nil {
			fatal(err)
		}
		fmt.Printf("\nfigure CSVs written to %s\n", *out)
	}
	printDisruptions(campaign)
}

// printDisruptions reports the self-heal detector's findings after a
// campaign; silent when SelfHeal was off or nothing was detected.
func printDisruptions(c *shortcuts.Campaign) {
	evs := c.Disruptions()
	if len(evs) == 0 {
		return
	}
	fmt.Printf("\n== Disruptions detected (%d) ==\n", len(evs))
	for _, ev := range evs {
		state := fmt.Sprintf("closed round %d", ev.EndRound)
		if ev.Active() {
			state = "still active at campaign end"
		}
		where := ev.City
		if where == "" {
			where = ev.Continent
		}
		fmt.Printf("#%d %-10s %s (%s): onset round %d, confirmed %d, %s; %d corridors",
			ev.ID, ev.Kind, where, ev.Facility, ev.OnsetRound, ev.ConfirmedRound, state, len(ev.Corridors))
		if ev.Severity > 0 {
			fmt.Printf(", severity %.2fx", ev.Severity)
		}
		if ev.DarkCorridors > 0 {
			fmt.Printf(", %d dark", ev.DarkCorridors)
		}
		fmt.Println()
	}
}

// validateSelfHeal rejects -selfheal in a -seeds sweep: the loop heals
// one campaign's relay plan.
func validateSelfHeal(heal bool, seeds string) error {
	if heal && seeds != "" {
		return fmt.Errorf("-selfheal applies to a single campaign; drop -seeds (sweep campaigns share nothing, so each would heal alone anyway)")
	}
	return nil
}

// validateFlags rejects nonsensical flag combinations up front, before
// minutes of world building: -parallel here, and every campaign and
// world-tier flag through Config.Validate, whose errors name the Config
// field a flag sets (-rounds Rounds, -pairbudget PairBudget, -scale
// ScaleEndpoints, -small SmallWorld).
func validateFlags(cfg shortcuts.Config, parallel int) error {
	if parallel < 1 {
		return fmt.Errorf("-parallel must be >= 1, got %d", parallel)
	}
	return cfg.Validate()
}

// parseSeeds reads the -seeds list, checked with the other flags before
// the world is built. An empty list means no sweep (nil seeds); any
// entry that is not an integer rejects the whole list, naming the entry.
func parseSeeds(list string) ([]int64, error) {
	if list == "" {
		return nil, nil
	}
	var seeds []int64
	for _, s := range strings.Split(list, ",") {
		v, err := strconv.ParseInt(strings.TrimSpace(s), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad -seeds entry %q: %w", s, err)
		}
		seeds = append(seeds, v)
	}
	return seeds, nil
}

// runSweep fans one campaign per seed over the shared world and prints
// each seed's headline numbers side by side — the multi-experiment
// workload the shared-world architecture exists for.
func runSweep(world *shortcuts.World, cfg shortcuts.Config, seeds []int64, parallel int) {
	start := time.Now()
	results, err := shortcuts.Sweep{
		Config:      cfg,
		Seeds:       seeds,
		World:       world,
		Parallelism: parallel,
	}.Run()
	if err != nil {
		fatal(err)
	}
	fmt.Printf("sweep: %d campaigns x %d rounds over one shared world in %v\n\n",
		len(seeds), cfg.Rounds, time.Since(start).Round(time.Millisecond))

	fmt.Printf("%8s %10s %12s", "seed", "pairs", "pings")
	for _, ty := range shortcuts.RelayTypes() {
		fmt.Printf(" %10s", ty)
	}
	fmt.Println()
	for _, r := range results {
		fmt.Printf("%8d %10d %12d", r.Seed, r.Stats.Pairs(), r.Stats.TotalPings())
		for _, ty := range shortcuts.RelayTypes() {
			fmt.Printf(" %9.1f%%", 100*r.Stats.ImprovedFraction(ty))
		}
		fmt.Println()
	}
}

func writeFigures(w *shortcuts.World, r *shortcuts.Results, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	write := func(name string, fn func(f *os.File) error) error {
		f, err := os.Create(filepath.Join(dir, name))
		if err != nil {
			return err
		}
		if err := fn(f); err != nil {
			_ = f.Close() // the write already failed; report that error
			return err
		}
		return f.Close() // surfaces buffered-write failures
	}
	if err := write("fig1_eyeball_cutoff.csv", func(f *os.File) error {
		return w.WriteFig1CSV(f)
	}); err != nil {
		return err
	}
	if err := write("fig2_improvement_cdf.csv", func(f *os.File) error {
		return r.WriteFig2CSV(f)
	}); err != nil {
		return err
	}
	if err := write("fig3_top_relays.csv", func(f *os.File) error {
		return r.WriteFig3CSV(f, 100)
	}); err != nil {
		return err
	}
	return write("fig4_thresholds.csv", func(f *os.File) error {
		return r.WriteFig4CSV(f, 10)
	})
}

// profState carries the -cpuprofile/-memprofile bookkeeping. stopProfiles
// is idempotent so both the normal defer and fatal() can flush it.
var profState struct {
	cpu     *os.File
	memPath string
	done    bool
}

func startProfiles(cpuPath, memPath string) error {
	profState.memPath = memPath
	if cpuPath == "" {
		return nil
	}
	f, err := os.Create(cpuPath)
	if err != nil {
		return err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		_ = f.Close() // the profile failed to start; the close error adds nothing
		return err
	}
	profState.cpu = f
	return nil
}

func stopProfiles() {
	if profState.done {
		return
	}
	profState.done = true
	if profState.cpu != nil {
		pprof.StopCPUProfile()
		if err := profState.cpu.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "shortcuts: cpuprofile:", err)
		}
	}
	if profState.memPath != "" {
		f, err := os.Create(profState.memPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "shortcuts: memprofile:", err)
			return
		}
		runtime.GC() // materialize up-to-date heap statistics
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "shortcuts: memprofile:", err)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "shortcuts: memprofile:", err)
		}
	}
}

func fatal(err error) {
	stopProfiles()
	fmt.Fprintln(os.Stderr, "shortcuts:", err)
	os.Exit(1)
}
