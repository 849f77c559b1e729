// Command relayplan answers the operator question the paper closes with:
// given a corridor (two countries), which relays actually help, and which
// facilities should host them? It builds the shared world once, runs a
// short campaign over it (several, with -confirm, to check the shortlist
// is not an artifact of one measurement schedule), and prints the
// corridor's direct vs best-relayed RTTs plus a facility shortlist.
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"

	"shortcuts"
)

func main() {
	var (
		seed    = flag.Int64("seed", 1, "world seed")
		rounds  = flag.Int("rounds", 6, "measurement rounds")
		ccA     = flag.String("a", "", "first country (ISO code); empty = global plan")
		ccB     = flag.String("b", "", "second country (ISO code)")
		topK    = flag.Int("k", 10, "facility shortlist size")
		confirm = flag.Int("confirm", 0, "extra campaign seeds to re-measure the plan over the same world")
	)
	flag.Parse()
	if *topK < 1 {
		fatal(fmt.Errorf("-k must be >= 1, got %d", *topK))
	}
	if *confirm < 0 {
		fatal(fmt.Errorf("-confirm must be >= 0, got %d", *confirm))
	}
	if *ccA == "" && *ccB != "" {
		fatal(fmt.Errorf("-b %s names half a corridor: -a is missing", *ccB))
	}
	if *ccA != "" && *ccB == "" {
		fatal(fmt.Errorf("-a %s names half a corridor: -b is missing", *ccA))
	}
	cfg := shortcuts.Config{Seed: *seed, Rounds: *rounds}
	if err := cfg.Validate(); err != nil {
		fatal(err)
	}

	world, err := shortcuts.BuildWorld(cfg)
	if err != nil {
		fatal(err)
	}
	campaign, err := shortcuts.NewCampaignWith(world, cfg)
	if err != nil {
		fatal(err)
	}
	res, err := campaign.Run()
	if err != nil {
		fatal(err)
	}

	if *ccA != "" && *ccB != "" {
		// Codes resolve like relayserve's: trimmed and case-insensitive.
		a, b := strings.ToUpper(strings.TrimSpace(*ccA)), strings.ToUpper(strings.TrimSpace(*ccB))
		available := res.Countries()
		for _, cc := range []string{a, b} {
			if !slices.Contains(available, cc) {
				fatal(fmt.Errorf("unknown country %q; available: %v", cc, available))
			}
		}
		obs := res.ObservationsBetween(a, b)
		if len(obs) == 0 {
			fmt.Printf("no observations between %s and %s\navailable: %v\n", a, b, available)
			return
		}
		fmt.Printf("corridor %s <-> %s (%d observations):\n", a, b, len(obs))
		for _, o := range obs {
			fmt.Printf("  round %2d: direct %7.1f ms -> relayed %7.1f ms (%s)\n",
				o.Round, o.DirectMs, o.BestRelayedMs, o.RelayID)
		}
		fmt.Println()
	}

	fmt.Printf("global facility shortlist (top %d by improvement frequency):\n", *topK)
	for _, row := range res.TopFacilities(*topK * 2) {
		if row.Rank > *topK {
			break
		}
		fmt.Printf("  %2d. %-30s %-14s %3.0f%% of improved cases, %d nets, %d IXPs\n",
			row.Rank, row.Name, row.City+" ("+row.CC+")", 100*row.PctImproved,
			row.ListedNets, row.IXPs)
	}
	n, facs := res.RelaysForCoverage(shortcuts.COR, 0.75)
	fmt.Printf("\n75%% of achievable coverage: %d relays across %d facilities\n", n, len(facs))

	if *confirm > 0 {
		// Re-measure over the same world with different campaign seeds:
		// the world (and so the facility geography) is fixed; only the
		// measurement schedule varies. A robust plan keeps improving.
		var seeds []int64
		for i := 0; i < *confirm; i++ {
			seeds = append(seeds, *seed+int64(i)+1)
		}
		results, err := shortcuts.Sweep{
			Config: shortcuts.Config{Rounds: *rounds},
			Seeds:  seeds,
			World:  world,
		}.Run()
		if err != nil {
			fatal(err)
		}
		fmt.Printf("\nconfirmation sweep (%d campaigns over the same world):\n", len(results))
		for _, r := range results {
			fmt.Printf("  campaign seed %2d: COR improves %5.1f%% of pairs (median gain %.1f ms)\n",
				r.Seed, 100*r.Stats.ImprovedFraction(shortcuts.COR),
				r.Stats.MedianImprovementMs(shortcuts.COR))
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "relayplan:", err)
	os.Exit(1)
}
