// Trading scenario: the paper opens with a broker losing $4M per
// millisecond of lag. This example inspects a single latency-critical
// corridor (two countries passed on the command line, default GB-JP):
// the direct RTT, the best overlay relay per round, and how consistent
// the winning facility is across rounds.
package main

import (
	"flag"
	"fmt"
	"log"
	"sort"

	"shortcuts"
)

func main() {
	ccA := flag.String("a", "GB", "first endpoint country (ISO code)")
	ccB := flag.String("b", "JP", "second endpoint country (ISO code)")
	flag.Parse()

	// Build the world once; the corridor inspection below and any
	// follow-up campaigns (other seeds, other corridors) share it.
	world, err := shortcuts.BuildWorld(shortcuts.Config{Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	campaign, err := shortcuts.NewCampaignWith(world, shortcuts.Config{Seed: 1, Rounds: 6})
	if err != nil {
		log.Fatal(err)
	}
	res, err := campaign.Run()
	if err != nil {
		log.Fatal(err)
	}

	obs := res.ObservationsBetween(*ccA, *ccB)
	if len(obs) == 0 {
		fmt.Printf("no observations between %s and %s; available countries: %v\n",
			*ccA, *ccB, res.Countries())
		return
	}

	fmt.Printf("corridor %s <-> %s: %d observations\n\n", *ccA, *ccB, len(obs))
	wins := make(map[string]int)
	for _, o := range obs {
		marker := " "
		if o.ImprovementMs > 0 {
			marker = "*"
			key := o.RelayID
			if o.FacilityName != "" {
				key = o.FacilityName
			}
			wins[key]++
		}
		fmt.Printf("%s round %2d: direct %7.1f ms, best relayed %7.1f ms via %s (%s, %s)\n",
			marker, o.Round, o.DirectMs, o.BestRelayedMs, o.RelayID, o.RelayType, o.RelayCC)
	}

	// Most wins first, ties by name: map order would reshuffle the rows
	// from run to run.
	sites := make([]string, 0, len(wins))
	for site := range wins {
		sites = append(sites, site)
	}
	sort.Slice(sites, func(i, j int) bool {
		if wins[sites[i]] != wins[sites[j]] {
			return wins[sites[i]] > wins[sites[j]]
		}
		return sites[i] < sites[j]
	})
	fmt.Println("\nwinning relay sites (rounds improved):")
	for _, site := range sites {
		fmt.Printf("  %-40s %d\n", site, wins[site])
	}
	if len(obs) > 0 && obs[0].ImprovementMs > 0 {
		fmt.Printf("\nbest seen shortcut saves %.1f ms — at $4M/ms of competitive edge,\n", obs[0].ImprovementMs)
		fmt.Println("that is the paper's opening argument in one corridor.")
	}
}
