// Package report renders campaign analyses as aligned text tables and CSV
// series — one renderer per figure/table of the paper, used by the CLI
// and by the public Results API.
package report

import (
	"fmt"
	"io"
	"strings"

	"shortcuts/internal/analysis"
	"shortcuts/internal/datasets/apnic"
	"shortcuts/internal/measure"
	"shortcuts/internal/relays"
)

// Table writes an aligned text table.
func Table(w io.Writer, headers []string, rows [][]string) error {
	widths := make([]int, len(headers))
	for i, h := range headers {
		widths[i] = len(h)
	}
	for _, row := range rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) error {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = fmt.Sprintf("%-*s", widths[i], c)
		}
		_, err := fmt.Fprintln(w, strings.TrimRight(strings.Join(parts, "  "), " "))
		return err
	}
	if err := line(headers); err != nil {
		return err
	}
	seps := make([]string, len(headers))
	for i := range seps {
		seps[i] = strings.Repeat("-", widths[i])
	}
	if err := line(seps); err != nil {
		return err
	}
	for _, row := range rows {
		if err := line(row); err != nil {
			return err
		}
	}
	return nil
}

// CSV writes a comma-separated series. Cells must not contain commas;
// numeric output from this package never does.
func CSV(w io.Writer, headers []string, rows [][]string) error {
	if _, err := fmt.Fprintln(w, strings.Join(headers, ",")); err != nil {
		return err
	}
	for _, row := range rows {
		if _, err := fmt.Fprintln(w, strings.Join(row, ",")); err != nil {
			return err
		}
	}
	return nil
}

// allTypes is the rendering order used throughout.
var allTypes = []relays.Type{relays.COR, relays.PLR, relays.RAROther, relays.RAREye}

// paperImprovedPct holds the paper's Figure-2 headline improved
// percentages, shown next to this run's in the summary.
var paperImprovedPct = map[relays.Type]string{
	relays.COR: "76", relays.RAROther: "58", relays.PLR: "43", relays.RAREye: "35",
}

// Fig1 renders the eyeball cutoff curve (number of ASes and countries vs
// user-coverage cutoff) as CSV.
func Fig1(w io.Writer, ds *apnic.Dataset) error {
	var cutoffs []float64
	for c := 0.0; c <= 100; c += 5 {
		cutoffs = append(cutoffs, c)
	}
	pts := ds.CutoffCurve(cutoffs)
	rows := make([][]string, 0, len(pts))
	for _, p := range pts {
		rows = append(rows, []string{
			fmt.Sprintf("%.0f", p.Cutoff),
			fmt.Sprintf("%d", p.ASes),
			fmt.Sprintf("%d", p.Countries),
		})
	}
	return CSV(w, []string{"cutoff_pct", "ases", "countries"}, rows)
}

// Fig2 renders the improvement CDFs per relay type as CSV: one row per
// improvement threshold, one column per type.
func Fig2(w io.Writer, s *measure.Stats) error {
	var xs []float64
	for x := 0.0; x <= 200; x += 2 {
		xs = append(xs, x)
	}
	curves := make(map[relays.Type][]measure.CDFPoint, len(allTypes))
	for _, t := range allTypes {
		curves[t] = s.ImprovementCDF(t, xs)
	}
	headers := []string{"improvement_ms"}
	for _, t := range allTypes {
		headers = append(headers, "cdf_"+t.String())
	}
	rows := make([][]string, 0, len(xs))
	for i, x := range xs {
		row := []string{fmt.Sprintf("%.0f", x)}
		for _, t := range allTypes {
			row = append(row, fmt.Sprintf("%.4f", curves[t][i].Fraction))
		}
		rows = append(rows, row)
	}
	return CSV(w, headers, rows)
}

// Fig3 renders the top-relay coverage curves (fraction of total cases
// improved vs number of top relays) as CSV.
func Fig3(w io.Writer, res *measure.Results, maxN int) error {
	curves := make(map[relays.Type][]analysis.TopRelayPoint, len(allTypes))
	for _, t := range allTypes {
		curves[t] = analysis.TopRelayCurve(res, t, maxN)
	}
	headers := []string{"top_relays"}
	for _, t := range allTypes {
		headers = append(headers, "frac_total_"+t.String())
	}
	var rows [][]string
	for n := 1; n <= maxN; n++ {
		row := []string{fmt.Sprintf("%d", n)}
		for _, t := range allTypes {
			c := curves[t]
			val := 0.0
			if n-1 < len(c) {
				val = c[n-1].FracTotal
			} else if len(c) > 0 {
				val = c[len(c)-1].FracTotal
			}
			row = append(row, fmt.Sprintf("%.4f", val))
		}
		rows = append(rows, row)
	}
	return CSV(w, headers, rows)
}

// Fig4 renders the threshold curves (fraction of total cases improved by
// more than a threshold, top-10 vs all relays per type) as CSV.
func Fig4(w io.Writer, res *measure.Results, topN int) error {
	var ths []float64
	for x := 0.0; x <= 100; x += 5 {
		ths = append(ths, x)
	}
	curves := make(map[relays.Type][]analysis.ThresholdPoint, len(allTypes))
	for _, t := range allTypes {
		curves[t] = analysis.ThresholdCurves(res, t, topN, ths)
	}
	headers := []string{"threshold_ms"}
	for _, t := range allTypes {
		headers = append(headers, t.String()+"_top10", t.String()+"_all")
	}
	var rows [][]string
	for i, th := range ths {
		row := []string{fmt.Sprintf("%.0f", th)}
		for _, t := range allTypes {
			row = append(row, fmt.Sprintf("%.4f", curves[t][i].TopN),
				fmt.Sprintf("%.4f", curves[t][i].All))
		}
		rows = append(rows, row)
	}
	return CSV(w, headers, rows)
}

// Table1 renders the top-facility table in the paper's layout.
func Table1(w io.Writer, res *measure.Results, topRelays int) error {
	rows := analysis.TopFacilities(res, topRelays)
	out := make([][]string, 0, len(rows))
	for _, r := range rows {
		out = append(out, []string{
			fmt.Sprintf("%d", r.Rank),
			fmt.Sprintf("%s (%d)", r.Name, r.PDBID),
			fmt.Sprintf("%.0f", r.PctImproved*100),
			fmt.Sprintf("%s (%s)", r.City, r.CC),
			fmt.Sprintf("%d", r.ListedNets),
			fmt.Sprintf("%d", r.IXPs),
			check(r.Cloud),
			check(r.PDBTop10),
		})
	}
	return Table(w, []string{
		"#", "Facility Name (PDB ID)", "% Improved", "City (CC)",
		"#Nets", "#IXPs", "Cloud", "PDB top-10",
	}, out)
}

func check(b bool) string {
	if b {
		return "yes"
	}
	return "no"
}

// Summary renders the headline numbers with their paper counterparts,
// for a batch or a streamed campaign alike: the table and every line
// through direction symmetry come from s. The stability and coverage
// lines rank the whole campaign, so they need its retained observations
// and print only when res is non-nil.
func Summary(w io.Writer, s *measure.Stats, res *measure.Results) error {
	rows := [][]string{}
	for _, t := range allTypes {
		rows = append(rows, []string{
			t.String(),
			fmt.Sprintf("%.1f", s.ImprovedFraction(t)*100),
			paperImprovedPct[t],
			fmt.Sprintf("%.1f", s.MedianImprovementMs(t)),
			fmt.Sprintf("%.1f", s.ImprovedOverFraction(t, 100)*100),
			fmt.Sprintf("%.0f", s.RelayRedundancyMedian(t)),
		})
	}
	if err := Table(w, []string{
		"type", "improved %", "paper %", "median gain ms", ">100ms % of improved", "median #improving",
	}, rows); err != nil {
		return err
	}
	v := s.VoIP()
	diff, same := s.CountryChange(relays.COR)
	fmt.Fprintf(w, "\npairs: %d over %d rounds, %d pings, responsive %.0f%% (paper ~84%%)\n",
		s.Pairs(), s.Rounds(), s.TotalPings(), s.ResponsiveFraction()*100)
	fmt.Fprintf(w, "relayed paths studied: %d (paper ~29M at full scale)\n", s.RelayedPathsStudied())
	fmt.Fprintf(w, "intercontinental pairs: %.0f%% (paper 74%%)\n", s.IntercontinentalFraction()*100)
	fmt.Fprintf(w, "VoIP >320ms: direct %.0f%% -> with COR %.0f%% (paper 19%% -> 11%%)\n",
		v.DirectOver*100, v.WithCOROver*100)
	fmt.Fprintf(w, "COR country-change: different %.0f%% vs same %.0f%% improved (paper 75%% vs 50%%)\n",
		diff*100, same*100)
	fmt.Fprintf(w, "direction symmetry: %.0f%% of pairs within 5%% (paper ~80%%)\n", s.SymmetryWithin5()*100)
	if res == nil {
		return nil
	}
	cv := analysis.StabilityCV(res)
	fmt.Fprintf(w, "stability: CV<10%% for %.0f%% of %d recurring pairs (paper 90%%)\n",
		cv.FracBelow10*100, cv.Pairs)
	n, facs := analysis.RelaysForCoverage(res, relays.COR, 0.75)
	fmt.Fprintf(w, "75%% of COR coverage: %d relays in %d facilities (paper: 10 relays, 6 colos)\n",
		n, len(facs))
	return nil
}

// Funnel renders the COR pipeline counts next to the paper's.
func Funnel(w io.Writer, res *measure.Results) error {
	f := res.World.Catalog.Funnel
	rows := [][]string{
		{"initial dataset", fmt.Sprintf("%d", f.Initial), "2675"},
		{"single facility & active PDB", fmt.Sprintf("%d", f.SingleFacilityActive), "1008"},
		{"pingable", fmt.Sprintf("%d", f.Pingable), "764"},
		{"same IP ownership", fmt.Sprintf("%d", f.SameOwnership), "725"},
		{"active facility presence", fmt.Sprintf("%d", f.ActiveFacilityPresence), "725"},
		{"RTT geolocation", fmt.Sprintf("%d", f.Geolocated), "356"},
		{"facilities", fmt.Sprintf("%d", f.Facilities), "58"},
		{"cities", fmt.Sprintf("%d", f.Cities), "36"},
	}
	return Table(w, []string{"COR pipeline stage", "this run", "paper"}, rows)
}
