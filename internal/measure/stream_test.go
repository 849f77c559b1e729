package measure

import (
	"fmt"
	"reflect"
	"testing"

	"shortcuts/internal/relays"
	"shortcuts/internal/sim"
)

// equalResults compares everything a campaign measured, ignoring the
// world/config references.
func equalResults(t *testing.T, label string, a, b *Results) {
	t.Helper()
	if a.TotalPings != b.TotalPings {
		t.Fatalf("%s: TotalPings %d vs %d", label, a.TotalPings, b.TotalPings)
	}
	if a.PairsAttempted != b.PairsAttempted {
		t.Fatalf("%s: PairsAttempted %d vs %d", label, a.PairsAttempted, b.PairsAttempted)
	}
	if !reflect.DeepEqual(a.Rounds, b.Rounds) {
		t.Fatalf("%s: round summaries differ", label)
	}
	if len(a.Observations) != len(b.Observations) {
		t.Fatalf("%s: %d vs %d observations", label, len(a.Observations), len(b.Observations))
	}
	for i := range a.Observations {
		if !reflect.DeepEqual(a.Observations[i], b.Observations[i]) {
			t.Fatalf("%s: observation %d differs:\n%+v\nvs\n%+v",
				label, i, a.Observations[i], b.Observations[i])
		}
	}
}

// TestBitIdenticalAcrossConcurrencyAndShards is the determinism
// contract of the streaming refactor: the same seed must produce
// bit-for-bit identical results for every worker count and every
// engine cache shard count.
func TestBitIdenticalAcrossConcurrencyAndShards(t *testing.T) {
	var ref *Results
	for _, shards := range []int{1, 8} {
		wp := sim.SmallWorldParams(11)
		wp.Latency.CacheShards = shards
		w, err := sim.Build(wp)
		if err != nil {
			t.Fatal(err)
		}
		if got := w.Engine.NumShards(); got != shards {
			t.Fatalf("engine has %d shards, want %d", got, shards)
		}
		for _, conc := range []int{1, 8} {
			cfg := QuickConfig(2)
			cfg.Concurrency = conc
			res, err := Run(w, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if ref == nil {
				ref = res
				continue
			}
			equalResults(t, fmt.Sprintf("shards=%d conc=%d", shards, conc), ref, res)
		}
	}
	if ref == nil || len(ref.Observations) == 0 {
		t.Fatal("campaign produced no observations")
	}
}

// TestRunStreamMatchesRun pins Run as a thin wrapper: streaming into a
// fresh Results reproduces Run's output exactly.
func TestRunStreamMatchesRun(t *testing.T) {
	w, batch := testCampaign(t)
	cfg := QuickConfig(3)
	streamed := NewResults(cfg, w)
	if err := RunStream(w, cfg, streamed); err != nil {
		t.Fatal(err)
	}
	equalResults(t, "stream vs batch", batch, streamed)
}

// foldCampaign runs a campaign into a Stats and a Results at once.
func foldCampaign(t *testing.T, w *sim.World, cfg Config) (*Stats, *Results) {
	t.Helper()
	s, res := new(Stats), NewResults(cfg, w)
	if err := RunStream(w, cfg, MultiSink(StatsSink(s, w.Catalog), res)); err != nil {
		t.Fatal(err)
	}
	return s, res
}

// TestStreamStatsMatchesBatch holds every Stats method to the reference
// scans over the same campaign's retained observations, bit for bit:
// small worlds, the paper campaign, a sampled scale cell, an empty and a
// one-round campaign, and a hand-built stream of edge cases.
func TestStreamStatsMatchesBatch(t *testing.T) {
	xs := statThresholds()
	for seed := int64(1); seed <= 5; seed++ {
		w, err := sim.Build(sim.SmallWorldParams(seed))
		if err != nil {
			t.Fatal(err)
		}
		s, res := foldCampaign(t, w, QuickConfig(3))
		checkStats(t, fmt.Sprintf("small seed %d", seed), s, res, xs)
		if seed == 1 {
			checkStats(t, "empty", new(Stats), NewResults(QuickConfig(1), w), xs)
			s, res := foldCampaign(t, w, QuickConfig(1))
			checkStats(t, "one round", s, res, xs)
			checkStats(t, "hand-built", handBuiltStats(t, w), handBuiltResults(w), xs)
		}
	}

	scale := QuickConfig(2)
	scale.PairBudget = 256
	scale.EndpointsPerCountry = 1 << 20
	scale.FastAvailability = true
	scale.DailyCreditLimit = 0
	w, err := sim.Build(sim.ScaleWorldParams(1, 20_000))
	if err != nil {
		t.Fatal(err)
	}
	s, res := foldCampaign(t, w, scale)
	checkStats(t, "sampled 20k", s, res, xs)

	if testing.Short() {
		t.Log("skipping the 45-round default-world campaign in -short mode")
		return
	}
	w, err = sim.Build(sim.DefaultWorldParams(1))
	if err != nil {
		t.Fatal(err)
	}
	s, res = foldCampaign(t, w, QuickConfig(45))
	checkStats(t, "default seed 1 x 45 rounds", s, res, xs)
}

// handBuiltResults is a stream of edge cases over w's catalog: gains of
// exactly 2 and 100 ms (on the Figure-2 grid and at the >100 ms cut),
// zero and negative gains, types with no best relay, a direct RTT of
// exactly the VoIP threshold, a one-way-only pair, best relays in and
// out of the endpoints' countries, and a round that emits nothing.
func handBuiltResults(w *sim.World) *Results {
	cat := w.Catalog
	cor, _ := cat.Span(relays.COR)
	plr, _ := cat.Span(relays.PLR)
	rar, _ := cat.Span(relays.RAREye)
	cc := cat.CC(cor)
	obs := func(round int, direct, rev float32, best [relays.NumTypes]float32, bestRelay [relays.NumTypes]int32, imp ...ImproveEntry) Observation {
		return Observation{Round: round, SrcCC: cc, DstCC: "ZZ", SrcCont: "EU", DstCont: "NA",
			DirectMs: direct, RevDirectMs: rev, BestMs: best, BestRelay: bestRelay,
			FeasibleCount: [relays.NumTypes]uint16{3, 2, 1, 0}, Improving: imp}
	}
	c, p, r := int32(cor), int32(plr), int32(rar)
	res := NewResults(QuickConfig(3), w)
	res.Observations = []Observation{
		obs(0, 50, 50, [relays.NumTypes]float32{48, 0, 0, 0}, [relays.NumTypes]int32{c, -1, -1, -1},
			ImproveEntry{c, 48}),
		obs(0, 200, 195, [relays.NumTypes]float32{100, 200, 0, 210}, [relays.NumTypes]int32{c + 1, p, -1, r},
			ImproveEntry{c, 150}, ImproveEntry{c + 1, 100}, ImproveEntry{r, 199}),
		obs(0, 320, 0, [relays.NumTypes]float32{300, 330, 0, 0}, [relays.NumTypes]int32{c, p, -1, -1},
			ImproveEntry{c, 300}),
		obs(2, 400, 410, [relays.NumTypes]float32{0, 0, 0, 0}, [relays.NumTypes]int32{-1, -1, -1, -1}),
		obs(2, 330, 330, [relays.NumTypes]float32{319, 0, 0, 0}, [relays.NumTypes]int32{c + 1, -1, -1, -1},
			ImproveEntry{c + 1, 319}, ImproveEntry{p, 329}, ImproveEntry{r, 329}, ImproveEntry{r + 1, 325}),
	}
	res.Rounds = []RoundInfo{
		{Round: 0, PingsSent: 100, PairsUsable: 3, PairsAttempted: 4},
		{Round: 1, PingsSent: 50, PairsAttempted: 2},
		{Round: 2, PingsSent: 80, PairsUsable: 2, PairsAttempted: 2},
	}
	res.TotalPings, res.PairsAttempted = 230, 8
	return res
}

// handBuiltStats streams handBuiltResults through a StatsSink and pins
// the values its edge cases decide.
func handBuiltStats(t *testing.T, w *sim.World) *Stats {
	t.Helper()
	res := handBuiltResults(w)
	s := new(Stats)
	k := StatsSink(s, w.Catalog)
	for _, o := range res.Observations {
		k.Emit(o)
	}
	for _, info := range res.Rounds {
		k.RoundDone(info)
	}
	for _, c := range []struct {
		what      string
		got, want float64
	}{
		// COR gains are 2, 100, 20 and 11 ms.
		{"COR CDF at 2 ms counts the 2 ms gain", s.ImprovementCDF(relays.COR, []float64{2})[0].Fraction, 2.0 / 5},
		{"COR CDF at 0 ms", s.ImprovementCDF(relays.COR, []float64{0})[0].Fraction, 1.0 / 5},
		{"COR >100 ms leaves out the 100 ms gain", s.ImprovedOverFraction(relays.COR, 100), 0},
		{"COR >99 ms", s.ImprovedOverFraction(relays.COR, 99), 1.0 / 4},
		{"COR median gain", s.MedianImprovementMs(relays.COR), 15.5},
		// PLR's gains are 0 and -10 ms: no improved case.
		{"PLR improved", s.ImprovedFraction(relays.PLR), 0},
		{"PLR median gain", s.MedianImprovementMs(relays.PLR), 0},
		{"RAR_eye improved", s.ImprovedFraction(relays.RAREye), 0},
		{"VoIP direct at exactly 320 ms is not over", s.VoIP().DirectOver, 2.0 / 5},
		{"VoIP with COR", s.VoIP().WithCOROver, 1.0 / 5},
		{"symmetry over the pairs measured both ways", s.SymmetryWithin5(), 4.0 / 4},
		{"responsive", s.ResponsiveFraction(), 5.0 / 8},
		{"COR redundancy over 1, 2, 1 and 1 relays", s.RelayRedundancyMedian(relays.COR), 1},
	} {
		if c.got != c.want {
			t.Errorf("hand-built: %s = %v, want %v", c.what, c.got, c.want)
		}
	}
	if per := s.PerRoundImproved(relays.COR); len(per) != 2 || per[0] != 1 || per[1] != 0.5 {
		t.Errorf("hand-built: COR per round = %v, want [1 0.5] (round 1 emitted nothing)", per)
	}
	return s
}

// TestStreamStatsCDFMonotone checks the streaming CDF's shape: it must
// be non-decreasing, start at the non-improved fraction and reach 1.
func TestStreamStatsCDFMonotone(t *testing.T) {
	w, _ := testCampaign(t)
	stats := new(Stats)
	if err := RunStream(w, QuickConfig(3), StatsSink(stats, w.Catalog)); err != nil {
		t.Fatal(err)
	}
	xs := make([]float64, 0, 101)
	for x := 0.0; x <= 1000; x += 10 {
		xs = append(xs, x)
	}
	for ty := 0; ty < relays.NumTypes; ty++ {
		ys := make([]float64, len(xs))
		for i, p := range stats.ImprovementCDF(relays.Type(ty), xs) {
			ys[i] = p.Fraction
		}
		floor := 1 - stats.ImprovedFraction(relays.Type(ty))
		if ys[0] < floor-1e-12 {
			t.Fatalf("type %v CDF(0) = %v below non-improved floor %v", relays.Type(ty), ys[0], floor)
		}
		for i := 1; i < len(ys); i++ {
			if ys[i] < ys[i-1] {
				t.Fatalf("type %v CDF decreases at x=%v", relays.Type(ty), xs[i])
			}
		}
		if ys[len(ys)-1] < 0.999 {
			t.Fatalf("type %v CDF tops out at %v", relays.Type(ty), ys[len(ys)-1])
		}
	}
}

// TestMultiSinkFansOut checks that MultiSink delivers the identical
// stream to every sink, in order.
func TestMultiSinkFansOut(t *testing.T) {
	w, _ := testCampaign(t)
	cfg := QuickConfig(2)
	r1 := NewResults(cfg, w)
	r2 := NewResults(cfg, w)
	if err := RunStream(w, cfg, MultiSink(r1, r2)); err != nil {
		t.Fatal(err)
	}
	equalResults(t, "multisink", r1, r2)
	if len(r1.Observations) == 0 {
		t.Fatal("no observations streamed")
	}
}

// TestEmptySinkStillCounts runs a campaign into a pure aggregate sink
// and checks the round summaries carry the attempt counters the batch
// path previously tracked internally.
func TestEmptySinkStillCounts(t *testing.T) {
	w, _ := testCampaign(t)
	stats := new(Stats)
	if err := RunStream(w, QuickConfig(1), StatsSink(stats, w.Catalog)); err != nil {
		t.Fatal(err)
	}
	if stats.PairsAttempted() <= 0 {
		t.Fatal("round summaries missing PairsAttempted")
	}
	if rf := stats.ResponsiveFraction(); rf < 0.5 || rf > 1 {
		t.Fatalf("responsive fraction %v out of range", rf)
	}
}
