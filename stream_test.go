package shortcuts

import (
	"math"
	"strings"
	"testing"
)

// collectSink exercises the public Sink contract.
type collectSink struct {
	emits  int
	rounds []RoundInfo
	best   float32 // min direct RTT seen, as a sanity check on payloads
}

func (c *collectSink) Emit(o Observation) {
	c.emits++
	if c.best == 0 || o.DirectMs < c.best {
		c.best = o.DirectMs
	}
}

func (c *collectSink) RoundDone(ri RoundInfo) { c.rounds = append(c.rounds, ri) }

func TestRunStreamMatchesBatchAPI(t *testing.T) {
	camp, res := apiResults(t)
	var sink collectSink
	stats, err := camp.RunStream(&sink)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Pairs() != res.Pairs() {
		t.Fatalf("stream pairs %d vs batch %d", stats.Pairs(), res.Pairs())
	}
	if stats.Rounds() != res.Rounds() {
		t.Fatalf("stream rounds %d vs batch %d", stats.Rounds(), res.Rounds())
	}
	if stats.TotalPings() != res.TotalPings() {
		t.Fatalf("stream pings %d vs batch %d", stats.TotalPings(), res.TotalPings())
	}
	if sink.emits != res.Pairs() {
		t.Fatalf("sink saw %d observations, batch has %d", sink.emits, res.Pairs())
	}
	if len(sink.rounds) != res.Rounds() {
		t.Fatalf("sink saw %d rounds, batch has %d", len(sink.rounds), res.Rounds())
	}
	if sink.best <= 0 {
		t.Fatal("streamed observations carry no direct RTTs")
	}
	for _, ty := range RelayTypes() {
		if got, want := stats.ImprovedFraction(ty), res.ImprovedFraction(ty); got != want {
			t.Fatalf("%v improved fraction: stream %v vs batch %v", ty, got, want)
		}
	}
	if got, want := stats.ResponsiveFraction(), res.ResponsiveFraction(); got != want {
		t.Fatalf("responsive fraction: stream %v vs batch %v", got, want)
	}
}

func TestRoundProgressSink(t *testing.T) {
	camp, res := apiResults(t)
	fired := 0
	stats, err := camp.RunStream(RoundProgressSink(func(ri RoundInfo) {
		if ri.Round != fired {
			t.Fatalf("round %d fired out of order (want %d)", ri.Round, fired)
		}
		fired++
	}))
	if err != nil {
		t.Fatal(err)
	}
	if fired != res.Rounds() {
		t.Fatalf("progress fired %d times, want %d", fired, res.Rounds())
	}
	if stats.Pairs() != res.Pairs() {
		t.Fatalf("stats pairs %d vs batch %d", stats.Pairs(), res.Pairs())
	}
	// A non-positive threshold means every improved case qualifies.
	for _, ty := range RelayTypes() {
		if stats.ImprovedFraction(ty) == 0 {
			continue
		}
		if got := stats.ImprovedOverFraction(ty, -1); got != 1 {
			t.Fatalf("%v ImprovedOverFraction(-1) = %v, want 1", ty, got)
		}
	}
}

func TestRunStreamNilSink(t *testing.T) {
	camp, _ := apiResults(t)
	stats, err := camp.RunStream(nil)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Pairs() == 0 || stats.TotalPings() == 0 {
		t.Fatal("nil-sink stream produced no aggregates")
	}
}

func TestRunWithProgressReportsEveryRound(t *testing.T) {
	camp, res := apiResults(t)
	var seen []int
	res2, err := camp.RunWithProgress(func(ri RoundInfo) { seen = append(seen, ri.Round) })
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != res.Rounds() {
		t.Fatalf("progress fired %d times, want %d", len(seen), res.Rounds())
	}
	for i, r := range seen {
		if r != i {
			t.Fatalf("progress rounds out of order: %v", seen)
		}
	}
	if res2.Pairs() != res.Pairs() {
		t.Fatalf("RunWithProgress pairs %d vs Run %d", res2.Pairs(), res.Pairs())
	}
}

func TestStreamCDFCloseToBatch(t *testing.T) {
	camp, res := apiResults(t)
	stats, err := camp.RunStream(nil)
	if err != nil {
		t.Fatal(err)
	}
	xs := []float64{0, 2, 10, 50, 100, 200}
	for _, ty := range RelayTypes() {
		batch := res.ImprovementCDF(ty, xs)
		stream := stats.ImprovementCDF(ty, xs)
		for i := range xs {
			// The stream CDF quantizes improvements into 0.25 ms bins;
			// with a small campaign each point may shift by a few cases.
			if math.Abs(batch[i].Fraction-stream[i].Fraction) > 0.05 {
				t.Fatalf("%v CDF at %vms: batch %v vs stream %v",
					ty, xs[i], batch[i].Fraction, stream[i].Fraction)
			}
		}
	}
}

func TestStreamSummaryRenders(t *testing.T) {
	camp, _ := apiResults(t)
	stats, err := camp.RunStream(nil)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := stats.WriteSummary(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"improved %", "COR", "responsive"} {
		if !strings.Contains(out, want) {
			t.Fatalf("stream summary missing %q:\n%s", want, out)
		}
	}
}
