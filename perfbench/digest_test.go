package main

import (
	"strings"
	"testing"

	"shortcuts"
	"shortcuts/internal/measure"
)

// testStream is a two-round stream of three observations.
func testStream() ([]shortcuts.Observation, []shortcuts.RoundInfo) {
	obs := []shortcuts.Observation{
		{Round: 0, SrcCC: "DE", DstCC: "JP", SrcCont: "EU", DstCont: "AS", DirectMs: 240.5, RevDirectMs: 241,
			BestMs: [shortcuts.NumRelayTypes]float32{200, 0, 0, 0}, BestRelay: [shortcuts.NumRelayTypes]int32{7, -1, -1, -1},
			FeasibleCount: [shortcuts.NumRelayTypes]uint16{3, 0, 1, 0},
			Improving:     []shortcuts.ImproveEntry{{Relay: 7, RelayedMs: 200}}},
		{Round: 0, SrcCC: "BR", DstCC: "US", SrcCont: "SA", DstCont: "NA", DirectMs: 130,
			BestRelay: [shortcuts.NumRelayTypes]int32{-1, -1, -1, -1}},
		{Round: 1, SrcCC: "DE", DstCC: "JP", SrcCont: "EU", DstCont: "AS", DirectMs: 239,
			BestRelay: [shortcuts.NumRelayTypes]int32{-1, -1, -1, -1}},
	}
	rounds := []shortcuts.RoundInfo{
		{Round: 0, Endpoints: 3, PairsAttempted: 3, PairsUsable: 2, PingsSent: 36},
		{Round: 1, Endpoints: 3, PairsAttempted: 3, PairsUsable: 1, PingsSent: 30},
	}
	return obs, rounds
}

func digestOf(obs []shortcuts.Observation, rounds []shortcuts.RoundInfo) *streamDigest {
	d := newStreamDigest()
	i := 0
	for _, ri := range rounds {
		for ; i < len(obs) && obs[i].Round == ri.Round; i++ {
			d.public(&obs[i])
		}
		d.round(ri.Round, ri.Endpoints, ri.PairsAttempted, ri.PairsUsable, ri.PingsSent)
	}
	return d
}

func pin(t *testing.T, workload string, seed int64, sum string) {
	t.Helper()
	pinnedDigests[workload] = map[int64]string{seed: sum}
	t.Cleanup(func() { delete(pinnedDigests, workload) })
}

func TestDigestPublicEqualsInternal(t *testing.T) {
	obs, rounds := testStream()
	pub := digestOf(obs, rounds)
	in := newStreamDigest()
	i := 0
	for _, ri := range rounds {
		for ; i < len(obs) && obs[i].Round == ri.Round; i++ {
			o := obs[i]
			m := measure.Observation{Round: o.Round, SrcCC: o.SrcCC, DstCC: o.DstCC, SrcCont: o.SrcCont, DstCont: o.DstCont,
				DirectMs: o.DirectMs, RevDirectMs: o.RevDirectMs, BestMs: o.BestMs, BestRelay: o.BestRelay, FeasibleCount: o.FeasibleCount}
			for _, e := range o.Improving {
				m.Improving = append(m.Improving, measure.ImproveEntry{Relay: int32(e.Relay), RelayedMs: e.RelayedMs})
			}
			in.internal(&m)
		}
		in.round(ri.Round, ri.Endpoints, ri.PairsAttempted, ri.PairsUsable, ri.PingsSent)
	}
	if pub.sum() != in.sum() {
		t.Errorf("public digest %s, internal %s", pub.sum(), in.sum())
	}
}

func TestCheckStreamAcceptsIntactStream(t *testing.T) {
	obs, rounds := testStream()
	d := digestOf(obs, rounds)
	pin(t, "test-campaign", 1, d.sum())
	if err := checkStream("test-campaign", 1, 2, d); err != nil {
		t.Fatalf("intact pinned stream: %v", err)
	}
	if err := checkStream("test-campaign", 2, 2, digestOf(obs, rounds)); err != nil {
		t.Fatalf("unpinned seed with intact invariants: %v", err)
	}
}

func TestCheckStreamRejectsCorruptedStream(t *testing.T) {
	obs, rounds := testStream()
	pin(t, "test-campaign", 1, digestOf(obs, rounds).sum())

	corrupt := append([]shortcuts.Observation(nil), obs...)
	corrupt[1].DirectMs += 0.5
	err := checkStream("test-campaign", 1, 2, digestOf(corrupt, rounds))
	if err == nil || !strings.Contains(err.Error(), "pinned") {
		t.Errorf("a changed RTT on a pinned seed: err = %v, want a digest mismatch", err)
	}

	relay := append([]shortcuts.Observation(nil), obs...)
	relay[0].Improving = []shortcuts.ImproveEntry{{Relay: 8, RelayedMs: 200}}
	if err := checkStream("test-campaign", 1, 2, digestOf(relay, rounds)); err == nil {
		t.Error("a changed improving relay on a pinned seed passed")
	}

	dropped := obs[:2] // round 1's observation is lost
	err = checkStream("test-campaign", 3, 2, digestOf(dropped, rounds))
	if err == nil || !strings.Contains(err.Error(), "usable") {
		t.Errorf("a dropped observation: err = %v, want the count invariant to fail", err)
	}

	if err := checkStream("test-campaign", 3, 3, digestOf(obs, rounds)); err == nil {
		t.Error("a missing round passed")
	}
}

func TestSameDigests(t *testing.T) {
	if err := sameDigests([]string{"a", "a", "a"}); err != nil {
		t.Error(err)
	}
	if err := sameDigests([]string{"a", "a", "b"}); err == nil {
		t.Error("differing repeat digests passed")
	}
}
