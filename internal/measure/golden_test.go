package measure

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"math"
	"testing"

	"shortcuts/internal/scenario"
	"shortcuts/internal/sim"
)

// digestSink folds the full observation stream — every field of every
// Observation and RoundInfo, in emission order — into one SHA-256, so
// two campaigns are digest-equal iff they are bit-identical.
type digestSink struct{ h hash.Hash }

func newDigestSink() *digestSink { return &digestSink{h: sha256.New()} }

func (s *digestSink) word(v uint64) {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], v)
	s.h.Write(buf[:])
}

func (s *digestSink) f32(v float32) { s.word(uint64(math.Float32bits(v))) }

func (s *digestSink) Emit(o Observation) {
	s.word(uint64(o.Round))
	s.word(uint64(o.SrcProbe))
	s.word(uint64(o.DstProbe))
	s.word(uint64(o.SrcAS))
	s.word(uint64(o.DstAS))
	s.h.Write([]byte(o.SrcCC))
	s.h.Write([]byte(o.DstCC))
	s.h.Write([]byte(o.SrcCont))
	s.h.Write([]byte(o.DstCont))
	s.f32(o.DirectMs)
	s.f32(o.RevDirectMs)
	for t := range o.BestMs {
		s.f32(o.BestMs[t])
		s.word(uint64(int64(o.BestRelay[t])))
		s.word(uint64(o.FeasibleCount[t]))
	}
	s.word(uint64(len(o.Improving)))
	for _, e := range o.Improving {
		s.word(uint64(e.Relay))
		s.f32(e.RelayedMs)
	}
}

func (s *digestSink) RoundDone(info RoundInfo) {
	s.word(uint64(info.Round))
	s.word(uint64(info.Endpoints))
	s.word(uint64(info.PingsSent))
	s.word(uint64(info.PairsUsable))
	s.word(uint64(info.PairsAttempted))
	s.word(uint64(info.RelaysChurned))
	for _, c := range info.RelayCounts {
		s.word(uint64(c))
	}
}

func (s *digestSink) sum() string { return fmt.Sprintf("%x", s.h.Sum(nil)) }

// TestGoldenStreamDigests pins the campaign output against SHA-256
// digests recorded from the engine as it stood before the PR-5 round
// -throughput overhaul (city-pair feasibility memoization, round-scratch
// arena, open-addressed path-state cache). Any single bit of drift in
// any observation of any covered configuration fails here.
//
// Each golden configuration runs across the scheduling matrix —
// measurement Concurrency 1 and 8 with latency-cache shards 1 and 8 —
// and the set spans scenario off, scenario on (outage and churn
// presets), and the feasibility-filter ablation, so the round's
// feasibility rows, the scratch arena and the cache layout are all proven
// bit-compatible with the historical stream, not merely
// self-consistent. Cell names keep their historical -k1 suffix (round
// depth 1), so each cell's ID matches earlier runs.
func TestGoldenStreamDigests(t *testing.T) {
	cases := []struct {
		name   string
		seed   int64
		rounds int
		preset string
		noFilt bool
		want   string
	}{
		{"seed17-r2", 17, 2, "", false,
			"0a20e06eea5951906e4c057f245194a1879376390c8df53e36799066548e187f"},
		{"seed17-r4", 17, 4, "", false,
			"fa1421efd645da870c2a867b88d4c15c2d23fd45fbc374db468a3591ff4a810e"},
		{"seed17-r4-outage", 17, 4, scenario.PresetOutage, false,
			"a52a9650ef031b90d3d6ea2a71eb5a067eaf4dd777d2e64d4c4e60c25cd6b8be"},
		{"seed23-r3-churn", 23, 3, scenario.PresetChurn, false,
			"722deb90fe91ab93706bcb8170684abac5959b691631d167e9a78170cf4a7b31"},
		{"seed17-r1-nofilter", 17, 1, "", true,
			"a9d4bd7c49e3a14d3619d60c9a50aec1eb53d3722554962969df3ecb00dd8280"},
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
				cfg.DisableFeasibilityFilter = tc.noFilt
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
					t.Fatalf("stream digest drifted from pre-PR5 golden:\n got %s\nwant %s", got, tc.want)
				}
			})
		}
	}
}
