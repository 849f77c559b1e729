package measure

import (
	"encoding/binary"
	"math"
	"sync"
	"testing"

	"shortcuts/internal/relays"
	"shortcuts/internal/sim"
)

var (
	fuzzWorldOnce sync.Once
	fuzzWorld     *sim.World
	fuzzWorldErr  error
)

// fuzzReader hands out fuzzer bytes, reading zeros once they run out.
type fuzzReader struct{ b []byte }

func (r *fuzzReader) more() bool { return len(r.b) > 0 }

func (r *fuzzReader) bytes(n int) []byte {
	out := make([]byte, n)
	r.b = r.b[copy(out, r.b):]
	return out
}

func (r *fuzzReader) byte() byte  { return r.bytes(1)[0] }
func (r *fuzzReader) u16() uint16 { return binary.LittleEndian.Uint16(r.bytes(2)) }

// rtt reads a finite non-negative RTT: mostly on a 1/8 ms grid, so that
// ties, the VoIP threshold and whole-millisecond gains occur, and
// sometimes any finite float32.
func (r *fuzzReader) rtt() float32 {
	if r.byte()&1 != 0 {
		v := math.Float32frombits(binary.LittleEndian.Uint32(r.bytes(4)))
		if v != v || math.IsInf(float64(v), 0) {
			return 0
		}
		return float32(math.Abs(float64(v)))
	}
	return float32(r.u16()) / 8
}

// fuzzResults builds a campaign's retained output from fuzzer bytes over
// w's catalog: observations in any round order, best relays from -1 to
// the last catalog index, improving entries of every type, and round
// summaries whose usable counts match the observations.
func fuzzResults(w *sim.World, data []byte) *Results {
	cat := w.Catalog
	r := &fuzzReader{data}
	ccs := []string{"ZZ"}
	for t := range relays.NumTypes {
		lo, _ := cat.Span(relays.Type(t))
		ccs = append(ccs, cat.CC(lo))
	}
	res := NewResults(QuickConfig(1), w)
	usable := make([]int, 4)
	for r.more() && len(res.Observations) < 64 {
		sel := r.byte()
		o := Observation{
			Round:       int(sel % 4),
			SrcCC:       ccs[int(sel/4)%len(ccs)],
			DstCC:       ccs[int(sel/32)%len(ccs)],
			SrcCont:     "EU",
			DstCont:     "EU",
			DirectMs:    r.rtt(),
			RevDirectMs: r.rtt(),
		}
		if sel&0x80 != 0 {
			o.DstCont = "NA"
		}
		usable[o.Round]++
		for t := range relays.NumTypes {
			o.BestRelay[t] = int32(int(r.u16())%(cat.Len()+1)) - 1
			o.BestMs[t] = r.rtt()
			o.FeasibleCount[t] = uint16(r.byte())
		}
		for n := r.byte() % 8; n > 0; n-- {
			lo, hi := cat.Span(relays.Type(r.byte() % relays.NumTypes))
			o.Improving = append(o.Improving, ImproveEntry{
				Relay:     int32(lo + int(r.u16())%(hi-lo)),
				RelayedMs: r.rtt(),
			})
		}
		res.Observations = append(res.Observations, o)
	}
	for round, n := range usable {
		info := RoundInfo{Round: round, PingsSent: int64(r.u16()), PairsUsable: n,
			PairsAttempted: n + int(r.byte())}
		res.RoundDone(info)
	}
	return res
}

// FuzzStatsFold streams fuzzed observations through a StatsSink and holds
// the aggregate to the reference scans at fuzzed thresholds.
func FuzzStatsFold(f *testing.F) {
	f.Add([]byte{0x01, 0x00, 0x90, 0x01, 0x00, 0x80, 0x01}, 2.0, 100.0)
	f.Add([]byte("a stream of mostly printable bytes, long enough for a few observations"), -1.0, 1e300)
	f.Add([]byte{}, math.NaN(), math.Inf(1))
	f.Fuzz(func(t *testing.T, data []byte, x1, x2 float64) {
		fuzzWorldOnce.Do(func() { fuzzWorld, fuzzWorldErr = sim.Build(sim.SmallWorldParams(1)) })
		if fuzzWorldErr != nil {
			t.Fatal(fuzzWorldErr)
		}
		res := fuzzResults(fuzzWorld, data)
		s := new(Stats)
		k := StatsSink(s, fuzzWorld.Catalog)
		for _, o := range res.Observations {
			k.Emit(o)
		}
		for _, info := range res.Rounds {
			k.RoundDone(info)
		}
		checkStats(t, "fuzz", s, res, append(statThresholds(), x1, x2))
	})
}
