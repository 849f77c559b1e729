package latency

import (
	"testing"
	"time"

	"shortcuts/internal/bgp"
	"shortcuts/internal/datasets/apnic"
	"shortcuts/internal/rng"
	"shortcuts/internal/topology"
	"shortcuts/internal/worlddata"
)

var (
	benchEng  *Engine
	benchA    Endpoint
	benchB    Endpoint
	benchTime = time.Date(2017, 4, 20, 12, 0, 0, 0, time.UTC)
)

func benchEngine(b *testing.B) (*Engine, Endpoint, Endpoint) {
	b.Helper()
	if benchEng == nil {
		g := rng.New(1)
		ds := apnic.Generate(g.Split("apnic"), apnic.DefaultParams(worlddata.CountryCodes()))
		topo, err := topology.Generate(g, topology.SmallParams(), ds)
		if err != nil {
			b.Fatal(err)
		}
		benchEng = New(bgp.New(topo), DefaultParams(), g)
		eyes := topo.ASesOfType(topology.Eyeball)
		benchA = Endpoint{AS: eyes[0].ASN, City: eyes[0].HomeCity(), Access: 6 * time.Millisecond}
		benchB = Endpoint{AS: eyes[len(eyes)-1].ASN, City: eyes[len(eyes)-1].HomeCity(), Access: 8 * time.Millisecond}
	}
	return benchEng, benchA, benchB
}

// BenchmarkPingHotPath times one simulated ping against a warmed path
// cache — a single-pair resolve and a one-slot train, the campaign's
// innermost operation (millions per campaign). ns/op and allocs/op here
// bound the whole campaign.
func BenchmarkPingHotPath(b *testing.B) {
	e, x, y := benchEngine(b)
	v := e.View(nil)
	sched := e.Schedule(benchTime, 0, 1)
	out := make([]PingSample, 1)
	pingTrain(b, v, x, y, 0, sched, out)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pingTrain(b, v, x, y, i, sched, out)
	}
}
