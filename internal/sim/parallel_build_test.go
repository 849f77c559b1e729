package sim

import (
	"reflect"
	"testing"
)

// TestShardedBuildWorkerInvariance is the parallel-build determinism
// proof: a ShardedDeployment world built sequentially (Workers 1) and
// one built on a wide worker pool must be bit-identical — same probes
// in the same registry order with the same attributes, same atlas
// columns, same relay catalog. The sharded fleet generator guarantees this by
// deriving every AS's draws from a per-AS value stream (indexed, not
// scheduled) and assigning probe IDs by prefix sum, so this test failing
// means a draw leaked onto a schedule-dependent path.
func TestShardedBuildWorkerInvariance(t *testing.T) {
	build := func(workers int) *World {
		t.Helper()
		p := SmallWorldParams(29)
		p.Atlas.ShardedDeployment = true
		w, err := BuildWith(p, BuildOptions{Workers: workers, WarmRoutes: false})
		if err != nil {
			t.Fatal(err)
		}
		return w
	}
	seq := build(1)
	par := build(8)

	a, b := seq.Atlas, par.Atlas
	if a.Len() != b.Len() {
		t.Fatalf("probe counts differ: %d vs %d", a.Len(), b.Len())
	}
	for row := range int32(a.Len()) {
		if pa, pb := a.Probe(row), b.Probe(row); pa != pb {
			t.Fatalf("probe %d differs:\nseq %+v\npar %+v", row, pa, pb)
		}
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("atlas columns differ between worker counts")
	}
	if seq.Catalog.Len() != par.Catalog.Len() {
		t.Fatalf("relay counts differ: %d vs %d", seq.Catalog.Len(), par.Catalog.Len())
	}
	for i := range seq.Catalog.Len() {
		if rs, rp := seq.Catalog.Relay(i), par.Catalog.Relay(i); rs != rp {
			t.Fatalf("relay %d differs between worker counts:\nseq %+v\npar %+v", i, rs, rp)
		}
	}
}

// TestShardedDeploymentIsOptIn pins the gate: default (paper-scale)
// worlds keep the sequential fleet generator whose draw sequence the
// golden digests pin, and only ScaleWorldParams opts into sharding.
func TestShardedDeploymentIsOptIn(t *testing.T) {
	if SmallWorldParams(1).Atlas.ShardedDeployment {
		t.Fatal("SmallWorldParams must keep the sequential (golden-pinned) fleet generator")
	}
	if DefaultWorldParams(1).Atlas.ShardedDeployment {
		t.Fatal("DefaultWorldParams must keep the sequential (golden-pinned) fleet generator")
	}
	if !ScaleWorldParams(1, 100_000).Atlas.ShardedDeployment {
		t.Fatal("ScaleWorldParams must opt into the sharded fleet generator")
	}
}
