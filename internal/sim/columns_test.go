package sim

import (
	"reflect"
	"testing"

	"shortcuts/internal/atlas"
)

// TestColumnsMirrorProbes proves the atlas columns hand back what
// generation drew, for both fleet generators: row r holds probe ID
// 1000+r, Probe(row) and every column accessor agree field for field,
// each probe sits in a PoP city of its AS under that AS's country, and
// IDs outside the fleet resolve to no row. The round loop reads the
// accessors, so this is what keeps its observations equal to the probes.
func TestColumnsMirrorProbes(t *testing.T) {
	for _, sharded := range []bool{false, true} {
		p := SmallWorldParams(17)
		p.Atlas.ShardedDeployment = sharded
		w, err := BuildWith(p, BuildOptions{WarmRoutes: false})
		if err != nil {
			t.Fatal(err)
		}
		pl := w.Atlas
		if pl.Len() == 0 {
			t.Fatalf("sharded=%v: empty fleet", sharded)
		}
		eligible := 0
		for row := range int32(pl.Len()) {
			pr := pl.Probe(row)
			if pr.ID != atlas.ProbeID(1000+row) || pl.ID(row) != pr.ID || pl.Row(pr.ID) != row {
				t.Fatalf("sharded=%v: row %d holds probe %d", sharded, row, pr.ID)
			}
			if pl.AS(row) != pr.AS || pl.City(row) != pr.City || pl.CC(row) != pr.CC {
				t.Fatalf("sharded=%v: probe %d: accessors diverge from %+v", sharded, pr.ID, pr)
			}
			if pl.Endpoint(row) != pr.Endpoint() {
				t.Fatalf("sharded=%v: probe %d: endpoint %+v != %+v", sharded, pr.ID, pl.Endpoint(row), pr.Endpoint())
			}
			if pl.Eligible(row) != pr.Eligible() {
				t.Fatalf("sharded=%v: probe %d: eligible %v, probe says %v", sharded, pr.ID, pl.Eligible(row), pr.Eligible())
			}
			if pr.Eligible() {
				eligible++
			}
			as := w.Topo.AS(pr.AS)
			if as == nil || as.CC != pr.CC || !as.HasPoP(pr.City) {
				t.Fatalf("sharded=%v: probe %d not placed in its AS: %+v", sharded, pr.ID, pr)
			}
			if pr.Access <= 0 || pr.StableDays < 0 || pr.StableDays > 30 || pr.Firmware > atlas.CurrentFirmware {
				t.Fatalf("sharded=%v: probe %d has undrawn attributes: %+v", sharded, pr.ID, pr)
			}
		}
		if eligible == 0 {
			t.Fatalf("sharded=%v: no eligible rows", sharded)
		}
		// IDs outside the fleet resolve to no row, on both sides.
		if pl.Row(999) != -1 || pl.Row(atlas.ProbeID(1000+pl.Len())) != -1 || pl.Row(atlas.ProbeID(1<<30)) != -1 {
			t.Fatalf("sharded=%v: absent probe IDs must map to row -1", sharded)
		}
	}
}

// TestColumnsBuildDeterministic: two builds of the same seed, whatever
// the worker count did to stage ordering and fleet sharding, must hold
// identical atlas columns, eligible-row lists and coin seeds.
func TestColumnsBuildDeterministic(t *testing.T) {
	for _, sharded := range []bool{false, true} {
		p := SmallWorldParams(23)
		p.Atlas.ShardedDeployment = sharded
		w1, err := BuildWith(p, BuildOptions{Workers: 1, WarmRoutes: false})
		if err != nil {
			t.Fatal(err)
		}
		w2, err := BuildWith(p, BuildOptions{Workers: 8, WarmRoutes: false})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(w1.Atlas, w2.Atlas) {
			t.Fatalf("sharded=%v: atlas columns differ between sequential and parallel builds of one seed", sharded)
		}
	}
}

// TestScaleWorldParams checks the endpoint-scale knob: tiny targets keep
// the paper fleet, larger targets grow only the per-AS eyeball base, and
// the growth is monotone in the target.
func TestScaleWorldParams(t *testing.T) {
	def := DefaultWorldParams(1)
	small := ScaleWorldParams(1, 100)
	if small.Atlas.EyeballBaseProbes != def.Atlas.EyeballBaseProbes {
		t.Fatalf("tiny target moved the probe base: %d != %d",
			small.Atlas.EyeballBaseProbes, def.Atlas.EyeballBaseProbes)
	}
	k100 := ScaleWorldParams(1, 100_000)
	m1 := ScaleWorldParams(1, 1_000_000)
	if k100.Atlas.EyeballBaseProbes <= def.Atlas.EyeballBaseProbes {
		t.Fatalf("100k target did not grow the fleet (base %d)", k100.Atlas.EyeballBaseProbes)
	}
	if m1.Atlas.EyeballBaseProbes <= k100.Atlas.EyeballBaseProbes {
		t.Fatalf("scaling is not monotone: 1M base %d <= 100k base %d",
			m1.Atlas.EyeballBaseProbes, k100.Atlas.EyeballBaseProbes)
	}
	// Everything but the Atlas fleet keeps paper dimensions.
	m1.Atlas = def.Atlas
	if !reflect.DeepEqual(m1, def) {
		t.Fatal("ScaleWorldParams changed more than the Atlas fleet")
	}
}
