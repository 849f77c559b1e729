package atlas

import (
	"testing"
	"time"

	"shortcuts/internal/datasets/apnic"
	"shortcuts/internal/rng"
	"shortcuts/internal/topology"
	"shortcuts/internal/worlddata"
)

var (
	cachedTopo *topology.Topology
	cachedPlat *Platform
)

func testPlatform(t *testing.T) (*topology.Topology, *Platform) {
	t.Helper()
	if cachedPlat != nil {
		return cachedTopo, cachedPlat
	}
	g := rng.New(1)
	ap := apnic.Generate(g.Split("apnic"), apnic.DefaultParams(worlddata.CountryCodes()))
	topo, err := topology.Generate(g, topology.DefaultParams(), ap)
	if err != nil {
		t.Fatal(err)
	}
	cachedTopo = topo
	cachedPlat = Generate(g, topo, DefaultParams())
	return topo, cachedPlat
}

func TestEligibleEyeballPopulationScale(t *testing.T) {
	topo, pl := testPlatform(t)
	// Paper: ~1190 eligible probes across 141 eyeball ASes at 82
	// countries. Same order of magnitude expected.
	eligible := 0
	ases := make(map[topology.ASN]bool)
	ccs := make(map[string]bool)
	for row := range int32(pl.Len()) {
		p := pl.Probe(row)
		if topo.AS(p.AS).Type != topology.Eyeball || !p.Eligible() {
			continue
		}
		eligible++
		ases[p.AS] = true
		ccs[p.CC] = true
	}
	if eligible < 700 || eligible > 1800 {
		t.Errorf("eligible eyeball probes = %d, want ~1190 (±50%%)", eligible)
	}
	if len(ases) < 100 {
		t.Errorf("eligible eyeball ASes = %d, want >= 100 (paper: 141)", len(ases))
	}
	if len(ccs) < 60 {
		t.Errorf("eligible eyeball countries = %d, want >= 60 (paper: 82)", len(ccs))
	}
}

func TestOtherNetworksHostProbes(t *testing.T) {
	topo, pl := testPlatform(t)
	other := 0
	for row := range int32(pl.Len()) {
		if topo.AS(pl.AS(row)).Type != topology.Eyeball {
			other++
		}
	}
	if other < 200 {
		t.Errorf("non-eyeball probes = %d, want >= 200 (RAR_other pool)", other)
	}
}

func TestEligibilityFilters(t *testing.T) {
	p := &Probe{Firmware: CurrentFirmware, Public: true, Connected: true, GeoTagged: true, StableDays: 30}
	if !p.Eligible() {
		t.Fatal("fully qualified probe not eligible")
	}
	for _, mutate := range []func(*Probe){
		func(q *Probe) { q.Firmware = CurrentFirmware - 10 },
		func(q *Probe) { q.Public = false },
		func(q *Probe) { q.Connected = false },
		func(q *Probe) { q.GeoTagged = false },
		func(q *Probe) { q.StableDays = 29 },
	} {
		q := *p
		mutate(&q)
		if q.Eligible() {
			t.Errorf("probe %+v should be ineligible", q)
		}
	}
}

func TestEyeballProbesHaveLastMile(t *testing.T) {
	topo, pl := testPlatform(t)
	for row := range int32(pl.Len()) {
		p := pl.Probe(row)
		if topo.AS(p.AS).Type == topology.Eyeball {
			if p.Access < 1*time.Millisecond || p.Access > 31*time.Millisecond {
				t.Fatalf("eyeball probe %d access = %v, want 1.5-30ms", p.ID, p.Access)
			}
			if p.Anchor {
				t.Fatalf("eyeball probe %d marked anchor", p.ID)
			}
		} else if p.Access > 2100*time.Microsecond {
			t.Fatalf("core-network probe %d access = %v, want <= ~2ms", p.ID, p.Access)
		}
	}
}

func TestProbeCitiesAreHostPoPs(t *testing.T) {
	topo, pl := testPlatform(t)
	for row := range int32(pl.Len()) {
		p := pl.Probe(row)
		if !topo.AS(p.AS).HasPoP(p.City) {
			t.Fatalf("probe %d in city %d where AS %d has no PoP", p.ID, p.City, p.AS)
		}
	}
}

// TestIndexesConsistent checks the eligible-row lists against the
// columns: every listed row is eligible and hosted in its (AS, country),
// each list ascends, and the lists of the topology's (AS, country)
// tuples together cover every eligible row exactly once.
func TestIndexesConsistent(t *testing.T) {
	topo, pl := testPlatform(t)
	listed := 0
	for _, a := range topo.ASes {
		rows := pl.EligibleIn(a.ASN, a.CC)
		for i, row := range rows {
			if !pl.Eligible(row) || pl.AS(row) != a.ASN || pl.CC(row) != a.CC {
				t.Fatalf("row %d indexed under %d/%s: %+v", row, a.ASN, a.CC, pl.Probe(row))
			}
			if i > 0 && rows[i-1] >= row {
				t.Fatalf("eligible rows of %d/%s not ascending: %v", a.ASN, a.CC, rows)
			}
		}
		listed += len(rows)
	}
	eligible := 0
	for row := range int32(pl.Len()) {
		if pl.Eligible(row) {
			eligible++
		}
	}
	if eligible == 0 || listed != eligible {
		t.Fatalf("eligible-row lists cover %d rows, fleet has %d eligible", listed, eligible)
	}
}

func TestEligibleIn(t *testing.T) {
	topo, pl := testPlatform(t)
	var eye *topology.AS
	for _, a := range topo.ASesOfType(topology.Eyeball) {
		if len(pl.EligibleIn(a.ASN, a.CC)) > 0 {
			eye = a
			break
		}
	}
	if eye == nil {
		t.Fatal("no eyeball AS with eligible probes")
	}
	for _, row := range pl.EligibleIn(eye.ASN, eye.CC) {
		if p := pl.Probe(row); !p.Eligible() || p.AS != eye.ASN || p.CC != eye.CC {
			t.Fatalf("EligibleIn returned bad probe %+v", p)
		}
	}
	if got := pl.EligibleIn(eye.ASN, "ZZ"); len(got) != 0 {
		t.Fatal("EligibleIn matched wrong country")
	}
}

func TestResponsiveDeterministicAndPartial(t *testing.T) {
	_, pl := testPlatform(t)
	probe := pl.ID(0)
	for round := 0; round < 10; round++ {
		if pl.Responsive(probe, round) != pl.Responsive(probe, round) {
			t.Fatal("Responsive not deterministic")
		}
	}
	// Across the fleet and many rounds, the offline rate should track
	// OfflineProb.
	offline, total := 0, 0
	for row := int32(0); row < int32(pl.Len()); row += 5 {
		for round := 0; round < 20; round++ {
			total++
			if !pl.Responsive(pl.ID(row), round) {
				offline++
			}
		}
	}
	rate := float64(offline) / float64(total)
	if rate < 0.04 || rate > 0.13 {
		t.Fatalf("offline rate = %.3f, want ~0.08", rate)
	}
}

func TestLedgerEnforcesBudget(t *testing.T) {
	l := NewLedger(100)
	if err := l.Spend(0, 60); err != nil {
		t.Fatal(err)
	}
	if err := l.Spend(0, 40); err != nil {
		t.Fatal(err)
	}
	err := l.Spend(0, 1)
	if err == nil {
		t.Fatal("over-budget spend accepted")
	}
	if _, ok := err.(*ErrBudget); !ok {
		t.Fatalf("error type = %T, want *ErrBudget", err)
	}
	// A failed spend must not charge.
	if got := l.SpentOn(0); got != 100 {
		t.Fatalf("SpentOn(0) = %d, want 100", got)
	}
	// Other days unaffected.
	if err := l.Spend(1, 100); err != nil {
		t.Fatal(err)
	}
	if got := l.TotalSpent(); got != 200 {
		t.Fatalf("TotalSpent = %d, want 200", got)
	}
}

func TestLedgerUnlimited(t *testing.T) {
	l := NewLedger(0)
	if err := l.Spend(0, 1<<40); err != nil {
		t.Fatal("unlimited ledger rejected spend")
	}
}

func TestGenerateDeterministic(t *testing.T) {
	topo, _ := testPlatform(t)
	a := Generate(rng.New(5), topo, DefaultParams())
	b := Generate(rng.New(5), topo, DefaultParams())
	if a.Len() != b.Len() {
		t.Fatal("fleet sizes differ")
	}
	for row := range int32(a.Len()) {
		if pa, pb := a.Probe(row), b.Probe(row); pa != pb {
			t.Fatalf("probe %d differs: %+v vs %+v", row, pa, pb)
		}
	}
}
