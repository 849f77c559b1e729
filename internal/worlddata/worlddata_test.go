package worlddata

import (
	"testing"

	"shortcuts/internal/geo"
)

func TestCitiesValidCoordinates(t *testing.T) {
	for _, c := range Cities() {
		if !c.Loc.Valid() {
			t.Errorf("%s: invalid coordinate %v", c.Name, c.Loc)
		}
		if c.Loc.IsZero() {
			t.Errorf("%s: zero coordinate", c.Name)
		}
	}
}

func TestCitiesUniqueNames(t *testing.T) {
	seen := make(map[string]bool)
	for _, c := range Cities() {
		if seen[c.Name] {
			t.Errorf("duplicate city name %q", c.Name)
		}
		seen[c.Name] = true
	}
}

func TestCitiesKnownCountries(t *testing.T) {
	us := 0
	for _, c := range Cities() {
		if _, ok := CountryNames[c.CC]; !ok {
			t.Errorf("%s: country code %q missing from CountryNames", c.Name, c.CC)
		}
		if c.CC == "US" {
			us++
		}
	}
	if us < 5 {
		t.Errorf("US has %d cities, want >= 5 (fragmented eyeball market)", us)
	}
}

func TestCountryCount(t *testing.T) {
	// The world should offer enough country diversity for ~80 endpoint
	// countries, per the paper's 82-country campaign.
	n := len(CountryCodes())
	if n < 65 {
		t.Fatalf("only %d countries in registry; need >= 65 for endpoint diversity", n)
	}
}

func TestHubRanksAreUniqueAndDense(t *testing.T) {
	hubs := HubCities()
	if len(hubs) < 25 {
		t.Fatalf("only %d hub cities; facility generation expects >= 25", len(hubs))
	}
	seen := make(map[int]string)
	for _, h := range hubs {
		if prev, dup := seen[h.HubRank]; dup {
			t.Errorf("hub rank %d duplicated by %s and %s", h.HubRank, prev, h.Name)
		}
		seen[h.HubRank] = h.Name
	}
	// Ranks must be dense 1..N so the generator can treat rank as priority.
	for r := 1; r <= len(hubs); r++ {
		if _, ok := seen[r]; !ok {
			t.Errorf("hub rank %d missing (ranks must be dense)", r)
		}
	}
	if hubs[0].Name != "London" {
		t.Errorf("top hub = %s, want London (paper Table 1)", hubs[0].Name)
	}
}

func TestContinentsCovered(t *testing.T) {
	byCont := make(map[string]int)
	for _, c := range Cities() {
		byCont[c.Continent]++
	}
	for _, cont := range Continents() {
		if byCont[cont] == 0 {
			t.Errorf("continent %s has no cities", cont)
		}
	}
	if byCont[Europe] < 25 {
		t.Errorf("Europe has %d cities; campaign needs dense European coverage", byCont[Europe])
	}
}

func TestCountryContinent(t *testing.T) {
	cont, ok := CountryContinent("JP")
	if !ok || cont != Asia {
		t.Fatalf("CountryContinent(JP) = %q, %v", cont, ok)
	}
	if _, ok := CountryContinent("ZZ"); ok {
		t.Fatal("CountryContinent(ZZ) reported known")
	}
}

func TestCityByName(t *testing.T) {
	c, ok := CityByName("Amsterdam")
	if !ok || c.CC != "NL" {
		t.Fatalf("CityByName(Amsterdam) = %+v, %v", c, ok)
	}
	if _, ok := CityByName("Atlantis"); ok {
		t.Fatal("CityByName(Atlantis) found a city")
	}
}

func TestTable1FacilitiesMatchPaper(t *testing.T) {
	fs := Table1Facilities()
	if len(fs) != 10 {
		t.Fatalf("Table1Facilities returned %d entries, want 10", len(fs))
	}
	if fs[0].Name != "Telehouse North" || fs[0].NetCount != 361 || fs[0].IXPCount != 6 {
		t.Fatalf("rank-1 facility = %+v, want Telehouse North (361 nets, 6 IXPs)", fs[0])
	}
	top10 := 0
	for _, f := range fs {
		if _, ok := CityByName(f.CityName); !ok {
			t.Errorf("facility %s references unknown city %s", f.Name, f.CityName)
		}
		if !f.Cloud {
			t.Errorf("facility %s not cloud-colocated; all Table-1 facilities offer cloud", f.Name)
		}
		if f.PDBTop10 {
			top10++
		}
		if f.NetCount < 22 {
			t.Errorf("facility %s has %d nets; paper's minimum is 22", f.Name, f.NetCount)
		}
		if f.IXPCount < 2 {
			t.Errorf("facility %s has %d IXPs; paper says all are colocated with >= 2", f.Name, f.IXPCount)
		}
	}
	if top10 != 4 {
		t.Errorf("%d facilities flagged PDB top-10, want 4 (paper Table 1)", top10)
	}
}

func TestTable1CitiesAreHubs(t *testing.T) {
	for _, f := range Table1Facilities() {
		c, ok := CityByName(f.CityName)
		if !ok {
			t.Fatalf("unknown city %s", f.CityName)
		}
		if !c.IsHub() {
			t.Errorf("Table-1 city %s is not marked as a hub", f.CityName)
		}
	}
}

func TestLandingPointsResolve(t *testing.T) {
	for _, lp := range LandingPoints() {
		if _, ok := CityByName(lp.CityName); !ok {
			t.Errorf("landing point %s references unknown city %s", lp.Name, lp.CityName)
		}
	}
}

func TestHubDistancesSane(t *testing.T) {
	lon, _ := CityByName("London")
	ams, _ := CityByName("Amsterdam")
	d := geo.Distance(lon.Loc, ams.Loc)
	if d < 300 || d > 400 {
		t.Fatalf("London-Amsterdam distance = %.0f km, want ~357", d)
	}
}
