package worlddata

import "sort"

// CountryNames maps ISO country codes used in the city registry to display
// names.
var CountryNames = map[string]string{
	"GB": "United Kingdom", "NL": "Netherlands", "DE": "Germany",
	"FR": "France", "BE": "Belgium", "ES": "Spain", "IT": "Italy",
	"AT": "Austria", "CH": "Switzerland", "SE": "Sweden", "NO": "Norway",
	"DK": "Denmark", "FI": "Finland", "PL": "Poland", "CZ": "Czechia",
	"HU": "Hungary", "RO": "Romania", "BG": "Bulgaria", "GR": "Greece",
	"PT": "Portugal", "IE": "Ireland", "UA": "Ukraine", "RU": "Russia",
	"TR": "Turkey", "SK": "Slovakia", "SI": "Slovenia", "HR": "Croatia",
	"RS": "Serbia", "LV": "Latvia", "LT": "Lithuania", "EE": "Estonia",
	"LU": "Luxembourg", "IS": "Iceland",
	"US": "United States", "CA": "Canada", "MX": "Mexico", "PA": "Panama",
	"CR": "Costa Rica",
	"BR": "Brazil", "AR": "Argentina", "CL": "Chile", "CO": "Colombia",
	"PE": "Peru", "UY": "Uruguay", "EC": "Ecuador",
	"JP": "Japan", "KR": "South Korea", "CN": "China", "HK": "Hong Kong",
	"TW": "Taiwan", "SG": "Singapore", "MY": "Malaysia", "TH": "Thailand",
	"ID": "Indonesia", "PH": "Philippines", "VN": "Vietnam", "IN": "India",
	"PK": "Pakistan", "BD": "Bangladesh", "LK": "Sri Lanka", "NP": "Nepal",
	"AE": "United Arab Emirates", "IL": "Israel", "SA": "Saudi Arabia",
	"QA": "Qatar", "KZ": "Kazakhstan",
	"AU": "Australia", "NZ": "New Zealand",
	"ZA": "South Africa", "KE": "Kenya", "NG": "Nigeria", "EG": "Egypt",
	"MA": "Morocco", "GH": "Ghana", "TN": "Tunisia",
}

// CountryCodes returns the sorted list of country codes that have at least
// one city in the registry.
func CountryCodes() []string {
	seen := make(map[string]bool)
	for _, c := range cities {
		seen[c.CC] = true
	}
	out := make([]string, 0, len(seen))
	for cc := range seen {
		out = append(out, cc)
	}
	sort.Strings(out)
	return out
}

// CountryContinent returns the continent of the given country code, based
// on the city registry, and whether the country is known.
func CountryContinent(cc string) (string, bool) {
	for _, c := range cities {
		if c.CC == cc {
			return c.Continent, true
		}
	}
	return "", false
}

// HubCities returns the cities with HubRank > 0, ordered by rank (densest
// hub first).
func HubCities() []City {
	var out []City
	for _, c := range cities {
		if c.HubRank > 0 {
			out = append(out, c)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].HubRank < out[j].HubRank })
	return out
}

// CityByName looks up a city by its display name.
func CityByName(name string) (City, bool) {
	for _, c := range cities {
		if c.Name == name {
			return c, true
		}
	}
	return City{}, false
}

// Continents lists the continent codes in a stable order.
func Continents() []string {
	return []string{Europe, NorthAmerica, SouthAmerica, Asia, Oceania, Africa}
}
