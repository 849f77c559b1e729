package main

import (
	"reflect"
	"strings"
	"testing"

	"shortcuts"
)

// TestValidateFlags checks the CLI's pre-build gate: -parallel here,
// every other flag through Config.Validate (whose rules
// shortcuts.TestConfigValidate covers), with errors naming the Config
// field the flag sets.
func TestValidateFlags(t *testing.T) {
	cases := []struct {
		name                                string
		rounds, parallel, pairBudget, scale int
		small                               bool
		wantErr                             string // substring; "" = valid
	}{
		{"defaults", 45, 1, 0, 0, false, ""},
		{"sampled sweep", 8, 4, 5000, 0, false, ""},
		{"scale with budget", 4, 1, 4096, 100_000, false, ""},
		{"zero rounds", 0, 1, 0, 0, false, "Rounds"},
		{"negative rounds", -3, 1, 0, 0, false, "Rounds"},
		{"zero parallel", 45, 0, 0, 0, false, "-parallel"},
		{"negative pair budget", 45, 1, -1, 0, false, "PairBudget"},
		{"negative scale", 45, 1, 0, -1, false, "ScaleEndpoints"},
		{"scale conflicts with small", 4, 1, 4096, 100_000, true, "SmallWorld"},
		{"scale without budget", 4, 1, 0, 100_000, false, "requires PairBudget"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := shortcuts.Config{Rounds: tc.rounds, PairBudget: tc.pairBudget,
				ScaleEndpoints: tc.scale, SmallWorld: tc.small}
			err := validateFlags(cfg, tc.parallel)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("want error mentioning %q, got nil", tc.wantErr)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not mention %q", err, tc.wantErr)
			}
		})
	}
}

// TestParseSeeds checks the -seeds list is parsed with the other flag
// checks, before any world is built: a bad entry rejects the list and
// is named in the error, and an empty list means no sweep.
func TestParseSeeds(t *testing.T) {
	cases := []struct {
		list    string
		want    []int64
		wantErr string // substring; "" = valid
	}{
		{"", nil, ""},
		{" 3, 4 ", []int64{3, 4}, ""},
		{"1,x", nil, `entry "x"`},
		{"1,,2", nil, `entry ""`},
	}
	for _, tc := range cases {
		t.Run(tc.list, func(t *testing.T) {
			got, err := parseSeeds(tc.list)
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("parseSeeds(%q) error %v, want one naming %s", tc.list, err, tc.wantErr)
				}
				if got != nil {
					t.Fatalf("parseSeeds(%q) = %v alongside its error, want nil", tc.list, got)
				}
				return
			}
			if err != nil {
				t.Fatalf("parseSeeds(%q): %v", tc.list, err)
			}
			if !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("parseSeeds(%q) = %v, want %v", tc.list, got, tc.want)
			}
		})
	}
}
