package main

import (
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
