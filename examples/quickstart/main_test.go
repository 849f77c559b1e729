package main

// Example runs the quickstart example and pins its whole output: every number
// it prints is seeded.
func Example() {
	main()
	// Output:
	// COR pipeline kept 99 of 700 candidate colo IPs (44 facilities)
	//
	// campaign seed 1: 4630 endpoint pairs over 2 rounds (228354 pings)
	//   COR        improves  70.1% of pairs (median gain 21.6 ms)
	//   PLR        improves  26.2% of pairs (median gain 31.5 ms)
	//   RAR_other  improves  46.6% of pairs (median gain 19.6 ms)
	//   RAR_eye    improves  35.3% of pairs (median gain 32.7 ms)
	//
	// campaign seed 2: 4763 endpoint pairs over 2 rounds (231750 pings)
	//   COR        improves  70.3% of pairs (median gain 21.1 ms)
	//   PLR        improves  25.3% of pairs (median gain 30.1 ms)
	//   RAR_other  improves  50.7% of pairs (median gain 17.8 ms)
	//   RAR_eye    improves  35.5% of pairs (median gain 27.5 ms)
	//
	// campaign seed 3: 4491 endpoint pairs over 2 rounds (224640 pings)
	//   COR        improves  69.9% of pairs (median gain 24.0 ms)
	//   PLR        improves  22.9% of pairs (median gain 33.2 ms)
	//   RAR_other  improves  50.4% of pairs (median gain 18.0 ms)
	//   RAR_eye    improves  36.1% of pairs (median gain 30.5 ms)
	//
	// full summary (campaign seed 1):
	// type       improved %  paper %  median gain ms  >100ms % of improved  median #improving
	// ---------  ----------  -------  --------------  --------------------  -----------------
	// COR        70.1        76       21.6            13.0                  8
	// PLR        26.2        43       31.5            17.2                  3
	// RAR_other  46.6        58       19.6            13.7                  2
	// RAR_eye    35.3        35       32.7            17.9                  4
	//
	// pairs: 4630 over 2 rounds, 228354 pings, responsive 83% (paper ~84%)
	// relayed paths studied: 710216 (paper ~29M at full scale)
	// intercontinental pairs: 70% (paper 74%)
	// VoIP >320ms: direct 16% -> with COR 7% (paper 19% -> 11%)
	// COR country-change: different 69% vs same 77% improved (paper 75% vs 50%)
	// direction symmetry: 78% of pairs within 5% (paper ~80%)
	// stability: CV<10% for 0% of 0 recurring pairs (paper 90%)
	// 75% of COR coverage: 19 relays in 16 facilities (paper: 10 relays, 6 colos)
}
