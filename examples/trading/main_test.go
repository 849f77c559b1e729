package main

// Example runs the trading example and pins its whole output: every number
// it prints is seeded.
func Example() {
	main()
	// Output:
	// corridor GB <-> JP: 6 observations
	//
	// * round  1: direct   214.5 ms, best relayed   198.9 ms via cor-10.3.6.163 (COR, NL)
	// * round  3: direct   191.7 ms, best relayed   176.4 ms via cor-10.1.75.94 (COR, GB)
	// * round  2: direct   198.2 ms, best relayed   188.5 ms via cor-10.3.61.18 (COR, NL)
	// * round  4: direct   190.6 ms, best relayed   181.9 ms via rar-other-1044 (RAR_other, DK)
	// * round  0: direct   194.1 ms, best relayed   187.9 ms via cor-10.3.61.18 (COR, NL)
	// * round  5: direct   186.7 ms, best relayed   181.1 ms via cor-10.16.98.224 (COR, NL)
	//
	// winning relay sites (rounds improved):
	//   Telx Amsterdam 5                         2
	//   Equinix-AM7                              1
	//   Nikhef                                   1
	//   Teraco London 5                          1
	//   rar-other-1044                           1
	//
	// best seen shortcut saves 15.6 ms — at $4M/ms of competitive edge,
	// that is the paper's opening argument in one corridor.
}
