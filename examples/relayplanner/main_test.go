package main

// Example runs the relayplanner example and pins its whole output: every number
// it prints is seeded.
func Example() {
	main()
	// Output:
	// coverage (% of all pairs improved) vs relays deployed:
	//
	//   relays         COR         PLR   RAR_other     RAR_eye
	//        1       29.3%        8.1%       22.6%        6.7%
	//        2       38.8%       12.7%       27.9%       10.6%
	//        5       47.2%       20.0%       35.5%       15.5%
	//       10       55.3%       24.3%       42.6%       18.0%
	//       20       59.4%       26.4%       48.3%       21.3%
	//       50       67.4%       30.2%       53.4%       26.8%
	//      100       74.5%       31.7%       56.6%       29.9%
	//
	// 75% of COR's total coverage needs 20 relays in 18 facilities
	// (paper: 10 relays in 6 large colos)
	//
	// deployment plan for a budget of 10 colo relays:
	// expected coverage: 55.3% of all pairs
	//    1. NTT Brussels 2                 Brussels     (67 nets, 2 IXPs on site)
	//    2. Telx Amsterdam 5               Amsterdam    (98 nets, 1 IXPs on site)
	//    3. Digital Realty Amsterdam 4     Amsterdam    (35 nets, 3 IXPs on site)
	//    4. Equinix-LD8                    London       (208 nets, 4 IXPs on site)
	//    5. Interxion Brussels             Brussels     (58 nets, 3 IXPs on site)
	//    6. CyrusOne Budapest 1            Budapest     (107 nets, 2 IXPs on site)
	//    7. DataBank Vienna 2              Vienna       (19 nets, 3 IXPs on site)
	//    8. Digital Realty Milan 1         Milan        (32 nets, 1 IXPs on site)
	//    9. e-shelter Prague 1             Prague       (34 nets, 3 IXPs on site)
	//   10. Global Switch Bucharest 1      Bucharest    (18 nets, 2 IXPs on site)
	//
	// COR coverage across measurement schedules (same world):
	//   campaign seed 1:  79.0% of pairs improved
	//   campaign seed 2:  78.9% of pairs improved
	//   campaign seed 3:  79.6% of pairs improved
}
