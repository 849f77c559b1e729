package main

// Example runs the voip example and pins its whole output: every number
// it prints is seeded.
func Example() {
	main()
	// Output:
	// call paths above the 320 ms VoIP bound:
	//   direct Internet :  15.7%  (paper: 19%)
	//   via best COR    :   6.9%  (paper: 11%)
	//
	// intercontinental pairs: 72% of the studied mesh (paper: 74%)
	//
	// facilities worth deploying call relays in (Table-1 ranking):
	//    1. NTT Brussels 2               Brussels     appears in   41% of improved cases
	//    2. Telx Amsterdam 5             Amsterdam    appears in   39% of improved cases
	//    3. Digital Realty Amsterdam 4   Amsterdam    appears in   37% of improved cases
	//    4. Equinix-LD8                  London       appears in   37% of improved cases
	//    5. Teraco Amsterdam 3           Amsterdam    appears in   36% of improved cases
	//    6. Interxion Brussels           Brussels     appears in   35% of improved cases
	//
	// placement rule of thumb: relays in a third country improve 80%
	// of calls vs 77% for relays sharing a country with a caller.
}
