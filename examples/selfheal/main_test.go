package main

// Example runs the selfheal example and pins its whole output: every number
// it prints is seeded.
func Example() {
	main()
	// Output:
	// == self-healing campaign: calm world ==
	// no disruptions detected, 0 relay-rounds excluded
	//
	// == self-healing campaign: hub outage, rounds 5..11 ==
	// round  7: 8 relays excluded by the healer
	// round  8: 7 relays excluded by the healer
	// round 10: 6 relays excluded by the healer
	// round 11: 7 relays excluded by the healer
	// event #0: rtt-spike at London (GB, NEXTDC London 5) — onset 5, confirmed 6 (lag 1), closed round 12
	//   59 corridors affected, severity 1.75x, 5 dark
	//
}
