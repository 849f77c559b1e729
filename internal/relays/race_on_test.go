//go:build race

package relays_test

// raceEnabled reports that the race detector is compiled in; its
// instrumentation adds heap allocations, so alloc-budget tests skip
// under it.
const raceEnabled = true
