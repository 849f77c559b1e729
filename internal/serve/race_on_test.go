//go:build race

package serve

// raceEnabled reports that the race detector is compiled in; its
// instrumentation adds heap allocations, so alloc-budget tests skip
// under it.
const raceEnabled = true
