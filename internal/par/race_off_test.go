//go:build !race

package par

// raceEnabled reports that the race detector is compiled in; its
// instrumentation adds heap allocations, so exact alloc-budget tests
// loosen or skip under it.
const raceEnabled = false
