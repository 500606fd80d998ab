//go:build !race

package golden

// RaceEnabled reports a -race build, whose CPU times no budget covers
// and whose instrumentation adds allocations no allocation count allows.
const RaceEnabled = false
