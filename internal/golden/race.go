//go:build race

package golden

// raceEnabled reports a -race build, whose CPU times no budget covers.
const raceEnabled = true
