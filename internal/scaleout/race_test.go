//go:build race

package scaleout_test

// raceEnabled reports a -race build, under which the oracle walk runs
// ~10× slower.
const raceEnabled = true
