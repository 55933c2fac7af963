//go:build race

package synth

// raceEnabled reports whether the test binary runs under the race
// detector, which slows generation several-fold and unevenly across
// goroutines, so wall-clock comparisons mean nothing there.
const raceEnabled = true
