//go:build race

package ocr

// raceEnabled reports whether the test binary runs under the race
// detector, whose sync.Pool drops a random quarter of the values put
// into it, so a pool's steady-state allocation count means nothing
// there.
const raceEnabled = true
