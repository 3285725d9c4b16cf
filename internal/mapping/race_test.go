//go:build race

package mapping

// raceEnabled reports whether the tests run under the race detector.
const raceEnabled = true
