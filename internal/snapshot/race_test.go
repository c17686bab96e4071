//go:build race

package snapshot

// raceEnabled reports a build under the race detector.
const raceEnabled = true
