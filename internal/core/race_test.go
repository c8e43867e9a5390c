//go:build race

package core

// raceEnabled reports whether the tests run under the race detector,
// which changes what a load allocates.
const raceEnabled = true
