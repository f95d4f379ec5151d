//go:build !race

package store

// raceEnabled reports whether the test binary runs under the race
// detector, where sync.Pool drops items at random and allocation counts
// mean nothing.
const raceEnabled = false
