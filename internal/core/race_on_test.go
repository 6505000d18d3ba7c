//go:build race

package core

// raceEnabled reports a -race build, where sync.Pool drops a random
// share of Puts, so a pooled path's allocation count is not pinned.
const raceEnabled = true
