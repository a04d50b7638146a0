//go:build race

package core

// raceEnabled reports a race-detector build, whose sync.Pool drops a
// share of what is put back on purpose: allocation counts of pooled
// paths are not the code's.
const raceEnabled = true
