//go:build race

package kdtree

// raceEnabled reports a race-detector build, whose instrumentation
// moves closures to the heap: allocation counts are not the code's.
const raceEnabled = true
