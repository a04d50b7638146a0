//go:build !race

package semtree

const raceEnabled = false
