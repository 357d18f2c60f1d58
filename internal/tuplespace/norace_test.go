//go:build !race

package tuplespace

// raceEnabled reports a build with the race detector, which allocates on
// its own: the memo's allocation pin skips then.
const raceEnabled = false
