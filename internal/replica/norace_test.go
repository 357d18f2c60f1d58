//go:build !race

package replica

// RaceEnabled reports a build with the race detector, which allocates on
// its own: the allocation tests, inside the package and out, skip then.
const RaceEnabled = false
