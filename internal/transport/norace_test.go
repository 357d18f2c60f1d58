//go:build !race

package transport

// raceEnabled reports a build with the race detector, which allocates on
// its own: allocation pins skip then.
const raceEnabled = false
