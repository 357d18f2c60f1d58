//go:build race

package tuplespace

// raceEnabled: see norace_test.go.
const raceEnabled = true
