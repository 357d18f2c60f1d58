//go:build race

package replica

// RaceEnabled: see norace_test.go.
const RaceEnabled = true
