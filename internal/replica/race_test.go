//go:build race

package replica_test

const raceEnabled = true
