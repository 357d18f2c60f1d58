//go:build !race

package enc

const raceEnabled = false
