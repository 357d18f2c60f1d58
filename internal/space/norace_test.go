//go:build !race

package space

const raceEnabled = false
