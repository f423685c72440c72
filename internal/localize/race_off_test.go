//go:build !race

package localize

const raceEnabled = false
