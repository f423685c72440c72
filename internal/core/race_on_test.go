//go:build race

package core

// raceEnabled reports whether the race detector is instrumenting this
// build; allocation-counting tests skip under it because the race
// runtime inflates allocation counts.
const raceEnabled = true
