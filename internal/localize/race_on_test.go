//go:build race

package localize

// raceEnabled reports whether the race detector is instrumenting this
// build; allocation-counting tests skip under it because the race
// runtime inflates allocation counts.
const raceEnabled = true
