//go:build race

package ingest

// raceEnabled reports whether the race detector is instrumenting this
// build; alloc-accounting tests use it to skip assertions the race
// runtime's own allocations would make flaky.
const raceEnabled = true
