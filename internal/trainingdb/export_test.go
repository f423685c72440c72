package trainingdb

// Test-only hooks for the external trainingdb_test package, whose
// tests score decoded views through internal/localize (which imports
// this package, so they cannot live inside it).
var (
	FuzzSeeds      = fuzzSeeds
	RandomCompiled = randomCompiled
	LegacyPostings = legacyPostings
)

// StripPostings returns a copy of the artifact without its post-start
// and postings sections, as an encoder from before posting lists wrote
// it.
func StripPostings(buf []byte) []byte { return stripSections(buf, secPostStart, secPostings) }
