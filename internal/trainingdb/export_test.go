package trainingdb

// Test-only hooks for the external trainingdb_test package, whose
// tests score decoded views through internal/localize (which imports
// this package, so they cannot live inside it).
var (
	FuzzSeeds        = fuzzSeeds
	RandomCompiled   = randomCompiled
	RetiredArtifacts = retiredArtifacts
)
