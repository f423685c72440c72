package core

import (
	"math"
	"strings"
	"testing"

	"indoorloc/internal/localize"
	"indoorloc/internal/locmap"
)

func TestNewSourceExclusivity(t *testing.T) {
	f := newFixture(t)
	path := writeArtifact(t, f)
	cases := []struct {
		name string
		opts []Option
	}{
		{"no source", nil},
		{"only algorithm", []Option{WithAlgorithm(AlgoKNN)}},
		{"db and file", []Option{WithDB(f.db), WithCompiledFile(path)}},
		{"db and compiled", []Option{WithDB(f.db), WithCompiled(f.db.Compile(-95, 4))}},
		{"service and db", []Option{WithService(&Service{DB: f.db}), WithDB(f.db)}},
	}
	for _, tc := range cases {
		in, err := New(tc.opts...)
		if err == nil || !strings.Contains(err.Error(), "exactly one source") {
			t.Errorf("%s: want the exclusivity error, got %v (instance %v)", tc.name, err, in)
		}
	}
}

func TestNewFromDB(t *testing.T) {
	f := newFixture(t)
	in, err := New(WithDB(f.db), WithAlgorithm(AlgoKNN), WithConfig(BuildConfig{K: 3}))
	if err != nil {
		t.Fatal(err)
	}
	if in.Service == nil || in.Service.Locator == nil || in.Service.DB != f.db {
		t.Fatal("instance not wired to the source DB")
	}
	if in.Service.Names != nil {
		t.Error("DB source should not derive names unless asked")
	}
	// The registry is a live static snapshot over the same service.
	if snap := in.Registry.Current(); snap == nil || snap.Service != in.Service {
		t.Error("registry does not snapshot the instance's service")
	}
	// Close on a DB-sourced instance pins nothing and must be a no-op.
	if err := in.Close(); err != nil {
		t.Errorf("close: %v", err)
	}

	// WithEntryNames derives a resolver from the training locations;
	// WithNames overrides it outright.
	in2, err := New(WithDB(f.db), WithEntryNames())
	if err != nil {
		t.Fatal(err)
	}
	if in2.Service.Names == nil || in2.Service.Names.Len() != f.db.Len() {
		t.Fatal("WithEntryNames did not derive the resolver")
	}
	lm := locmap.New()
	in3, err := New(WithDB(f.db), WithNames(lm))
	if err != nil {
		t.Fatal(err)
	}
	if in3.Service.Names != lm {
		t.Error("WithNames did not take precedence")
	}
}

// TestNewCompiledFileParity checks New(WithCompiledFile) with no
// algorithm option: it serves the default probabilistic locator, entry
// names resolve by default, and estimates agree with the DB-built
// reference to within the quantization tolerance.
func TestNewCompiledFileParity(t *testing.T) {
	f := newFixture(t)
	path := writeArtifact(t, f)
	in, err := New(WithCompiledFile(path))
	if err != nil {
		t.Fatal(err)
	}
	defer in.Close()
	if in.Service.Names == nil || in.Service.Names.Len() != f.db.Len() {
		t.Fatal("artifact source should default to entry names")
	}
	ref, err := buildLocator(AlgoProbabilistic, f.db, BuildConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"grid-0-0", "grid-3-2"} {
		pos := f.db.Entries[name].Pos
		obs := localize.ObservationFromRecords(f.sc.Capture(pos, 8, 0))
		got, err := in.Service.Locate(obs)
		if err != nil {
			t.Fatal(err)
		}
		want, err := ref.Locate(obs)
		if err != nil {
			t.Fatal(err)
		}
		if d := math.Hypot(got.Estimate.Pos.X-want.Pos.X, got.Estimate.Pos.Y-want.Pos.Y); d > 8 {
			t.Errorf("at %s: artifact answered %v, db answered %v (%.1f ft apart)",
				name, got.Estimate.Pos, want.Pos, d)
		}
	}
}

// TestNewCloseIdempotent is the regression test for the close-func
// leak: Close releases the artifact mapping exactly once, and every
// later call returns the first call's result without re-closing.
func TestNewCloseIdempotent(t *testing.T) {
	f := newFixture(t)
	in, err := New(WithCompiledFile(writeArtifact(t, f)))
	if err != nil {
		t.Fatal(err)
	}
	if err := in.Close(); err != nil {
		t.Fatalf("first close: %v", err)
	}
	for i := 0; i < 3; i++ {
		if err := in.Close(); err != nil {
			t.Fatalf("close %d not idempotent: %v", i+2, err)
		}
	}
}

func TestNewCompiledFileErrors(t *testing.T) {
	f := newFixture(t)
	if _, err := New(WithCompiledFile("/nonexistent/map.ilr")); err == nil {
		t.Error("missing artifact accepted")
	}
	// A bad algorithm over a real artifact must fail — and release the
	// mapping on the way out (the error path joins closeMap).
	path := writeArtifact(t, f)
	if _, err := New(WithCompiledFile(path), WithAlgorithm("nope")); err == nil {
		t.Error("unknown algorithm over an artifact accepted")
	}
	if _, err := New(WithCompiledFile(path), WithAlgorithm(AlgoGeometric)); err == nil {
		t.Error("non-compilable algorithm over an artifact accepted")
	}
}

func TestNewWithService(t *testing.T) {
	f := newFixture(t)
	loc, err := buildLocator(AlgoProbabilistic, f.db, BuildConfig{})
	if err != nil {
		t.Fatal(err)
	}
	svc := &Service{DB: f.db, Locator: loc}
	in, err := New(WithService(svc))
	if err != nil {
		t.Fatal(err)
	}
	if in.Service != svc {
		t.Error("WithService must adopt the service unchanged")
	}
	if in.Registry.Current().Service != svc {
		t.Error("registry does not serve the adopted service")
	}
	if err := in.Close(); err != nil {
		t.Errorf("close: %v", err)
	}
}
