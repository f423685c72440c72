package core

import (
	"bytes"
	"errors"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"indoorloc/internal/geom"
	"indoorloc/internal/localize"
	"indoorloc/internal/locmap"
	"indoorloc/internal/trainingdb"
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
	if in.Service == nil || in.Service.Locator == nil || in.Service.NumLocations() != f.db.Len() || in.Service.Generation() != f.db.Generation() {
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
	lm.Add("the one name", geom.Pt(0, 0))
	in3, err := New(WithDB(f.db), WithNames(lm), WithEntryNames())
	if err != nil {
		t.Fatal(err)
	}
	if name, _, _ := in3.Service.Names.Nearest(geom.Pt(40, 40)); in3.Service.Names.Len() != 1 || name != "the one name" {
		t.Error("WithNames did not take precedence")
	}
}

// TestNewCompiledFileParity checks New(WithCompiledFile) with no
// algorithm option: it serves the default probabilistic locator, entry
// names resolve by default, and estimates are identical to the
// DB-built reference's.
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
	ref, _, err := buildLocator(AlgoProbabilistic, f.db, nil, BuildConfig{})
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
		if !reflect.DeepEqual(got.Estimate, want) {
			t.Errorf("at %s: artifact answered %q %v, db answered %q %v",
				name, got.Estimate.Name, got.Estimate.Pos, want.Name, want.Pos)
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
	// Artifacts in a retired layout are refused by name.
	retired, _ := filepath.Glob(filepath.Join("..", "trainingdb", "testdata", "legacy", "*.ilr"))
	if len(retired) != 4 {
		t.Fatalf("%d retired artifacts, want 4", len(retired))
	}
	for _, path := range retired {
		if _, err := New(WithCompiledFile(path)); !errors.Is(err, trainingdb.ErrRetiredArtifact) {
			t.Errorf("%s: %v, want ErrRetiredArtifact", path, err)
		}
	}
}

// TestServicePatch checks Service.Patch for every algorithm, the
// geometric family included: after a fold into one entry, the patched
// service answers exactly as a fresh New over the folded database,
// carries the name index over, and declines services with no recipe
// and structural changes.
func TestServicePatch(t *testing.T) {
	f := newFixture(t)
	cfg := BuildConfig{APPositions: f.scen.APPositions(), TopK: 3}
	var obs []localize.Observation
	for _, p := range []geom.Point{geom.Pt(5, 5), geom.Pt(22, 14), geom.Pt(40, 30)} {
		obs = append(obs, localize.ObservationFromRecords(f.sc.Capture(p, 3, 0)))
	}
	name := f.db.Names()[0]
	var bssid string
	for b := range f.db.Entries[name].PerAP {
		bssid = b
		break
	}
	for _, algo := range Algorithms() {
		base := f.db.Snapshot()
		in, err := New(WithDB(base), WithAlgorithm(algo), WithConfig(cfg), WithEntryNames())
		if err != nil {
			t.Fatal(err)
		}
		db := base.Snapshot()
		db.Entries[name] = db.Entries[name].Clone()
		db.Fold(name, geom.Point{}, map[string]float64{bssid: -41.5})
		touched := map[string]struct{}{name: {}}
		got, err := in.Service.Patch(db, touched)
		if err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		if got == nil {
			t.Fatalf("%s: patch declined a fold-only change", algo)
		}
		if got.Names != in.Service.Names || got.Generation() != db.Generation() {
			t.Errorf("%s: patched service not wired to the folded database and the old names", algo)
		}
		want, err := New(WithDB(db), WithAlgorithm(algo), WithConfig(cfg), WithEntryNames())
		if err != nil {
			t.Fatal(err)
		}
		for i, o := range obs {
			a, errA := got.Locate(o)
			b, errB := want.Service.Locate(o)
			if !reflect.DeepEqual(a, b) || (errA == nil) != (errB == nil) {
				t.Errorf("%s obs %d: patched %+v (%v), full %+v (%v)", algo, i, a, errA, b, errB)
			}
		}
		// A structural change (a new AP) falls back.
		db.Fold(name, geom.Point{}, map[string]float64{"fe:ed:00:00:00:01": -70})
		if again, _ := got.Patch(db, touched); again != nil {
			t.Errorf("%s: patched over a new BSSID", algo)
		}
	}
	// A compiled-source service records its recipe too and patches like
	// a database-source one.
	in, err := New(WithCompiled(f.db.Compile(FloorRSSI, FloorSigma)), WithEntryNames())
	if err != nil {
		t.Fatal(err)
	}
	db := f.db.Snapshot()
	db.Entries[name] = db.Entries[name].Clone()
	db.Fold(name, geom.Point{}, map[string]float64{bssid: -41.5})
	got, err := in.Service.Patch(db, map[string]struct{}{name: {}})
	if err != nil || got == nil {
		t.Fatalf("compiled-source service not patched: %v", err)
	}
	if got.Names != in.Service.Names {
		t.Error("patched compiled-source service lost its names")
	}
	gotBytes, err := trainingdb.EncodeCompiled(got.View())
	if err != nil {
		t.Fatal(err)
	}
	wantBytes, err := trainingdb.EncodeCompiled(db.Compile(FloorRSSI, FloorSigma))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotBytes, wantBytes) {
		t.Error("patched compiled-source view differs from a fresh compile")
	}
	// A service built outside New records no recipe.
	if got, _ := (&Service{Locator: in.Service.Locator}).Patch(db, nil); got != nil {
		t.Error("patched a service New did not build")
	}
}
