package core

import (
	"path/filepath"
	"reflect"
	"testing"

	"indoorloc/internal/localize"
	"indoorloc/internal/trainingdb"
)

// writeArtifact compiles the fixture database into a v2 artifact on
// disk.
func writeArtifact(t *testing.T, f *fixture) string {
	t.Helper()
	c := f.db.Compile(-95, 4)
	path := filepath.Join(t.TempDir(), "map.ilr")
	if err := trainingdb.WriteCompiledFile(path, c); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestServiceFromCompiledFile checks the service served from a
// compiled artifact against the DB-built locator for every
// compiled-servable algorithm: same entries, entry names resolve by
// default, and estimates are identical — the artifact carries the very
// records Compile builds.
func TestServiceFromCompiledFile(t *testing.T) {
	f := newFixture(t)
	path := writeArtifact(t, f)
	for _, algo := range []string{AlgoProbabilistic, AlgoNNSS, AlgoKNN, AlgoWKNN, AlgoSector} {
		t.Run(algo, func(t *testing.T) {
			in, err := New(WithCompiledFile(path), WithAlgorithm(algo))
			if err != nil {
				t.Fatal(err)
			}
			defer in.Close()
			svc := in.Service
			if svc.DB.Len() != f.db.Len() || svc.Names == nil || svc.Names.Len() != f.db.Len() {
				t.Fatalf("artifact source should carry every entry and default to entry names")
			}
			ref, err := buildLocator(algo, f.db, nil, BuildConfig{})
			if err != nil {
				t.Fatal(err)
			}
			for _, name := range []string{"grid-0-0", "grid-2-3", "grid-3-2", "grid-4-4"} {
				pos := f.db.Entries[name].Pos
				obs := localize.ObservationFromRecords(f.sc.Capture(pos, 8, 0))
				got, err := svc.Locate(obs)
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
				if got.NearestName == "" {
					t.Errorf("at %s: no resolved name", name)
				}
			}
		})
	}
}

// TestArtifactSnapshotGeneration pins that a service served from an
// artifact reports the artifact's generation, not zero: /healthz, the
// generation gauge and venue status all read it from the snapshot.
func TestArtifactSnapshotGeneration(t *testing.T) {
	f := newFixture(t)
	f.db.SetGeneration(57)
	in, err := New(WithCompiledFile(writeArtifact(t, f)))
	if err != nil {
		t.Fatal(err)
	}
	defer in.Close()
	if got := in.Registry.Current().Generation; got != 57 {
		t.Errorf("artifact-served snapshot is generation %d, want 57", got)
	}
}

// TestArtifactLocateAllocParity is the acceptance bar for the mmap
// path: serving from a memory-mapped artifact must not add a
// single hot-path allocation over the conventional in-memory locator.
func TestArtifactLocateAllocParity(t *testing.T) {
	f := newFixture(t)
	path := writeArtifact(t, f)
	in, err := New(WithCompiledFile(path), WithConfig(BuildConfig{TopK: 4}))
	if err != nil {
		t.Fatal(err)
	}
	defer in.Close()

	ref, err := buildLocator(AlgoProbabilistic, f.db, nil, BuildConfig{TopK: 4})
	if err != nil {
		t.Fatal(err)
	}
	obs := localize.ObservationFromRecords(f.sc.Capture(f.db.Entries["grid-2-2"].Pos, 8, 0))
	locate := func(loc localize.Locator) float64 {
		if _, err := loc.Locate(obs); err != nil { // warm pools and caches
			t.Fatal(err)
		}
		return testing.AllocsPerRun(200, func() {
			if _, err := loc.Locate(obs); err != nil {
				t.Fatal(err)
			}
		})
	}
	mmapAllocs := locate(in.Service.Locator)
	refAllocs := locate(ref)
	if mmapAllocs > refAllocs {
		t.Errorf("mmap-served Locate allocates %v/op, in-memory %v/op — the artifact path added allocations",
			mmapAllocs, refAllocs)
	}
}

func TestNewCompiledErrors(t *testing.T) {
	f := newFixture(t)
	c := f.db.Compile(-95, 4)
	for _, algo := range []string{AlgoHistogram, AlgoHybrid, AlgoGeometric, AlgoGeometricLS, "nope"} {
		if _, err := New(WithCompiled(c), WithAlgorithm(algo)); err == nil {
			t.Errorf("%s over a compiled view accepted", algo)
		}
	}
}

// TestBuildConfigQuantizeTopK pins that TopK reaches the built
// locator and that the warmed locator serves the posting-list view.
func TestBuildConfigQuantizeTopK(t *testing.T) {
	f := newFixture(t)
	loc, err := buildLocator(AlgoProbabilistic, f.db, nil, BuildConfig{TopK: 3})
	if err != nil {
		t.Fatal(err)
	}
	ml := loc.(*localize.MaxLikelihood)
	if ml.TopK != 3 {
		t.Fatalf("option lost: topk=%d", ml.TopK)
	}
	view := ml.CompiledView()
	if view == nil || len(view.Post) == 0 || len(view.PostStart) != view.NumAPs()+1 {
		t.Fatal("warmed locator has no posting lists")
	}
	obs := localize.ObservationFromRecords(f.sc.Capture(f.db.Entries["grid-1-1"].Pos, 8, 0))
	est, err := loc.Locate(obs)
	if err != nil {
		t.Fatal(err)
	}
	if len(est.Candidates) != 3 {
		t.Errorf("TopK=3 returned %d candidates", len(est.Candidates))
	}
}
