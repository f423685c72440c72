package core

import (
	"fmt"
	"path/filepath"
	"reflect"
	"testing"

	"indoorloc/internal/geom"
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
			if svc.NumLocations() != f.db.Len() || svc.Names == nil || svc.Names.Len() != f.db.Len() {
				t.Fatalf("artifact source should carry every entry and default to entry names")
			}
			ref, _, err := buildLocator(algo, f.db, nil, BuildConfig{})
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

	ref, _, err := buildLocator(AlgoProbabilistic, f.db, nil, BuildConfig{TopK: 4})
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
	loc, view, err := buildLocator(AlgoProbabilistic, f.db, nil, BuildConfig{TopK: 3})
	if err != nil {
		t.Fatal(err)
	}
	ml := loc.(*localize.MaxLikelihood)
	if ml.TopK != 3 {
		t.Fatalf("option lost: topk=%d", ml.TopK)
	}
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

// gridArtifact writes a synthetic cols×rows lattice venue as a v2
// artifact: entries 5 ft apart, each hearing the 4 nearest of 16 APs.
// The AP universe is fixed, so only the entry count varies between
// sizes.
func gridArtifact(t *testing.T, cols, rows int) string {
	t.Helper()
	const aps, heard = 16, 4
	db := &trainingdb.DB{Entries: make(map[string]*trainingdb.Entry, cols*rows)}
	for a := 0; a < aps; a++ {
		db.BSSIDs = append(db.BSSIDs, fmt.Sprintf("02:00:00:00:00:%02x", a))
	}
	for i := 0; i < cols; i++ {
		for j := 0; j < rows; j++ {
			name := fmt.Sprintf("grid-%d-%d", i, j)
			e := &trainingdb.Entry{Name: name, Pos: geom.Pt(float64(i)*5, float64(j)*5),
				PerAP: make(map[string]*trainingdb.APStats, heard)}
			first := (i*aps/cols + j*aps/rows) % (aps - heard + 1)
			for a := first; a < first+heard; a++ {
				e.PerAP[db.BSSIDs[a]] = &trainingdb.APStats{BSSID: db.BSSIDs[a], N: 10,
					Mean: -40 - float64((i+j+a)%40), StdDev: 3}
			}
			db.Entries[name] = e
		}
	}
	path := filepath.Join(t.TempDir(), fmt.Sprintf("grid-%dx%d.ilr", cols, rows))
	if err := trainingdb.WriteCompiledFile(path, db.Compile(-95, 4)); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestArtifactLoadAllocsIndependentOfEntries pins the cold load of an
// artifact venue: opening it and building the service with entry
// names allocates the same count at 19,881 entries (the campus) as at
// 30 (the house), up to a small constant. Names and positions are
// served from the mapped view through one grid; nothing is built per
// entry.
func TestArtifactLoadAllocsIndependentOfEntries(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime inflates allocation counts")
	}
	// slack covers size-dependent growth that is not per entry: the
	// grid's two arrays and the scorer's scratch stay one allocation
	// each, but a map or slice header may differ by a few.
	const slack = 8
	load := func(path string) float64 {
		return testing.AllocsPerRun(5, func() {
			in, err := New(WithCompiledFile(path), WithEntryNames())
			if err != nil {
				t.Fatal(err)
			}
			if in.Service.Names.Len() == 0 {
				t.Fatal("no entry names")
			}
			in.Close()
		})
	}
	house, campus := load(gridArtifact(t, 6, 5)), load(gridArtifact(t, 141, 141))
	t.Logf("allocations per load: 30 entries %.0f, 19881 entries %.0f", house, campus)
	if campus > house+slack {
		t.Errorf("loading 19,881 entries allocates %.0f, 30 entries %.0f: more than %d apart, so the load builds per-entry state",
			campus, house, slack)
	}
}
