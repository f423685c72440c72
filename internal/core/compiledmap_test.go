package core

import (
	"math"
	"path/filepath"
	"testing"

	"indoorloc/internal/localize"
	"indoorloc/internal/trainingdb"
)

// writeArtifact compiles the fixture database into a quantized v2
// artifact on disk.
func writeArtifact(t *testing.T, f *fixture) string {
	t.Helper()
	c := f.db.Compile(-95, 4)
	c.Quantize()
	c.ReleaseFloat64()
	path := filepath.Join(t.TempDir(), "map.ilr")
	if err := trainingdb.WriteCompiledFile(path, c); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestServiceFromCompiledFile checks the service served from a
// compiled artifact against the DB-built locator for every
// compiled-servable algorithm: same entries, entry names resolve by
// default, and estimates agree to within the quantization tolerance.
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
			ref, err := buildLocator(algo, f.db, BuildConfig{})
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
				// Quantization can flip near-ties, so bound the positional
				// disagreement instead of demanding identity: within one
				// grid cell of the float64 answer.
				if d := math.Hypot(got.Estimate.Pos.X-want.Pos.X, got.Estimate.Pos.Y-want.Pos.Y); d > 8 {
					t.Errorf("at %s: artifact answered %v, db answered %v (%.1f ft apart)",
						name, got.Estimate.Pos, want.Pos, d)
				}
				if got.NearestName == "" {
					t.Errorf("at %s: no resolved name", name)
				}
			}
		})
	}
}

// TestArtifactLocateAllocParity is the acceptance bar for the mmap
// path: serving from a memory-mapped quantized artifact must not add a
// single hot-path allocation over the conventional in-memory locator.
func TestArtifactLocateAllocParity(t *testing.T) {
	f := newFixture(t)
	path := writeArtifact(t, f)
	in, err := New(WithCompiledFile(path), WithConfig(BuildConfig{TopK: 4}))
	if err != nil {
		t.Fatal(err)
	}
	defer in.Close()

	ref, err := buildLocator(AlgoProbabilistic, f.db, BuildConfig{Quantize: true, TopK: 4})
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

func TestBuildConfigQuantizeTopK(t *testing.T) {
	f := newFixture(t)
	loc, err := buildLocator(AlgoProbabilistic, f.db, BuildConfig{Quantize: true, TopK: 3})
	if err != nil {
		t.Fatal(err)
	}
	ml := loc.(*localize.MaxLikelihood)
	if !ml.Quantize || ml.TopK != 3 {
		t.Fatalf("options lost: quantize=%v topk=%d", ml.Quantize, ml.TopK)
	}
	view := ml.CompiledView()
	if view == nil || view.Quant == nil {
		t.Fatal("warmed quantized locator has no quantized view")
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
