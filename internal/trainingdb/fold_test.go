package trainingdb

import (
	"math"
	"slices"
	"sort"
	"testing"

	"indoorloc/internal/geom"
	"indoorloc/internal/stats"
)

// TestAddSampleMatchesBatchStats checks that streaming samples one at
// a time through AddSample lands on the same moments Generate computes
// from the full list.
func TestAddSampleMatchesBatchStats(t *testing.T) {
	samples := []float64{-61, -63.5, -60, -71, -64, -64, -58.25, -66, -90, -62}
	s := &APStats{BSSID: "aa"}
	var r stats.Running
	for i, v := range samples {
		s.AddSample(v)
		r.Add(v)
		if s.N != i+1 {
			t.Fatalf("after %d adds: N=%d", i+1, s.N)
		}
		if math.Abs(s.Mean-r.Mean()) > 1e-9 {
			t.Errorf("after %d adds: mean %v want %v", i+1, s.Mean, r.Mean())
		}
		if math.Abs(s.StdDev-r.StdDev()) > 1e-9 {
			t.Errorf("after %d adds: stddev %v want %v", i+1, s.StdDev, r.StdDev())
		}
		if s.Min != r.Min() || s.Max != r.Max() {
			t.Errorf("after %d adds: min/max %v/%v want %v/%v", i+1, s.Min, s.Max, r.Min(), r.Max())
		}
	}
	if len(s.Samples) != len(samples) {
		t.Errorf("samples kept: %d want %d", len(s.Samples), len(samples))
	}
}

// TestAddSampleResumesStoredStats verifies Welford resumption from
// stats that were stored (σ round-tripped through the struct), the
// ingest case: a DB loaded from disk keeps folding where it left off.
func TestAddSampleResumesStoredStats(t *testing.T) {
	first := []float64{-60, -62, -64, -61}
	rest := []float64{-63, -59.5, -70}
	var r stats.Running
	r.AddAll(first)
	s := &APStats{BSSID: "aa", N: r.N(), Mean: r.Mean(), StdDev: r.StdDev(), Min: r.Min(), Max: r.Max()}
	for _, v := range rest {
		s.AddSample(v)
		r.Add(v)
	}
	if math.Abs(s.Mean-r.Mean()) > 1e-9 || math.Abs(s.StdDev-r.StdDev()) > 1e-9 {
		t.Errorf("resumed fold: mean/sd %v/%v want %v/%v", s.Mean, s.StdDev, r.Mean(), r.StdDev())
	}
}

func foldFixture() *DB {
	db := &DB{Entries: map[string]*Entry{
		"a": {Name: "a", Pos: geom.Point{X: 1, Y: 1}, PerAP: map[string]*APStats{
			"ap1": {BSSID: "ap1", N: 2, Mean: -60, StdDev: 1, Min: -61, Max: -59, Samples: []float64{-61, -59}},
		}},
	}, BSSIDs: []string{"ap1"}}
	return db
}

func TestFoldExistingEntry(t *testing.T) {
	db := foldFixture()
	gen := db.Generation()
	db.Fold("a", geom.Point{X: 9, Y: 9}, map[string]float64{"ap1": -63, "ap2": -80})
	if db.Generation() != gen+1 {
		t.Errorf("generation %d want %d", db.Generation(), gen+1)
	}
	e := db.Entries["a"]
	if e.Pos != (geom.Point{X: 1, Y: 1}) {
		t.Errorf("existing entry moved to %v", e.Pos)
	}
	if s := e.PerAP["ap1"]; s.N != 3 {
		t.Errorf("ap1 N=%d want 3", s.N)
	}
	if s := e.PerAP["ap2"]; s == nil || s.N != 1 || s.Mean != -80 {
		t.Errorf("ap2 stats %+v", e.PerAP["ap2"])
	}
	if want := []string{"ap1", "ap2"}; !equalStrings(db.BSSIDs, want) {
		t.Errorf("BSSIDs %v want %v", db.BSSIDs, want)
	}
}

func TestFoldNewEntryAndSortedUniverse(t *testing.T) {
	db := foldFixture()
	db.Fold("b", geom.Point{X: 5, Y: 5}, map[string]float64{"ap0": -70})
	if e := db.Entries["b"]; e == nil || e.Pos != (geom.Point{X: 5, Y: 5}) {
		t.Fatalf("new entry %+v", db.Entries["b"])
	}
	if !sort.StringsAreSorted(db.BSSIDs) {
		t.Errorf("BSSIDs not sorted: %v", db.BSSIDs)
	}
	if want := []string{"ap0", "ap1"}; !equalStrings(db.BSSIDs, want) {
		t.Errorf("BSSIDs %v want %v", db.BSSIDs, want)
	}
	// The sorted-name cache must include the new entry.
	if names := db.Names(); !equalStrings(names, []string{"a", "b"}) {
		t.Errorf("Names %v", names)
	}
}

// TestGenerationBumps pins the satellite contract: every mutator moves
// the counter.
func TestGenerationBumps(t *testing.T) {
	db := foldFixture()
	if db.Generation() != 0 {
		t.Fatalf("fresh DB at generation %d", db.Generation())
	}
	other := &DB{Entries: map[string]*Entry{
		"z": {Name: "z", PerAP: map[string]*APStats{"ap9": {BSSID: "ap9", N: 1, Mean: -50}}},
	}, BSSIDs: []string{"ap9"}}
	if err := db.Merge(other); err != nil {
		t.Fatal(err)
	}
	if db.Generation() != 1 {
		t.Errorf("after Merge: generation %d want 1", db.Generation())
	}
	db.PruneAPs(2)
	if db.Generation() != 2 {
		t.Errorf("after PruneAPs: generation %d want 2", db.Generation())
	}
	if !db.RemoveEntry("z") {
		t.Fatal("RemoveEntry failed")
	}
	if db.Generation() != 3 {
		t.Errorf("after RemoveEntry: generation %d want 3", db.Generation())
	}
	db.Fold("a", geom.Point{}, map[string]float64{"ap1": -60})
	if db.Generation() != 4 {
		t.Errorf("after Fold: generation %d want 4", db.Generation())
	}
}

// TestCompiledStaleAfterMutation is the regression test for the
// stale-compiled hazard: before generations, mutating the DB after a
// locator compiled its matrices was silently invisible. Now the view
// knows its generation and mutation-after-build is detectable.
func TestCompiledStaleAfterMutation(t *testing.T) {
	db := foldFixture()
	c := db.Compile(-95, 4)
	if c.Stale(db) {
		t.Fatal("fresh view already stale")
	}
	db.Fold("a", geom.Point{}, map[string]float64{"ap1": -59})
	if !c.Stale(db) {
		t.Error("Fold after Compile not detected as stale")
	}
	c2 := db.Compile(-95, 4)
	if c2.Stale(db) {
		t.Error("recompiled view reported stale")
	}
	if !db.RemoveEntry("a") {
		t.Fatal("RemoveEntry failed")
	}
	if !c2.Stale(db) {
		t.Error("RemoveEntry after Compile not detected as stale")
	}
}

func TestCloneIsDeep(t *testing.T) {
	db := foldFixture()
	orig := db.Entries["a"]
	cl := orig.Clone()
	cl.PerAP["ap1"].AddSample(-10)
	cl.PerAP["apX"] = &APStats{BSSID: "apX", N: 1}
	if orig.PerAP["ap1"].N != 2 || len(orig.PerAP["ap1"].Samples) != 2 {
		t.Errorf("clone mutation leaked into original: %+v", orig.PerAP["ap1"])
	}
	if _, ok := orig.PerAP["apX"]; ok {
		t.Error("clone map shared with original")
	}
}

// TestFoldIntoCloneLeavesOriginal folds into a clone whose sample
// slices have spare capacity and checks the original's samples — its
// whole backing array, spare slots included — and statistics stay
// bit-identical, so a frozen entry can share its history with the
// clone a fold is about to extend.
func TestFoldIntoCloneLeavesOriginal(t *testing.T) {
	db := foldFixture()
	for _, v := range []float64{-58.5, -62.25, -60} {
		db.Fold("a", geom.Point{}, map[string]float64{"ap1": v})
	}
	orig := db.Entries["a"].PerAP["ap1"]
	if cap(orig.Samples) == len(orig.Samples) {
		t.Fatal("fixture has no spare sample capacity; the test would prove nothing")
	}
	wantStats := *orig
	wantArray := bitsOf(orig.Samples[:cap(orig.Samples)])
	frozen := db.Entries["a"]
	db.Entries["a"] = frozen.Clone()
	db.Fold("a", geom.Point{}, map[string]float64{"ap1": -70.5, "ap2": -80})
	db.Fold("a", geom.Point{}, map[string]float64{"ap1": -55})

	got := frozen.PerAP["ap1"]
	if got.N != wantStats.N || math.Float64bits(got.Mean) != math.Float64bits(wantStats.Mean) ||
		math.Float64bits(got.StdDev) != math.Float64bits(wantStats.StdDev) ||
		got.Min != wantStats.Min || got.Max != wantStats.Max || len(got.Samples) != len(wantStats.Samples) {
		t.Errorf("original statistics moved: %+v, want %+v", *got, wantStats)
	}
	if a := bitsOf(got.Samples[:cap(got.Samples)]); !slices.Equal(a, wantArray) {
		t.Errorf("original sample array written: %v, want %v", a, wantArray)
	}
	if _, ok := frozen.PerAP["ap2"]; ok {
		t.Error("clone's new cell reached the original")
	}
	if s := db.Entries["a"].PerAP["ap1"]; s.N != wantStats.N+2 || len(s.Samples) != s.N {
		t.Errorf("clone folded to %+v", *s)
	}
}

func bitsOf(xs []float64) []uint64 {
	out := make([]uint64, len(xs))
	for i, x := range xs {
		out[i] = math.Float64bits(x)
	}
	return out
}

// TestSnapshotCopyOnWrite drives the compactor discipline end to end:
// snapshot, clone-before-mutate, fold, and check the published view
// never moves.
func TestSnapshotCopyOnWrite(t *testing.T) {
	db := foldFixture()
	snap := db.Snapshot()
	if snap.Generation() != db.Generation() {
		t.Errorf("snapshot generation %d want %d", snap.Generation(), db.Generation())
	}
	// COW: entry "a" is shared with the snapshot, so clone before fold.
	db.Entries["a"] = db.Entries["a"].Clone()
	db.Fold("a", geom.Point{}, map[string]float64{"ap1": -40, "apZ": -50})
	db.Fold("new", geom.Point{X: 2, Y: 2}, map[string]float64{"apZ": -55})

	if s := snap.Entries["a"].PerAP["ap1"]; s.N != 2 || s.Max != -59 {
		t.Errorf("snapshot entry mutated: %+v", s)
	}
	if _, ok := snap.Entries["new"]; ok {
		t.Error("snapshot gained a structural entry")
	}
	if !equalStrings(snap.BSSIDs, []string{"ap1"}) {
		t.Errorf("snapshot BSSIDs mutated: %v", snap.BSSIDs)
	}
	if snap.Generation() == db.Generation() {
		t.Error("master generation did not advance past snapshot")
	}
	// The snapshot still compiles and answers from the old world.
	c := snap.Compile(-95, 4)
	if got := len(c.Names); got != 1 {
		t.Errorf("snapshot compiled %d entries want 1", got)
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
