package indoorloc_test

import (
	"path/filepath"
	"testing"

	"indoorloc"
	"indoorloc/internal/locmap"
	"indoorloc/internal/sim"
	"indoorloc/internal/trainingdb"
)

// TestFacadeTrainFromFiles drives the one-call file path: wi-scan
// directory + location map → trained service → localization — the
// exact workflow a downstream adopter starts with.
func TestFacadeTrainFromFiles(t *testing.T) {
	dir := t.TempDir()
	scen := sim.PaperHouse()
	env, err := scen.Environment()
	if err != nil {
		t.Fatal(err)
	}
	grid, err := scen.TrainingPoints()
	if err != nil {
		t.Fatal(err)
	}
	sc := sim.NewScanner(env, 31)
	coll := sc.CaptureCollection(grid, 20)
	scanDir := filepath.Join(dir, "scans")
	if err := coll.WriteDir(scanDir); err != nil {
		t.Fatal(err)
	}
	mapPath := filepath.Join(dir, "loc.map")
	if err := locmap.WriteFile(mapPath, grid); err != nil {
		t.Fatal(err)
	}

	svc, err := indoorloc.Train(scanDir, mapPath, "")
	if err != nil {
		t.Fatal(err)
	}
	if svc.NumLocations() != 30 {
		t.Errorf("trained %d locations", svc.NumLocations())
	}
	target := scen.TestPoints[2]
	res, err := svc.LocateRecords(sc.Capture(target, 15, 0))
	if err != nil {
		t.Fatal(err)
	}
	if res.Estimate.Pos.Dist(target) > 20 {
		t.Errorf("estimate %v vs truth %v", res.Estimate.Pos, target)
	}
	if res.NearestName == "" {
		t.Error("no symbolic name resolved")
	}

	// The zip path works identically.
	zipPath := filepath.Join(dir, "scans.zip")
	if err := coll.WriteZip(zipPath); err != nil {
		t.Fatal(err)
	}
	svc2, err := indoorloc.Train(zipPath, mapPath, indoorloc.AlgoNNSS)
	if err != nil {
		t.Fatal(err)
	}
	if svc2.Locator.Name() != "nnss" {
		t.Errorf("algorithm = %q", svc2.Locator.Name())
	}
}

func TestFacadeTrainErrors(t *testing.T) {
	if _, err := indoorloc.Train("/nonexistent", "/nope", ""); err == nil {
		t.Error("bad scan path accepted")
	}
	// Valid scans, bad map.
	dir := t.TempDir()
	scen := sim.PaperHouse()
	env, _ := scen.Environment()
	grid, _ := scen.TrainingPoints()
	coll := sim.NewScanner(env, 1).CaptureCollection(grid, 2)
	scanDir := filepath.Join(dir, "scans")
	if err := coll.WriteDir(scanDir); err != nil {
		t.Fatal(err)
	}
	if _, err := indoorloc.Train(scanDir, "/nope", ""); err == nil {
		t.Error("bad map path accepted")
	}
}

// TestEveryAlgorithmRoundTrips builds each registered algorithm over a
// file-round-tripped database and localizes one observation.
func TestEveryAlgorithmRoundTrips(t *testing.T) {
	dir := t.TempDir()
	scen := sim.PaperHouse()
	env, err := scen.Environment()
	if err != nil {
		t.Fatal(err)
	}
	grid, err := scen.TrainingPoints()
	if err != nil {
		t.Fatal(err)
	}
	sc := sim.NewScanner(env, 17)
	coll := sc.CaptureCollection(grid, 20)
	db, _, err := trainingdb.Generate(coll, grid, trainingdb.Options{})
	if err != nil {
		t.Fatal(err)
	}
	tdbPath := filepath.Join(dir, "train.tdb")
	if err := trainingdb.SaveFile(tdbPath, db); err != nil {
		t.Fatal(err)
	}
	loaded, err := indoorloc.LoadDatabase(tdbPath)
	if err != nil {
		t.Fatal(err)
	}

	target := scen.TestPoints[7]
	obs := indoorloc.ObservationFromRecords(sc.Capture(target, 15, 0))
	for _, algo := range indoorloc.Algorithms() {
		loc, err := indoorloc.BuildLocator(algo, loaded, indoorloc.BuildConfig{
			APPositions: scen.APPositions(),
		})
		if err != nil {
			t.Errorf("%s: build: %v", algo, err)
			continue
		}
		est, err := loc.Locate(obs)
		if err != nil {
			t.Errorf("%s: locate: %v", algo, err)
			continue
		}
		if !est.Pos.IsFinite() {
			t.Errorf("%s: non-finite estimate %v", algo, est.Pos)
			continue
		}
		// Every method should land inside (or near) the house. The
		// sector code (four house-wide APs → coarse) and least-squares
		// multilateration (amplifies radius bias, see EXPERIMENTS.md
		// R5.2) are intentionally loose, so only sanity bounds apply.
		bound := 60.0
		if algo == indoorloc.AlgoGeometricLS {
			bound = 200
		}
		if est.Pos.Dist(target) > bound {
			t.Errorf("%s: estimate %v wildly far from %v", algo, est.Pos, target)
		}
	}
}

// TestLoadDatabaseMissing covers the facade's error path.
func TestLoadDatabaseMissing(t *testing.T) {
	if _, err := indoorloc.LoadDatabase(filepath.Join(t.TempDir(), "x.tdb")); err == nil {
		t.Error("missing database accepted")
	}
}
