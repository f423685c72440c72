package track

import (
	"fmt"
	"math"
	"testing"

	"indoorloc/internal/filter"
	"indoorloc/internal/geom"
	"indoorloc/internal/localize"
	"indoorloc/internal/sim"
	"indoorloc/internal/trainingdb"
	"indoorloc/internal/wiscan"
)

type houseFixture struct {
	scen sim.Scenario
	sc   *sim.Scanner
	ml   localize.Locator
}

func newHouse(t *testing.T) *houseFixture {
	t.Helper()
	scen := sim.PaperHouse()
	env, err := scen.Environment()
	if err != nil {
		t.Fatal(err)
	}
	grid, err := scen.TrainingPoints()
	if err != nil {
		t.Fatal(err)
	}
	sc := sim.NewScanner(env, 23)
	coll := sc.CaptureCollection(grid, 20)
	db, _, err := trainingdb.Generate(coll, grid, trainingdb.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return &houseFixture{scen: scen, sc: sc, ml: localize.NewMaxLikelihood(db.Compile(-95, 4))}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(nil, nil); err == nil {
		t.Error("nil locator accepted")
	}
	f := newHouse(t)
	tr, err := New(f.ml, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := tr.Filter.(filter.Raw); !ok {
		t.Error("nil filter not defaulted to Raw")
	}
}

func TestStepAndReset(t *testing.T) {
	f := newHouse(t)
	tr, err := New(f.ml, &filter.EWMA{Alpha: 0.4})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Started() {
		t.Error("fresh tracker started")
	}
	target := geom.Pt(25, 20)
	p, err := tr.Step(f.sc.Capture(target, 5, 0))
	if err != nil {
		t.Fatal(err)
	}
	if !tr.Started() {
		t.Error("tracker not started after Step")
	}
	if p.Dist(target) > 20 {
		t.Errorf("first step %v far from %v", p, target)
	}
	if tr.LastRaw.Pos == (geom.Point{}) {
		t.Error("LastRaw not recorded")
	}
	tr.Reset()
	if tr.Started() || tr.LastRaw.Pos != (geom.Point{}) {
		t.Error("Reset incomplete")
	}
}

func TestStepErrors(t *testing.T) {
	f := newHouse(t)
	tr, _ := New(f.ml, nil)
	if _, err := tr.Step(nil); err != localize.ErrEmptyObservation {
		t.Errorf("empty: %v", err)
	}
	// A window of unknown APs fails without corrupting state.
	bad := []wiscan.Record{{TimeMillis: 1, BSSID: "gh:os:t", RSSI: -50}}
	if _, err := tr.Step(bad); err == nil {
		t.Error("ghost window accepted")
	}
	if tr.Started() {
		t.Error("failed step marked tracker started")
	}
}

func TestPathSmoothsWalk(t *testing.T) {
	f := newHouse(t)

	// Build one continuous capture log for a straight walk: 1 second
	// per scan, 4 scans per 2-ft step.
	var log []wiscan.Record
	var truth []geom.Point
	base := int64(0)
	for step := 0; step < 20; step++ {
		p := geom.Pt(5+float64(step)*2, 20)
		for s := 0; s < 4; s++ {
			for _, r := range f.sc.Capture(p, 1, base) {
				log = append(log, r)
			}
			base += 1000
		}
		truth = append(truth, p)
	}

	rawTr, _ := New(f.ml, nil)
	rawPath := rawTr.Path(log, 4000, 0)
	kalTr, _ := New(f.ml, &filter.Kalman{Dt: 1, ProcessNoise: 0.8, MeasurementNoise: 6})
	kalPath := kalTr.Path(log, 4000, 0)

	if len(rawPath) != len(truth) || len(kalPath) != len(truth) {
		t.Fatalf("paths %d/%d, want %d", len(rawPath), len(kalPath), len(truth))
	}
	rmse := func(est []geom.Point) float64 {
		s := 0.0
		for i := range est {
			d := est[i].Dist(truth[i])
			s += d * d
		}
		return math.Sqrt(s / float64(len(est)))
	}
	rawErr, kalErr := rmse(rawPath), rmse(kalPath)
	if kalErr >= rawErr {
		t.Errorf("kalman rmse %.2f not below raw %.2f", kalErr, rawErr)
	}
}

func TestPathSkipsBadWindows(t *testing.T) {
	f := newHouse(t)
	tr, _ := New(f.ml, nil)
	// Interleave good scans with a window of ghost-AP records.
	var log []wiscan.Record
	log = append(log, f.sc.Capture(geom.Pt(10, 10), 3, 0)...)
	for i := 0; i < 3; i++ {
		log = append(log, wiscan.Record{
			TimeMillis: int64(5000 + i*1000), BSSID: fmt.Sprintf("gh:os:t%d", i), RSSI: -50,
		})
	}
	log = append(log, f.sc.Capture(geom.Pt(12, 10), 3, 10_000)...)
	// Windows of 3 s: [0,3k) good, [3k,6k) and [6k,9k) pure ghost,
	// [9k,12k) and [12k,15k) good → 3 positions, 2 windows skipped.
	path := tr.Path(log, 3000, 0)
	if len(path) != 3 {
		t.Errorf("%d positions, want 3 (ghost windows skipped)", len(path))
	}
}
