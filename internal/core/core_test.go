package core

import (
	"bytes"
	"strings"
	"testing"

	"indoorloc/internal/geom"

	"indoorloc/internal/localize"
	"indoorloc/internal/locmap"
	"indoorloc/internal/sim"
	"indoorloc/internal/trainingdb"
	"indoorloc/internal/wiscan"
)

// fixture builds the paper-house training artefacts once per test.
type fixture struct {
	scen sim.Scenario
	coll *wiscan.Collection
	lm   *locmap.Map
	db   *trainingdb.DB
	sc   *sim.Scanner
}

func newFixture(t *testing.T) *fixture {
	t.Helper()
	scen := sim.PaperHouse()
	env, err := scen.Environment()
	if err != nil {
		t.Fatal(err)
	}
	lm, err := scen.TrainingPoints()
	if err != nil {
		t.Fatal(err)
	}
	sc := sim.NewScanner(env, 5)
	coll := sc.CaptureCollection(lm, 15)
	db, _, err := trainingdb.Generate(coll, lm, trainingdb.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return &fixture{scen: scen, coll: coll, lm: lm, db: db, sc: sc}
}

func TestAlgorithmsListMatchesRegistry(t *testing.T) {
	f := newFixture(t)
	for _, name := range Algorithms() {
		loc, _, err := buildLocator(name, f.db, nil, BuildConfig{APPositions: f.scen.APPositions()})
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if loc == nil {
			t.Errorf("%s: nil locator", name)
		}
	}
}

func TestBuildLocatorErrors(t *testing.T) {
	f := newFixture(t)
	if _, _, err := buildLocator("nope", f.db, nil, BuildConfig{}); err == nil {
		t.Error("unknown algorithm accepted")
	}
	if _, _, err := buildLocator(AlgoProbabilistic, nil, nil, BuildConfig{}); err == nil {
		t.Error("nil DB accepted")
	}
	if _, _, err := buildLocator(AlgoGeometric, f.db, nil, BuildConfig{}); err == nil {
		t.Error("geometric without AP positions accepted")
	}
}

func TestBuildLocatorKindsAndOptions(t *testing.T) {
	f := newFixture(t)
	nn, _, _ := buildLocator(AlgoNNSS, f.db, nil, BuildConfig{})
	if nn.Name() != "nnss" {
		t.Errorf("nnss built %q", nn.Name())
	}
	knn, _, _ := buildLocator(AlgoKNN, f.db, nil, BuildConfig{K: 5})
	if k, ok := knn.(*localize.KNN); !ok || k.K != 5 {
		t.Errorf("knn K option lost: %#v", knn)
	}
	w, _, _ := buildLocator(AlgoWKNN, f.db, nil, BuildConfig{})
	if k, ok := w.(*localize.KNN); !ok || !k.Weighted {
		t.Error("wknn not weighted")
	}
	ls, _, _ := buildLocator(AlgoGeometricLS, f.db, nil, BuildConfig{APPositions: f.scen.APPositions()})
	if g, ok := ls.(*localize.Geometric); !ok || g.Combine != localize.CombineLeastSquares {
		t.Error("geometric-ls combiner wrong")
	}
	ml, view, _ := buildLocator(AlgoProbabilistic, f.db, nil, BuildConfig{})
	if _, ok := ml.(*localize.MaxLikelihood); !ok || view.FloorRSSI != FloorRSSI || view.FloorSigma != FloorSigma {
		t.Error("database build not compiled at the floor constants")
	}
}

// TestBuildCompilesOneView pins that a build's view does not depend on
// the algorithm: every algorithm, the geometric family included, is
// built over exactly db.Compile(FloorRSSI, FloorSigma), so a trainer's
// artifact and its replication stream are the same whichever algorithm
// it runs.
func TestBuildCompilesOneView(t *testing.T) {
	f := newFixture(t)
	want, err := trainingdb.EncodeCompiled(f.db.Compile(FloorRSSI, FloorSigma))
	if err != nil {
		t.Fatal(err)
	}
	cfg := BuildConfig{APPositions: f.scen.APPositions()}
	for _, name := range Algorithms() {
		_, view, err := buildLocator(name, f.db, nil, cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got, err := trainingdb.EncodeCompiled(view)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s serves a view that differs from Compile(FloorRSSI, FloorSigma)", name)
		}
	}
}

// TestEveryAlgorithmRejectsEmptyDB pins the one empty-database check:
// no algorithm builds over a database without entries.
func TestEveryAlgorithmRejectsEmptyDB(t *testing.T) {
	f := newFixture(t)
	empty := &trainingdb.DB{Entries: map[string]*trainingdb.Entry{}}
	for _, name := range Algorithms() {
		if _, err := New(WithDB(empty), WithAlgorithm(name),
			WithConfig(BuildConfig{APPositions: f.scen.APPositions()})); err == nil {
			t.Errorf("%s built over an empty database", name)
		}
	}
}

func TestPipelineTrainAndLocate(t *testing.T) {
	f := newFixture(t)
	pl := &Pipeline{
		Collection:  f.coll,
		LocMap:      f.lm,
		Algorithm:   AlgoProbabilistic,
		APPositions: f.scen.APPositions(),
	}
	svc, trace, err := pl.Train()
	if err != nil {
		t.Fatal(err)
	}
	if len(trace) != 6 {
		t.Fatalf("trace has %d steps: %v", len(trace), trace)
	}
	for i, prefix := range []string{"step 1", "step 2", "step 3", "step 4", "step 5", "step 6"} {
		if !strings.HasPrefix(trace[i], prefix) {
			t.Errorf("trace[%d] = %q", i, trace[i])
		}
	}
	if svc.NumLocations() != 30 {
		t.Errorf("service has %d locations", svc.NumLocations())
	}
	// Phase 2 against a training point.
	target, _ := f.lm.Lookup(sim.TrainingName(2, 2))
	recs := f.sc.Capture(target, 10, 0)
	res, err := svc.LocateRecords(recs)
	if err != nil {
		t.Fatal(err)
	}
	if res.Estimate.Pos.Dist(target) > 15 {
		t.Errorf("estimate %v far from %v", res.Estimate.Pos, target)
	}
	if res.NearestName == "" {
		t.Error("no symbolic resolution")
	}
}

func TestPipelineWithPlan(t *testing.T) {
	f := newFixture(t)
	plan, err := f.scen.Plan()
	if err != nil {
		t.Fatal(err)
	}
	pl := &Pipeline{Plan: plan, Collection: f.coll, SkipUnmapped: true}
	svc, trace, err := pl.Train()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(trace[0], "floor plan") {
		t.Errorf("trace[0] = %q", trace[0])
	}
	if svc.Names == nil || svc.Names.Len() == 0 {
		t.Error("plan's location names not adopted")
	}
	// Plan-derived training positions are quantised to pixels; the DB
	// should still hold one entry per grid point.
	if svc.NumLocations() != 30 {
		t.Errorf("service has %d locations", svc.NumLocations())
	}
}

func TestPipelineErrors(t *testing.T) {
	f := newFixture(t)
	if _, _, err := (&Pipeline{Collection: f.coll}).Train(); err == nil {
		t.Error("missing location map accepted")
	}
	if _, _, err := (&Pipeline{LocMap: f.lm}).Train(); err == nil {
		t.Error("missing collection accepted")
	}
	if _, _, err := (&Pipeline{
		Collection: f.coll, LocMap: f.lm, Algorithm: "bogus",
	}).Train(); err == nil {
		t.Error("bogus algorithm accepted")
	}
	// Unmapped locations fail by default, pass with SkipUnmapped.
	partial := locmap.New()
	p0, ok := f.lm.Lookup(sim.TrainingName(0, 0))
	if !ok {
		t.Fatal("grid-0-0 missing")
	}
	partial.Add(sim.TrainingName(0, 0), p0)
	if _, _, err := (&Pipeline{Collection: f.coll, LocMap: partial}).Train(); err == nil {
		t.Error("unmapped locations accepted in strict mode")
	}
	svc, _, err := (&Pipeline{Collection: f.coll, LocMap: partial, SkipUnmapped: true}).Train()
	if err != nil {
		t.Fatal(err)
	}
	if svc.NumLocations() != 1 {
		t.Errorf("partial service has %d locations", svc.NumLocations())
	}
}

// TestPipelineRecordsRecipe checks that a pipeline-trained service
// records the algorithm and build knobs it was trained with, so Patch
// carries it across a fold like any service New built.
func TestPipelineRecordsRecipe(t *testing.T) {
	f := newFixture(t)
	svc, _, err := (&Pipeline{Collection: f.coll, LocMap: f.lm, Algorithm: AlgoKNN}).Train()
	if err != nil {
		t.Fatal(err)
	}
	if svc.algo != AlgoKNN {
		t.Errorf("pipeline service records algorithm %q, want %q", svc.algo, AlgoKNN)
	}
	// The pipeline generated its database from the fixture's inputs, so
	// a fold into the fixture's database is a later state of it.
	db := f.db.Snapshot()
	name := db.Names()[0]
	var bssid string
	for b := range db.Entries[name].PerAP {
		bssid = b
		break
	}
	db.Entries[name] = db.Entries[name].Clone()
	db.Fold(name, geom.Point{}, map[string]float64{bssid: -41.5})
	got, err := svc.Patch(db, map[string]struct{}{name: {}})
	if err != nil || got == nil {
		t.Fatalf("pipeline-trained service not patched (%v)", err)
	}
	if got.Names != svc.Names {
		t.Error("patched pipeline service lost its names")
	}
}

func TestServiceLocateRecordsEmpty(t *testing.T) {
	f := newFixture(t)
	svc, _, err := (&Pipeline{Collection: f.coll, LocMap: f.lm}).Train()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.LocateRecords(nil); err != localize.ErrEmptyObservation {
		t.Errorf("empty records: %v", err)
	}
}

func TestServiceRoomResolution(t *testing.T) {
	f := newFixture(t)
	plan, err := f.scen.Plan()
	if err != nil {
		t.Fatal(err)
	}
	// Two rooms split by the scenario's interior walls: west of x=25
	// and the south-east quadrant.
	if err := plan.AddRoom("west wing", geom.Polygon{
		geom.Pt(0, 0), geom.Pt(25, 0), geom.Pt(25, 40), geom.Pt(0, 40),
	}); err != nil {
		t.Fatal(err)
	}
	if err := plan.AddRoom("se room", geom.Polygon{
		geom.Pt(25, 0), geom.Pt(50, 0), geom.Pt(50, 25), geom.Pt(25, 25),
	}); err != nil {
		t.Fatal(err)
	}
	svc, _, err := (&Pipeline{Plan: plan, Collection: f.coll, LocMap: f.lm}).Train()
	if err != nil {
		t.Fatal(err)
	}
	if len(svc.Rooms) != 2 {
		t.Fatalf("service has %d rooms", len(svc.Rooms))
	}
	// A training point deep in the west wing resolves to it.
	target, _ := f.lm.Lookup(sim.TrainingName(1, 2)) // (10, 20)
	res, err := svc.LocateRecords(f.sc.Capture(target, 20, 0))
	if err != nil {
		t.Fatal(err)
	}
	if res.Room != "west wing" && res.Room != "se room" && res.Room != "" {
		t.Errorf("unexpected room %q", res.Room)
	}
	// The estimate itself decides the room; with a quiet check we just
	// assert consistency between coordinates and containment.
	if res.Room != "" {
		found := false
		for _, r := range svc.Rooms {
			if r.Name == res.Room {
				found = r.Poly.Contains(res.Estimate.Pos)
			}
		}
		if !found {
			t.Errorf("room %q does not contain estimate %v", res.Room, res.Estimate.Pos)
		}
	}
	// Annotate resolves positions directly, without allocating.
	for _, c := range []struct {
		p          geom.Point
		name, room string
	}{
		{target, sim.TrainingName(1, 2), "west wing"},
		{geom.Pt(40, 10), "", "se room"},
		{geom.Pt(40, 35), "", ""},
	} {
		name, room := svc.Annotate(c.p)
		if room != c.room || name == "" || (c.name != "" && name != c.name) {
			t.Errorf("Annotate(%v) = (%q, %q), want room %q", c.p, name, room, c.room)
		}
	}
	if !raceEnabled {
		if n := testing.AllocsPerRun(100, func() { svc.Annotate(target) }); n != 0 {
			t.Errorf("Annotate allocates %v per call", n)
		}
	}
}
