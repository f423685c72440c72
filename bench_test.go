// Benchmarks regenerating the performance-relevant paper artefacts.
// Accuracy-shaped experiments (the actual numbers for Figure 4 and the
// §5.1/§5.2 results) are produced by cmd/experiments; the benchmarks
// here measure the cost of each pipeline stage on the same workloads.
// One benchmark exists per experiment in DESIGN.md §4.
package indoorloc_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"

	"indoorloc/internal/compositor"
	"indoorloc/internal/core"
	"indoorloc/internal/filter"
	"indoorloc/internal/floorplan"
	"indoorloc/internal/geom"
	"indoorloc/internal/ingest"
	"indoorloc/internal/localize"
	"indoorloc/internal/locmap"
	"indoorloc/internal/regress"
	"indoorloc/internal/rf"
	"indoorloc/internal/server"
	"indoorloc/internal/sim"
	"indoorloc/internal/trainingdb"
	"indoorloc/internal/uwb"
	"indoorloc/internal/wiscan"
)

// benchFixture builds the paper-house training artefacts once for all
// benchmarks.
type benchFixture struct {
	scen sim.Scenario
	env  *rf.Environment
	lm   *locmap.Map
	coll *wiscan.Collection
	db   *trainingdb.DB
}

var (
	fixOnce sync.Once
	fix     benchFixture
)

func fixture(b *testing.B) *benchFixture {
	b.Helper()
	fixOnce.Do(func() {
		scen := sim.PaperHouse()
		env, err := scen.Environment()
		if err != nil {
			panic(err)
		}
		lm, err := scen.TrainingPoints()
		if err != nil {
			panic(err)
		}
		coll := sim.NewScanner(env, 1).CaptureCollection(lm, 90) // paper: 1.5 min
		db, _, err := trainingdb.Generate(coll, lm, trainingdb.Options{})
		if err != nil {
			panic(err)
		}
		fix = benchFixture{scen: scen, env: env, lm: lm, coll: coll, db: db}
	})
	return &fix
}

// observations draws n averaged test observations over the 13 paper
// test points, cycling.
func observations(f *benchFixture, n int, seed int64) []localize.Observation {
	sc := sim.NewScanner(f.env, seed)
	out := make([]localize.Observation, n)
	for i := range out {
		p := f.scen.TestPoints[i%len(f.scen.TestPoints)]
		out[i] = localize.ObservationFromRecords(sc.Capture(p, 10, 0))
	}
	return out
}

// BenchmarkFloorPlanProcessor is experiment Fig. 2: a full Floor Plan
// Processor session — blueprint, APs, scale, origin, 30 location
// names, save.
func BenchmarkFloorPlanProcessor(b *testing.B) {
	f := fixture(b)
	for i := 0; i < b.N; i++ {
		plan, err := compositor.Blueprint("experiment house", compositor.BlueprintSpec{
			Outline: f.scen.Outline,
			Walls:   f.scen.Walls,
		})
		if err != nil {
			b.Fatal(err)
		}
		for j, ap := range f.scen.APs {
			px, err := plan.ToPixel(ap.Pos)
			if err != nil {
				b.Fatal(err)
			}
			plan.AddAP(fmt.Sprintf("%c", 'A'+j), px)
		}
		for _, name := range f.lm.Names() {
			w, _ := f.lm.Lookup(name)
			px, _ := plan.ToPixel(w)
			if err := plan.AddLocation(name, px); err != nil {
				b.Fatal(err)
			}
		}
		var buf bytes.Buffer
		if err := plan.Save(&buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCompositorRender is experiment Fig. 3: rendering the floor
// plan with the 13 test locations and their estimates marked.
func BenchmarkCompositorRender(b *testing.B) {
	f := fixture(b)
	plan, err := compositor.Blueprint("experiment house", compositor.BlueprintSpec{
		Outline: f.scen.Outline,
		Walls:   f.scen.Walls,
	})
	if err != nil {
		b.Fatal(err)
	}
	for j, ap := range f.scen.APs {
		px, _ := plan.ToPixel(ap.Pos)
		plan.AddAP(fmt.Sprintf("%c", 'A'+j), px)
	}
	vectors := make([]compositor.ErrorVector, len(f.scen.TestPoints))
	for i, p := range f.scen.TestPoints {
		vectors[i] = compositor.ErrorVector{
			Actual:    p,
			Estimated: p.Add(geom.Pt(3, -2)),
		}
	}
	opts := compositor.RenderOptions{DrawAPs: true, DrawWalls: true, Labels: true, Vectors: vectors}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := compositor.Render(plan, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig4RegressionFit is experiment Fig. 4: fitting the
// inverse-square signal↔distance model for one AP from its training
// samples.
func BenchmarkFig4RegressionFit(b *testing.B) {
	f := fixture(b)
	bssid := f.db.BSSIDs[0]
	apPos := f.scen.APPositions()[bssid]
	dists, rssis := f.db.DistanceSamples(bssid, apPos)
	basis := regress.InversePowerBasis{Degree: 2, MinDist: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := regress.Fit(basis, dists, rssis); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkProbabilisticLocalize is experiment R5.1: one Gaussian
// maximum-likelihood localization over the 30-point training grid.
func BenchmarkProbabilisticLocalize(b *testing.B) {
	f := fixture(b)
	ml := localize.NewMaxLikelihood(f.db.Compile(-95, 4))
	obs := observations(f, 64, 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ml.Locate(obs[i%len(obs)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHistogramLocalize measures the distribution-aware variant
// (future work §6.2) on the same workload as R5.1.
func BenchmarkHistogramLocalize(b *testing.B) {
	f := fixture(b)
	h := localize.NewHistogram(f.db, f.db.Compile(-95, 4))
	obs := observations(f, 64, 3)
	if _, err := h.Locate(obs[0]); err != nil { // warm the scratch pool
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := h.Locate(obs[i%len(obs)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGeometricLocalize is experiment R5.2: model inversion,
// pairwise circle intersection and the median point for one
// observation.
func BenchmarkGeometricLocalize(b *testing.B) {
	f := fixture(b)
	g, err := localize.FitGeometric(f.db, f.scen.APPositions(),
		regress.InversePowerBasis{Degree: 2, MinDist: 1})
	if err != nil {
		b.Fatal(err)
	}
	obs := observations(f, 64, 4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := g.Locate(obs[i%len(obs)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkKNNSweep is experiment A1: kNN localization cost across k.
func BenchmarkKNNSweep(b *testing.B) {
	f := fixture(b)
	obs := observations(f, 64, 5)
	view := f.db.Compile(-95, 4)
	for _, k := range []int{1, 2, 3, 4, 5, 6} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			knn := localize.NewKNN(view, k)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := knn.Locate(obs[i%len(obs)]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTrainingDBGenerate measures the Training Database Generator
// on the paper-house collection (30 locations × 90 sweeps × 4 APs).
func BenchmarkTrainingDBGenerate(b *testing.B) {
	f := fixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := trainingdb.Generate(f.coll, f.lm, trainingdb.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTrainingDBSaveLoad measures the compressed database round
// trip — the paper's stated reason for the format ("loaded into memory
// more quickly than reading multiple wi-scan files line by line").
func BenchmarkTrainingDBSaveLoad(b *testing.B) {
	f := fixture(b)
	var buf bytes.Buffer
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := trainingdb.Save(&buf, f.db); err != nil {
			b.Fatal(err)
		}
		if _, err := trainingdb.Load(bytes.NewReader(buf.Bytes())); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWiScanParse measures raw wi-scan parsing, the path the
// training database exists to avoid.
func BenchmarkWiScanParse(b *testing.B) {
	f := fixture(b)
	name := f.lm.SortedNames()[0]
	var buf bytes.Buffer
	if err := wiscan.Write(&buf, f.coll.Files[name]); err != nil {
		b.Fatal(err)
	}
	raw := buf.Bytes()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := wiscan.Read(bytes.NewReader(raw), name); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkScannerCapture measures drawing one 90-sweep training
// capture from the RF simulator.
func BenchmarkScannerCapture(b *testing.B) {
	f := fixture(b)
	sc := sim.NewScanner(f.env, 9)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if recs := sc.Capture(geom.Pt(25, 20), 90, 0); len(recs) == 0 {
			b.Fatal("empty capture")
		}
	}
}

// BenchmarkKalmanTracking is experiment A5: filtering a 100-step walk.
func BenchmarkKalmanTracking(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	path := make([]geom.Point, 100)
	for i := range path {
		path[i] = geom.Pt(float64(i)*0.5+rng.NormFloat64()*4, 20+rng.NormFloat64()*4)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := &filter.Kalman{Dt: 1, ProcessNoise: 0.5, MeasurementNoise: 5}
		for _, p := range path {
			k.Update(p)
		}
	}
}

// BenchmarkParticleTracking is experiment A5's heavyweight variant.
func BenchmarkParticleTracking(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	path := make([]geom.Point, 100)
	for i := range path {
		path[i] = geom.Pt(float64(i)*0.5+rng.NormFloat64()*4, 20+rng.NormFloat64()*4)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pf := &filter.Particle{N: 500, Rng: rand.New(rand.NewSource(8))}
		for _, p := range path {
			pf.Update(p)
		}
	}
}

// BenchmarkUWBRanging is experiment A6: one UWB positioning fix
// (4 ranging exchanges + multilateration).
func BenchmarkUWBRanging(b *testing.B) {
	sys, err := uwb.NewSystem([]uwb.Anchor{
		{ID: "u0", Pos: geom.Pt(0, 0)},
		{ID: "u1", Pos: geom.Pt(50, 0)},
		{ID: "u2", Pos: geom.Pt(50, 40)},
		{ID: "u3", Pos: geom.Pt(0, 40)},
	}, nil, uwb.Channel{})
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := sys.Locate(geom.Pt(25, 20), rng); !ok {
			b.Fatal("locate failed")
		}
	}
}

// BenchmarkPipelineTrain is experiment Fig. 1: the full Phase 1 flow,
// collection to fitted service.
func BenchmarkPipelineTrain(b *testing.B) {
	f := fixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pl := &core.Pipeline{
			Collection:  f.coll,
			LocMap:      f.lm,
			Algorithm:   core.AlgoProbabilistic,
			APPositions: f.scen.APPositions(),
		}
		if _, _, err := pl.Train(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPlanGIFRoundTrip measures the annotated-plan save format
// including the embedded GIF.
func BenchmarkPlanGIFRoundTrip(b *testing.B) {
	f := fixture(b)
	plan, err := compositor.Blueprint("experiment house", compositor.BlueprintSpec{
		Outline: f.scen.Outline,
		Walls:   f.scen.Walls,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := plan.Save(&buf); err != nil {
			b.Fatal(err)
		}
		if _, err := floorplan.Load(&buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBatchLocalize measures the concurrent working-phase fan-out,
// localize.BatchInto, on 256 observations.
func BenchmarkBatchLocalize(b *testing.B) {
	f := fixture(b)
	ml := localize.NewMaxLikelihood(f.db.Compile(-95, 4))
	obs := observations(f, 256, 10)
	res := make([]localize.BatchResult, len(obs))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		localize.BatchInto(ml, obs, res)
		for j := range res {
			if res[j].Err != nil {
				b.Fatal(res[j].Err)
			}
		}
	}
}

// BenchmarkSectorLocalize measures the identifying-code baseline.
func BenchmarkSectorLocalize(b *testing.B) {
	f := fixture(b)
	sec := localize.NewSector(f.db.Compile(-95, 4))
	obs := observations(f, 64, 11)
	if _, err := sec.Locate(obs[0]); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sec.Locate(obs[i%len(obs)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHeatmapRender measures the radio-map renderer on the
// paper-house blueprint at 1-ft cells.
func BenchmarkHeatmapRender(b *testing.B) {
	f := fixture(b)
	plan, err := compositor.Blueprint("house", compositor.BlueprintSpec{
		Outline: f.scen.Outline, Walls: f.scen.Walls,
	})
	if err != nil {
		b.Fatal(err)
	}
	apPos := f.scen.APs[0].Pos
	model := rf.DefaultLogDistance()
	hm := compositor.Heatmap{
		Field: func(p geom.Point) float64 {
			return float64(model.MeanRSSI(-30, apPos.Dist(p), 0))
		},
		Lo: -95, Hi: -40, CellFeet: 1, Area: f.scen.Outline,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := compositor.RenderHeatmap(plan, hm); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServerLocate measures one /locate round trip through the
// full HTTP stack (httptest, loopback only).
func BenchmarkServerLocate(b *testing.B) {
	f := fixture(b)
	in, err := core.New(core.WithDB(f.db), core.WithNames(f.lm))
	if err != nil {
		b.Fatal(err)
	}
	srv, err := server.New(in.Service, nil)
	if err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	obs := observations(f, 1, 12)[0]
	payload, err := json.Marshal(map[string]any{"observation": obs})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := http.Post(ts.URL+"/locate", "application/json", bytes.NewReader(payload))
		if err != nil {
			b.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != 200 {
			b.Fatalf("status %d", resp.StatusCode)
		}
	}
}

// BenchmarkProbabilisticLargeMap measures the working phase on the
// 117-point, 8-AP office wing — the scaling story beyond the paper's
// 30-point house.
func BenchmarkProbabilisticLargeMap(b *testing.B) {
	scen := sim.OfficeWing()
	env, err := scen.Environment()
	if err != nil {
		b.Fatal(err)
	}
	lm, err := scen.TrainingPoints()
	if err != nil {
		b.Fatal(err)
	}
	coll := sim.NewScanner(env, 2).CaptureCollection(lm, 30)
	db, _, err := trainingdb.Generate(coll, lm, trainingdb.Options{})
	if err != nil {
		b.Fatal(err)
	}
	ml := localize.NewMaxLikelihood(db.Compile(-95, 4))
	sc := sim.NewScanner(env, 3)
	obs := make([]localize.Observation, 32)
	for i := range obs {
		obs[i] = localize.ObservationFromRecords(
			sc.Capture(scen.TestPoints[i%len(scen.TestPoints)], 10, 0))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ml.Locate(obs[i%len(obs)]); err != nil {
			b.Fatal(err)
		}
	}
}

// syntheticLargeDB fabricates a campus-scale radio map — far past the
// paper's 30-point house — directly from statistics, so the benchmark
// measures scoring, not simulation. Each entry hears a contiguous
// window of APs, giving the overlap structure of a real corridor
// survey.
func syntheticLargeDB(entries, aps, heardPerEntry int, seed int64) *trainingdb.DB {
	rng := rand.New(rand.NewSource(seed))
	db := &trainingdb.DB{Entries: make(map[string]*trainingdb.Entry, entries)}
	db.BSSIDs = make([]string, aps)
	for a := range db.BSSIDs {
		db.BSSIDs[a] = fmt.Sprintf("ca:fe:00:00:%02x:%02x", a/256, a%256)
	}
	cols := (entries + 39) / 40
	for e := 0; e < entries; e++ {
		name := fmt.Sprintf("pt-%04d", e)
		ent := &trainingdb.Entry{
			Name:  name,
			Pos:   geom.Pt(float64(e%cols)*5, float64(e/cols)*5),
			PerAP: make(map[string]*trainingdb.APStats, heardPerEntry),
		}
		first := (e * 7) % (aps - heardPerEntry + 1)
		for a := first; a < first+heardPerEntry; a++ {
			ent.PerAP[db.BSSIDs[a]] = &trainingdb.APStats{
				BSSID:  db.BSSIDs[a],
				N:      20,
				Mean:   -45 - rng.Float64()*40,
				StdDev: 2 + rng.Float64()*4,
			}
		}
		db.Entries[name] = ent
	}
	return db
}

// syntheticObservations draws observations compatible with
// syntheticLargeDB: signal vectors near a random entry's means.
func syntheticObservations(db *trainingdb.DB, n int, seed int64) []localize.Observation {
	rng := rand.New(rand.NewSource(seed))
	names := db.Names()
	out := make([]localize.Observation, n)
	for i := range out {
		ent := db.Entries[names[rng.Intn(len(names))]]
		obs := make(localize.Observation, len(ent.PerAP))
		for bssid, st := range ent.PerAP {
			obs[bssid] = st.Mean + rng.NormFloat64()*st.StdDev
		}
		out[i] = obs
	}
	return out
}

// BenchmarkServerLocateBatch is experiment A8: 64 observations through
// the serving pipeline, as one /locate/batch request against 64
// repeated /locate round trips. Per-observation cost and allocations
// are what the arena + streaming fan-out exist to shrink; divide ns/op
// and allocs/op by 64 to compare per observation.
func BenchmarkServerLocateBatch(b *testing.B) {
	f := fixture(b)
	in, err := core.New(core.WithDB(f.db), core.WithNames(f.lm))
	if err != nil {
		b.Fatal(err)
	}
	srv, err := server.New(in.Service, nil)
	if err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	const batch = 64
	obs := observations(f, batch, 13)
	batchPayload, err := json.Marshal(map[string]any{"observations": obs})
	if err != nil {
		b.Fatal(err)
	}
	singles := make([][]byte, batch)
	for i, o := range obs {
		if singles[i], err = json.Marshal(map[string]any{"observation": o}); err != nil {
			b.Fatal(err)
		}
	}
	post := func(b *testing.B, url string, payload []byte) {
		resp, err := http.Post(url, "application/json", bytes.NewReader(payload))
		if err != nil {
			b.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != 200 {
			b.Fatalf("status %d", resp.StatusCode)
		}
	}
	b.Run("batch=64", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			post(b, ts.URL+"/locate/batch", batchPayload)
		}
	})
	b.Run("repeated-single=64", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, payload := range singles {
				post(b, ts.URL+"/locate", payload)
			}
		}
	})
}

// campusFixture builds the 100k-entry, 64-AP synthetic campus once for
// the map-v2 benchmarks: the compiled view and the query set.
type campusFixture struct {
	db   *trainingdb.DB
	view *trainingdb.Compiled
	obs  []localize.Observation
}

var (
	campusOnce sync.Once
	campus     campusFixture
)

// mapV2CampusEntries sizes the map-v2 fixture. The default is the
// 100k-entry campus the DESIGN.md numbers quote; the bench-smoke CI
// lane overrides it via -mapv2-entries to keep the lane fast.
var mapV2CampusEntries = flag.Int("mapv2-entries", 100_000, "entries in the BenchmarkMapV2 campus fixture")

func campusBench(b *testing.B) *campusFixture {
	b.Helper()
	campusOnce.Do(func() {
		db := syntheticLargeDB(*mapV2CampusEntries, 64, 16, 30)
		campus = campusFixture{
			db:   db,
			view: db.Compile(-95, 4),
			obs:  syntheticObservations(db, 32, 31),
		}
	})
	return &campus
}

// BenchmarkMapV2Campus100k is experiment A10: one maximum-likelihood
// query over the campus map's posting lists, with the full ranking
// sorted and with bounded top-8 selection (no 100k-candidate sort).
// matrix-MB reports the resident per-cell footprint the view holds:
// its posting lists and their sample counts (PostingBytes).
func BenchmarkMapV2Campus100k(b *testing.B) {
	f := campusBench(b)
	for _, c := range []struct {
		name string
		topk int
	}{
		{"fullsort", 0},
		{"topk8", 8},
	} {
		b.Run(c.name, func(b *testing.B) {
			ml := localize.NewMaxLikelihood(f.view)
			ml.TopK = c.topk
			if _, err := ml.Locate(f.obs[0]); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := ml.Locate(f.obs[i%len(f.obs)]); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(f.view.PostingBytes())/(1<<20), "matrix-MB")
		})
	}
}

// BenchmarkMapV2KNN runs the top-8 campus query for the kNN scorer,
// whose scan is pure signal distance (no log-likelihood).
func BenchmarkMapV2KNN(b *testing.B) {
	f := campusBench(b)
	b.Run("topk8", func(b *testing.B) {
		knn := localize.NewKNN(f.view, 3)
		knn.TopK = 8
		if _, err := knn.Locate(f.obs[0]); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := knn.Locate(f.obs[i%len(f.obs)]); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// liveRebuilder is the ingest benchmarks' Rebuilder: the same
// probabilistic-locator-plus-regenerated-name-map recipe locserved
// uses, so rebuild cost in the numbers matches production.
func liveRebuilder(db *trainingdb.DB) (*core.Service, error) {
	in, err := core.New(core.WithDB(db), core.WithEntryNames())
	if err != nil {
		return nil, err
	}
	return in.Service, nil
}

// BenchmarkIngestReport is experiment A9a: the accept path of one
// training report — admission, WAL journal, queue hand-off — with the
// compactor folding concurrently. The fsync variant prices the
// stronger power-loss durability.
func BenchmarkIngestReport(b *testing.B) {
	f := fixture(b)
	report := ingest.Report{
		Pos: &ingest.ReportPos{X: 10, Y: 10},
		Observation: map[string]float64{
			"00:02:2d:00:00:0a": -52, "00:02:2d:00:00:0b": -60,
			"00:02:2d:00:00:0c": -68, "00:02:2d:00:00:0d": -71,
		},
	}
	for _, sync := range []bool{false, true} {
		name := "buffered"
		if sync {
			name = "fsync"
		}
		b.Run(name, func(b *testing.B) {
			mgr, err := ingest.NewManager(f.db.Snapshot(), liveRebuilder, ingest.Config{
				WALPath:         filepath.Join(b.TempDir(), "bench.wal"),
				SyncEveryAppend: sync,
				QueueDepth:      8192,
				FlushReports:    1 << 30, // submit cost only; swaps are priced separately
				FlushInterval:   time.Hour,
			})
			if err != nil {
				b.Fatal(err)
			}
			defer mgr.Close()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for {
					err := mgr.Submit(report)
					if err == nil {
						break
					}
					if !errors.Is(err, ingest.ErrQueueFull) {
						b.Fatal(err)
					}
					runtime.Gosched() // let the compactor drain
				}
			}
		})
	}
}

// BenchmarkSnapshotSwap is experiment A9b: the full hot-swap — freeze
// the master database, rebuild the locator and name map, publish
// through the registry — at the paper-house scale and at campus scale.
// This is the cost the compactor pays off the serving path; readers
// pay one atomic pointer load regardless. The floor case prices one
// publish through the ingest.Manager after 400 folded reports on a
// 3,000-cell floor, patched from the served view against rebuilt in
// full (see benchManagerPublish).
func BenchmarkSnapshotSwap(b *testing.B) {
	b.Run("floor-3000pt-400rep", benchManagerPublish)
	cases := []struct {
		name string
		db   *trainingdb.DB
	}{
		{"house-30pt", fixture(b).db.Snapshot()},
		{"campus-3000pt", syntheticLargeDB(3000, 64, 16, 22)},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			svc, err := liveRebuilder(c.db.Snapshot())
			if err != nil {
				b.Fatal(err)
			}
			reg, err := core.StaticSnapshot(svc)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				frozen := c.db.Snapshot()
				svc, err := liveRebuilder(frozen)
				if err != nil {
					b.Fatal(err)
				}
				reg.Publish(&core.Snapshot{
					Generation: frozen.Generation(),
					Service:    svc,
					BuiltAt:    time.Now(),
				})
			}
		})
	}
}

// benchManagerPublish times one publish through the ingest.Manager on
// a floor of 3,000 cells over 25 APs, each hearing 12: submit 400
// reports naming random cells, each hearing the cell's trained APs, and
// wait for the swap they trigger. "patch" rebuilds through a service
// that records its recipe, so each publish patches the folded entries;
// "full" hides the recipe, so each publish recompiles the whole map.
// ms/publish and KiB/publish include the 400 folds and journal appends.
func benchManagerPublish(b *testing.B) {
	const reportsPerPublish = 400
	floor := syntheticLargeDB(3000, 25, 12, 23)
	rng := rand.New(rand.NewSource(29))
	names := floor.Names()
	reports := make([]ingest.Report, reportsPerPublish)
	for i := range reports {
		e := floor.Entries[names[rng.Intn(len(names))]]
		obs := make(map[string]float64, len(e.PerAP))
		for bssid, st := range e.PerAP {
			obs[bssid] = math.Round((st.Mean+rng.NormFloat64()*st.StdDev)*10) / 10
		}
		reports[i] = ingest.Report{Name: e.Name, Observation: obs}
	}
	recipeless := func(db *trainingdb.DB) (*core.Service, error) {
		svc, err := liveRebuilder(db)
		if err != nil {
			return nil, err
		}
		return &core.Service{Locator: svc.Locator, Names: svc.Names}, nil
	}
	for _, kind := range []struct {
		name    string
		rebuild ingest.Rebuilder
	}{{"patch", liveRebuilder}, {"full", recipeless}} {
		b.Run(kind.name, func(b *testing.B) {
			mgr, err := ingest.NewManager(floor.Snapshot(), kind.rebuild, ingest.Config{
				WALPath:       filepath.Join(b.TempDir(), "bench.wal"),
				FlushReports:  reportsPerPublish,
				FlushInterval: time.Hour,
			})
			if err != nil {
				b.Fatal(err)
			}
			defer mgr.Close()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := mgr.Submit(reports...); err != nil {
					b.Fatal(err)
				}
				for mgr.Stats().Swaps < uint64(i+1) {
					runtime.Gosched()
				}
			}
			b.StopTimer()
			runtime.ReadMemStats(&after)
			st := mgr.Stats()
			if n := map[string]uint64{"patch": st.PatchedSwaps, "full": st.FullSwaps}[kind.name]; n != st.Swaps {
				b.Fatalf("%s: %d patched and %d full of %d swaps", kind.name, st.PatchedSwaps, st.FullSwaps, st.Swaps)
			}
			b.ReportMetric(float64(b.Elapsed().Microseconds())/1e3/float64(b.N), "ms/publish")
			b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/1024/float64(b.N), "KiB/publish")
		})
	}
}

// BenchmarkServerLocateUnderIngest is experiment A9c: the batch=64
// serving round trip while a writer streams training reports and the
// compactor swaps snapshots every 32 folds. Compare against
// BenchmarkServerLocateBatch/batch=64 — the gap is the price readers
// pay for live training (it should be near zero: swaps cost readers
// one pointer load).
func BenchmarkServerLocateUnderIngest(b *testing.B) {
	f := fixture(b)
	mgr, err := ingest.NewManager(f.db.Snapshot(), liveRebuilder, ingest.Config{
		WALPath:       filepath.Join(b.TempDir(), "bench.wal"),
		QueueDepth:    8192,
		FlushReports:  32,
		FlushInterval: time.Millisecond,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer mgr.Close()
	srv, err := server.NewLive(mgr, nil)
	if err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	const batch = 64
	payload, err := json.Marshal(map[string]any{"observations": observations(f, batch, 13)})
	if err != nil {
		b.Fatal(err)
	}
	report := ingest.Report{
		Pos:         &ingest.ReportPos{X: 12, Y: 8},
		Observation: map[string]float64{"00:02:2d:00:00:0a": -55, "00:02:2d:00:00:0b": -63},
	}
	stop := make(chan struct{})
	var writer sync.WaitGroup
	writer.Add(1)
	go func() {
		defer writer.Done()
		// ~1000 reports/s — a heavy but plausible crowdsourcing load.
		// An unthrottled writer would just measure CPU contention.
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				mgr.Submit(report)
			}
		}
	}()
	defer func() { close(stop); writer.Wait() }()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := http.Post(ts.URL+"/locate/batch", "application/json", bytes.NewReader(payload))
		if err != nil {
			b.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != 200 {
			b.Fatalf("status %d", resp.StatusCode)
		}
	}
	b.StopTimer()
	// Calibration runs (N=1) are too short for the 1 ms cadence to fire;
	// only a real window with zero swaps means the bench measured nothing.
	if b.N >= 100 && mgr.Stats().Swaps == 0 {
		b.Log("warning: no swaps happened during the bench window")
	}
}
