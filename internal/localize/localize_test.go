package localize

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"indoorloc/internal/geom"
	"indoorloc/internal/locmap"
	"indoorloc/internal/rf"
	"indoorloc/internal/trainingdb"
	"indoorloc/internal/wiscan"
)

// houseAPs places four APs at the corners of the paper's 50×40 ft
// house.
func houseAPs() []rf.AP {
	return []rf.AP{
		{BSSID: "00:02:2d:00:00:0a", SSID: "house", Pos: geom.Pt(0, 0), TxPower: -30, Channel: 1},
		{BSSID: "00:02:2d:00:00:0b", SSID: "house", Pos: geom.Pt(50, 0), TxPower: -30, Channel: 6},
		{BSSID: "00:02:2d:00:00:0c", SSID: "house", Pos: geom.Pt(50, 40), TxPower: -30, Channel: 11},
		{BSSID: "00:02:2d:00:00:0d", SSID: "house", Pos: geom.Pt(0, 40), TxPower: -30, Channel: 1},
	}
}

func apPositions(aps []rf.AP) map[string]geom.Point {
	m := make(map[string]geom.Point, len(aps))
	for _, ap := range aps {
		m[ap.BSSID] = ap.Pos
	}
	return m
}

// buildDB trains a database on the paper's 10-ft grid using the given
// environment: samplesPerPoint scans at each of the 24 interior+edge
// grid points.
func buildDB(t *testing.T, env *rf.Environment, samplesPerPoint int, seed int64) *trainingdb.DB {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	coll := &wiscan.Collection{Files: make(map[string]*wiscan.File)}
	lm := locmap.New()
	for gx := 0; gx <= 5; gx++ {
		for gy := 0; gy <= 4; gy++ {
			p := geom.Pt(float64(gx*10), float64(gy*10))
			name := fmt.Sprintf("t%d-%d", gx, gy)
			if err := lm.Add(name, p); err != nil {
				t.Fatal(err)
			}
			f := &wiscan.File{Location: name}
			for s := 0; s < samplesPerPoint; s++ {
				for _, r := range env.Scan(p, rng) {
					f.Records = append(f.Records, wiscan.Record{
						TimeMillis: int64(s+1) * 1000,
						BSSID:      r.BSSID,
						SSID:       r.SSID,
						Channel:    r.Channel,
						RSSI:       r.RSSI,
						Noise:      r.Noise,
					})
				}
			}
			coll.Files[name] = f
		}
	}
	db, _, err := trainingdb.Generate(coll, lm, trainingdb.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func quietEnv(t *testing.T) *rf.Environment {
	t.Helper()
	env, err := rf.NewEnvironment(houseAPs(), nil, rf.Config{
		ShadowSigma: 0.001, FastSigma: 0.2, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	return env
}

func noisyEnv(t *testing.T) *rf.Environment {
	t.Helper()
	env, err := rf.NewEnvironment(houseAPs(), nil, rf.Config{
		ShadowSigma: 3.5, FastSigma: 2.5, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	return env
}

// observe builds an averaged Observation from n scans at p.
func observe(env *rf.Environment, p geom.Point, n int, rng *rand.Rand) Observation {
	var recs []wiscan.Record
	for s := 0; s < n; s++ {
		for _, r := range env.Scan(p, rng) {
			recs = append(recs, wiscan.Record{
				TimeMillis: int64(s+1) * 1000, BSSID: r.BSSID, RSSI: r.RSSI,
			})
		}
	}
	return ObservationFromRecords(recs)
}

func TestObservationFromRecords(t *testing.T) {
	recs := []wiscan.Record{
		{TimeMillis: 1, BSSID: "a", RSSI: -60},
		{TimeMillis: 2, BSSID: "a", RSSI: -62},
		{TimeMillis: 1, BSSID: "b", RSSI: -75},
	}
	obs := ObservationFromRecords(recs)
	if len(obs) != 2 {
		t.Fatalf("len = %d", len(obs))
	}
	if obs["a"] != -61 || obs["b"] != -75 {
		t.Errorf("obs = %v", obs)
	}
	if got := obs.BSSIDs(); got[0] != "a" || got[1] != "b" {
		t.Errorf("BSSIDs = %v", got)
	}
}

func TestMaxLikelihoodRecoverTrainingPoints(t *testing.T) {
	env := quietEnv(t)
	db := buildDB(t, env, 20, 1)
	ml := NewMaxLikelihood(view(db))
	rng := rand.New(rand.NewSource(42))
	// Observing fresh samples at each training point must return that
	// point in a quiet environment.
	correct := 0
	total := 0
	for _, name := range db.Names() {
		e := db.Entries[name]
		obs := observe(env, e.Pos, 10, rng)
		est, err := ml.Locate(obs)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		total++
		if est.Name == name {
			correct++
		}
	}
	if correct < total*9/10 {
		t.Errorf("recovered %d/%d training points in a quiet environment", correct, total)
	}
}

func TestMaxLikelihoodCandidatesRanked(t *testing.T) {
	env := quietEnv(t)
	db := buildDB(t, env, 10, 1)
	ml := NewMaxLikelihood(view(db))
	rng := rand.New(rand.NewSource(7))
	est, err := ml.Locate(observe(env, geom.Pt(22, 18), 5, rng))
	if err != nil {
		t.Fatal(err)
	}
	if len(est.Candidates) != db.Len() {
		t.Fatalf("candidates = %d, want %d", len(est.Candidates), db.Len())
	}
	for i := 1; i < len(est.Candidates); i++ {
		if est.Candidates[i].Score > est.Candidates[i-1].Score {
			t.Fatal("candidates not ranked")
		}
	}
	if est.Candidates[0].Name != est.Name || est.Candidates[0].Score != est.Score {
		t.Error("estimate does not match top candidate")
	}
}

func TestMaxLikelihoodErrors(t *testing.T) {
	env := quietEnv(t)
	db := buildDB(t, env, 5, 1)
	ml := NewMaxLikelihood(view(db))
	if _, err := ml.Locate(Observation{}); err != ErrEmptyObservation {
		t.Errorf("empty: %v", err)
	}
	if _, err := ml.Locate(Observation{"un:kn:ow:n": -60}); err != ErrNoOverlap {
		t.Errorf("no overlap: %v", err)
	}
	if _, err := ml.Locate(Observation{"00:02:2d:00:00:0a": 30}); err == nil {
		t.Error("positive RSSI accepted")
	}
	empty := NewMaxLikelihood(view(&trainingdb.DB{Entries: map[string]*trainingdb.Entry{}}))
	if _, err := empty.Locate(Observation{"a": -60}); err == nil {
		t.Error("empty DB accepted")
	}
}

func TestKNNVariants(t *testing.T) {
	env := quietEnv(t)
	db := buildDB(t, env, 10, 1)
	rng := rand.New(rand.NewSource(5))
	target := geom.Pt(20, 20) // exactly training point t2-2
	obs := observe(env, target, 10, rng)

	nn := NewKNN(view(db), 1)
	if nn.Name() != "nnss" {
		t.Errorf("Name = %q", nn.Name())
	}
	est, err := nn.Locate(obs)
	if err != nil {
		t.Fatal(err)
	}
	if est.Name != "t2-2" {
		t.Errorf("NN picked %q", est.Name)
	}
	if est.Pos != target {
		t.Errorf("NN pos = %v", est.Pos)
	}

	k3 := NewKNN(view(db), 3)
	if k3.Name() != "knn" {
		t.Errorf("Name = %q", k3.Name())
	}
	est3, err := k3.Locate(obs)
	if err != nil {
		t.Fatal(err)
	}
	if est3.Name != "" {
		t.Errorf("k=3 should not pick a single name, got %q", est3.Name)
	}
	if est3.Pos.Dist(target) > 15 {
		t.Errorf("k=3 pos = %v, too far from %v", est3.Pos, target)
	}

	wk := NewKNN(view(db), 3)
	wk.Weighted = true
	if wk.Name() != "wknn" {
		t.Errorf("Name = %q", wk.Name())
	}
	estw, err := wk.Locate(obs)
	if err != nil {
		t.Fatal(err)
	}
	if estw.Pos.Dist(target) > 15 {
		t.Errorf("weighted pos = %v", estw.Pos)
	}
	// Weighted estimate must land near the unweighted one here; the
	// inverse-distance weights only redistribute within the same K
	// neighbours.
	if estw.Pos.Dist(est3.Pos) > 10 {
		t.Errorf("weighted %v far from unweighted %v", estw.Pos, est3.Pos)
	}
}

func TestKNNKLargerThanDB(t *testing.T) {
	env := quietEnv(t)
	db := buildDB(t, env, 5, 1)
	k := NewKNN(view(db), 10000)
	rng := rand.New(rand.NewSource(5))
	est, err := k.Locate(observe(env, geom.Pt(25, 20), 5, rng))
	if err != nil {
		t.Fatal(err)
	}
	// Clamped to the full grid: estimate is the grid centroid.
	if est.Pos.Dist(geom.Pt(25, 20)) > 1e-9 {
		t.Errorf("full-grid centroid = %v", est.Pos)
	}
}

func TestKNNErrors(t *testing.T) {
	env := quietEnv(t)
	db := buildDB(t, env, 5, 1)
	k := NewKNN(view(db), 1)
	if _, err := k.Locate(Observation{}); err != ErrEmptyObservation {
		t.Errorf("empty: %v", err)
	}
	if _, err := k.Locate(Observation{"zz": -50}); err != ErrNoOverlap {
		t.Errorf("no overlap: %v", err)
	}
}

func TestHistogramLocalizer(t *testing.T) {
	env := quietEnv(t)
	db := buildDB(t, env, 30, 1)
	h := NewHistogram(db, view(db))
	if h.Name() != "probabilistic-histogram" {
		t.Errorf("Name = %q", h.Name())
	}
	rng := rand.New(rand.NewSource(9))
	correct := 0
	total := 0
	for _, name := range db.Names() {
		e := db.Entries[name]
		est, err := h.Locate(observe(env, e.Pos, 10, rng))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		total++
		if est.Name == name {
			correct++
		}
	}
	if correct < total*8/10 {
		t.Errorf("histogram recovered %d/%d", correct, total)
	}
}

func TestHistogramPosteriorSumsToOne(t *testing.T) {
	env := quietEnv(t)
	db := buildDB(t, env, 10, 1)
	h := NewHistogram(db, view(db))
	rng := rand.New(rand.NewSource(10))
	est, err := h.Locate(observe(env, geom.Pt(15, 25), 5, rng))
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, c := range est.Candidates {
		if c.Score < 0 || c.Score > 1 {
			t.Fatalf("posterior %v out of [0,1]", c.Score)
		}
		sum += c.Score
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("posterior sums to %v", sum)
	}
}

func TestHistogramErrors(t *testing.T) {
	env := quietEnv(t)
	db := buildDB(t, env, 5, 1)
	h := NewHistogram(db, view(db))
	if _, err := h.Locate(Observation{}); err != ErrEmptyObservation {
		t.Errorf("empty: %v", err)
	}
	if _, err := h.Locate(Observation{"zz": -50}); err != ErrNoOverlap {
		t.Errorf("no overlap: %v", err)
	}
}
