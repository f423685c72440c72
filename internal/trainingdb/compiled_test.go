package trainingdb

import (
	"math"
	"slices"
	"testing"

	"indoorloc/internal/geom"
	"indoorloc/internal/stats"
)

// compiledFixture builds a two-entry DB with deliberately partial AP
// coverage: "hall" hears apX and apY, "kitchen" hears only apY, and
// apX's samples are constant to exercise the MinSigma clamp.
func compiledFixture() *DB {
	mk := func(bssid string, n int, mean, sd float64) *APStats {
		return &APStats{BSSID: bssid, N: n, Mean: mean, StdDev: sd,
			Min: mean - sd, Max: mean + sd, Samples: []float64{mean, mean}}
	}
	return &DB{
		Entries: map[string]*Entry{
			"hall": {Name: "hall", Pos: geom.Pt(10, 20), PerAP: map[string]*APStats{
				"apX": mk("apX", 9, -60, 0), // constant samples: σ below MinSigma
				"apY": mk("apY", 4, -72, 3),
			}},
			"kitchen": {Name: "kitchen", Pos: geom.Pt(30, 5), PerAP: map[string]*APStats{
				"apY": mk("apY", 7, -55, 2),
			}},
		},
		BSSIDs: []string{"apX", "apY"},
	}
}

func TestCompileLayout(t *testing.T) {
	db := compiledFixture()
	c := db.Compile(-95, 4)
	if c.NumEntries() != 2 || c.NumAPs() != 2 {
		t.Fatalf("dims = %d×%d", c.NumEntries(), c.NumAPs())
	}
	if c.Names[0] != "hall" || c.Names[1] != "kitchen" {
		t.Fatalf("Names = %v", c.Names)
	}
	if c.Pos[0] != geom.Pt(10, 20) || c.Pos[1] != geom.Pt(30, 5) {
		t.Fatalf("Pos = %v", c.Pos)
	}
	if j, ok := c.APIndex("apY"); !ok || j != 1 {
		t.Fatalf("APIndex(apY) = %d %v", j, ok)
	}
	if _, ok := c.APIndex("ghost"); ok {
		t.Fatal("APIndex accepted unknown BSSID")
	}

	// Postings: apX lists hall; apY lists hall then kitchen (kitchen
	// never heard apX), each with its sample count.
	if !slices.Equal(c.PostStart, []int32{0, 1, 3}) {
		t.Fatalf("PostStart = %v", c.PostStart)
	}
	if c.Post[0].Entry != 0 || c.Post[1].Entry != 0 || c.Post[2].Entry != 1 {
		t.Fatalf("posting entries = %d %d %d", c.Post[0].Entry, c.Post[1].Entry, c.Post[2].Entry)
	}
	if !slices.Equal(c.PostN, []int32{9, 4, 7}) {
		t.Errorf("PostN = %v", c.PostN)
	}
	// Constant-sample σ clamps to MinSigma in the record; the constant
	// folds the log-norm and floor terms of the stats primitives.
	wantNorm := -math.Log(stats.MinSigma) - 0.5*math.Log(2*math.Pi)
	floorX := stats.LogGaussianPDF(-95, -60, 0)
	want := Posting{Entry: 0, Center: -60,
		HalfPrec: float32(1 / (stats.MinSigma * math.Sqrt2)),
		Const:    float32(wantNorm - floorX)}
	if c.Post[0] != want {
		t.Errorf("hall/apX record = %+v, want %+v", c.Post[0], want)
	}

	// Baselines sum the trained cells only.
	wantUnheard := floorX + stats.LogGaussianPDF(-95, -72, 3)
	if math.Abs(c.UnheardLL[0]-wantUnheard) > 1e-12 {
		t.Errorf("UnheardLL = %v, want %v", c.UnheardLL[0], wantUnheard)
	}
	wantBase := (-95.0+60)*(-95.0+60) + (-95.0+72)*(-95.0+72)
	if math.Abs(c.SignalBase[0]-wantBase) > 1e-9 {
		t.Errorf("SignalBase = %v, want %v", c.SignalBase[0], wantBase)
	}

	// FloorSigma clamps like the Gaussian primitives do.
	if got := db.Compile(-95, 0).FloorSigma; got != stats.MinSigma {
		t.Errorf("FloorSigma = %v, want clamp to %v", got, stats.MinSigma)
	}
}

func TestCompileSnapshotsDB(t *testing.T) {
	db := compiledFixture()
	c := db.Compile(-95, 4)
	other := &DB{
		Entries: map[string]*Entry{"attic": {Name: "attic", Pos: geom.Pt(0, 0),
			PerAP: map[string]*APStats{"apZ": {BSSID: "apZ", N: 1, Mean: -80, Samples: []float64{-80}}}}},
		BSSIDs: []string{"apZ"},
	}
	if err := db.Merge(other); err != nil {
		t.Fatal(err)
	}
	if c.NumEntries() != 2 || c.NumAPs() != 2 {
		t.Error("compiled view changed after Merge; it must be a snapshot")
	}
}

func TestIntern(t *testing.T) {
	db := compiledFixture()
	c := db.Compile(-95, 4)
	obs := map[string]float64{"apY": -50, "ghost": -40, "apX": -61}
	cols, vals := c.Intern(obs, nil, nil)
	if len(cols) != 2 || len(vals) != 2 {
		t.Fatalf("interned %d cols", len(cols))
	}
	if cols[0] != 0 || cols[1] != 1 {
		t.Errorf("cols = %v, want sorted [0 1]", cols)
	}
	if vals[0] != -61 || vals[1] != -50 {
		t.Errorf("vals = %v", vals)
	}
	// Reusing scratch must not grow the result.
	cols, vals = c.Intern(obs, cols[:0], vals[:0])
	if len(cols) != 2 || cols[0] != 0 {
		t.Errorf("reused scratch: cols = %v", cols)
	}
	if got, _ := c.Intern(map[string]float64{"ghost": -40}, nil, nil); len(got) != 0 {
		t.Errorf("unknown-only observation interned to %v", got)
	}
}

func TestNamesCachedAndInvalidated(t *testing.T) {
	db := compiledFixture()
	a := db.Names()
	b := db.Names()
	if len(a) != 2 || a[0] != "hall" || a[1] != "kitchen" {
		t.Fatalf("Names = %v", a)
	}
	if &a[0] != &b[0] {
		t.Error("Names rebuilt despite no mutation")
	}
	other := &DB{
		Entries: map[string]*Entry{"attic": {Name: "attic", Pos: geom.Pt(0, 0),
			PerAP: map[string]*APStats{"apZ": {BSSID: "apZ", N: 1, Mean: -80, Samples: []float64{-80}}}}},
		BSSIDs: []string{"apZ"},
	}
	if err := db.Merge(other); err != nil {
		t.Fatal(err)
	}
	if got := db.Names(); len(got) != 3 || got[0] != "attic" {
		t.Errorf("Names after Merge = %v", got)
	}
	if !db.RemoveEntry("attic") {
		t.Fatal("RemoveEntry failed")
	}
	if got := db.Names(); len(got) != 2 || got[0] != "hall" {
		t.Errorf("Names after RemoveEntry = %v", got)
	}
}
