package localize

import (
	"testing"

	"indoorloc/internal/geom"
	"indoorloc/internal/trainingdb"
)

// codedDB builds a database whose locations have distinct audible-AP
// codes: each location hears a different subset of four APs.
func codedDB() *trainingdb.DB {
	mk := func(name string, pos geom.Point, bssids ...string) *trainingdb.Entry {
		e := &trainingdb.Entry{Name: name, Pos: pos, PerAP: map[string]*trainingdb.APStats{}}
		for _, b := range bssids {
			e.PerAP[b] = &trainingdb.APStats{
				BSSID: b, N: 10, Mean: -60, StdDev: 2,
				Samples: []float64{-60, -60},
			}
		}
		return e
	}
	return &trainingdb.DB{
		Entries: map[string]*trainingdb.Entry{
			"nw": mk("nw", geom.Pt(0, 40), "ap0", "ap3"),
			"ne": mk("ne", geom.Pt(50, 40), "ap2", "ap3"),
			"sw": mk("sw", geom.Pt(0, 0), "ap0", "ap1"),
			"se": mk("se", geom.Pt(50, 0), "ap1", "ap2"),
		},
		BSSIDs: []string{"ap0", "ap1", "ap2", "ap3"},
	}
}

func TestSectorExactCode(t *testing.T) {
	s := NewSector(view(codedDB()))
	if s.Name() != "sector-code" {
		t.Errorf("Name = %q", s.Name())
	}
	est, err := s.Locate(Observation{"ap0": -60, "ap1": -70})
	if err != nil {
		t.Fatal(err)
	}
	if est.Name != "sw" || est.Pos != geom.Pt(0, 0) {
		t.Errorf("estimate = %q %v", est.Name, est.Pos)
	}
	if est.Score != 0 {
		t.Errorf("exact match score = %v, want 0", est.Score)
	}
}

func TestSectorNearMiss(t *testing.T) {
	s := NewSector(view(codedDB()))
	// Hears ap0 only: Hamming 1 from both "sw" (ap0,ap1) and "nw"
	// (ap0,ap3) — the estimate is their centroid, no single name.
	est, err := s.Locate(Observation{"ap0": -60})
	if err != nil {
		t.Fatal(err)
	}
	if est.Name != "" {
		t.Errorf("ambiguous code picked %q", est.Name)
	}
	want := geom.Pt(0, 20) // midpoint of (0,0) and (0,40)
	if !est.Pos.Equal(want, 1e-9) {
		t.Errorf("centroid = %v, want %v", est.Pos, want)
	}
	if est.Score != -1 {
		t.Errorf("score = %v, want -1", est.Score)
	}
}

func TestSectorCandidatesComplete(t *testing.T) {
	s := NewSector(view(codedDB()))
	est, err := s.Locate(Observation{"ap2": -60, "ap3": -61})
	if err != nil {
		t.Fatal(err)
	}
	if len(est.Candidates) != 4 {
		t.Fatalf("%d candidates", len(est.Candidates))
	}
	if est.Candidates[0].Name != "ne" {
		t.Errorf("top candidate %q", est.Candidates[0].Name)
	}
	for i := 1; i < len(est.Candidates); i++ {
		if est.Candidates[i].Score > est.Candidates[i-1].Score {
			t.Fatal("candidates not ranked")
		}
	}
}

func TestSectorErrors(t *testing.T) {
	s := NewSector(view(codedDB()))
	if _, err := s.Locate(Observation{}); err != ErrEmptyObservation {
		t.Errorf("empty: %v", err)
	}
	if _, err := s.Locate(Observation{"unknown": -50}); err != ErrNoOverlap {
		t.Errorf("no overlap: %v", err)
	}
	empty := NewSector(view(&trainingdb.DB{Entries: map[string]*trainingdb.Entry{}}))
	if _, err := empty.Locate(Observation{"a": -60}); err == nil {
		t.Error("empty DB accepted")
	}
}

func TestSectorAudibleFraction(t *testing.T) {
	db := codedDB()
	// "sw" hears ap2 rarely: 1 sample vs 10 for its main APs.
	db.Entries["sw"].PerAP["ap2"] = &trainingdb.APStats{
		BSSID: "ap2", N: 1, Mean: -90, StdDev: 1, Samples: []float64{-90},
	}
	s := NewSector(view(db)) // fraction 0.5: the stray ap2 is excluded
	est, err := s.Locate(Observation{"ap0": -60, "ap1": -70})
	if err != nil {
		t.Fatal(err)
	}
	if est.Name != "sw" || est.Score != 0 {
		t.Errorf("rare AP polluted the code: %q score %v", est.Name, est.Score)
	}
}

func TestHamming(t *testing.T) {
	cases := []struct {
		a, b uint64
		want int
	}{
		{0, 0, 0},
		{0b1011, 0b1011, 0},
		{0b1011, 0b0011, 1},
		{0, ^uint64(0), 64},
		{0b1010, 0b0101, 4},
	}
	for _, c := range cases {
		if got := hamming(c.a, c.b); got != c.want {
			t.Errorf("hamming(%b, %b) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}
