package localize

import (
	"math/rand"
	"testing"

	"indoorloc/internal/geom"
)

func hybridFixture(t *testing.T) (*Hybrid, func(geom.Point, int) Observation) {
	t.Helper()
	env := quietEnv(t)
	db := buildDB(t, env, 20, 1)
	geo, err := FitGeometric(db, apPositions(houseAPs()), paperBasis())
	if err != nil {
		t.Fatal(err)
	}
	h, err := NewHybrid(NewMaxLikelihood(view(db)), geo)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(21))
	return h, func(p geom.Point, n int) Observation { return observe(env, p, n, rng) }
}

func TestNewHybridValidation(t *testing.T) {
	if _, err := NewHybrid(nil, nil); err == nil {
		t.Error("nil pair accepted")
	}
	if _, err := NewHybrid(&MaxLikelihood{}, nil); err == nil {
		t.Error("nil geometric accepted")
	}
}

func TestHybridBasics(t *testing.T) {
	h, obsAt := hybridFixture(t)
	if h.Name() != "hybrid" {
		t.Errorf("Name = %q", h.Name())
	}
	target := geom.Pt(23, 19)
	est, err := h.Locate(obsAt(target, 10))
	if err != nil {
		t.Fatal(err)
	}
	if est.Name == "" {
		t.Error("symbolic answer lost")
	}
	if est.Pos.Dist(target) > 8 {
		t.Errorf("hybrid error %.1f ft", est.Pos.Dist(target))
	}
	if len(est.Candidates) == 0 {
		t.Error("candidates lost")
	}
}

func TestHybridFallsBackWhenGeometricFails(t *testing.T) {
	h, _ := hybridFixture(t)
	// Two APs only: geometric refuses, probabilistic still answers.
	obs := Observation{
		h.Geo.APs[0].BSSID: -55,
		h.Geo.APs[1].BSSID: -60,
	}
	est, err := h.Locate(obs)
	if err != nil {
		t.Fatal(err)
	}
	if est.Name == "" {
		t.Error("fallback lost the symbolic answer")
	}
}

func TestHybridPropagatesProbabilisticErrors(t *testing.T) {
	h, _ := hybridFixture(t)
	if _, err := h.Locate(Observation{}); err != ErrEmptyObservation {
		t.Errorf("empty: %v", err)
	}
	if _, err := h.Locate(Observation{"zz": -50}); err != ErrNoOverlap {
		t.Errorf("no overlap: %v", err)
	}
}

func TestTopShare(t *testing.T) {
	if got := topShare(nil); got != 1 {
		t.Errorf("empty = %v", got)
	}
	flat := []Candidate{{Score: -3}, {Score: -3}, {Score: -3}, {Score: -3}}
	if got := topShare(flat); got < 0.24 || got > 0.26 {
		t.Errorf("flat posterior share = %v, want 0.25", got)
	}
	confident := []Candidate{{Score: 0}, {Score: -100}}
	if got := topShare(confident); got < 0.999 {
		t.Errorf("confident share = %v", got)
	}
}

func TestHybridAccuracyComparable(t *testing.T) {
	h, obsAt := hybridFixture(t)
	var hybridTotal, probTotal float64
	targets := []geom.Point{
		geom.Pt(15, 15), geom.Pt(25, 25), geom.Pt(35, 12), geom.Pt(8, 30), geom.Pt(42, 20),
	}
	for _, target := range targets {
		obs := obsAt(target, 10)
		he, err := h.Locate(obs)
		if err != nil {
			t.Fatal(err)
		}
		pe, err := h.Prob.Locate(obs)
		if err != nil {
			t.Fatal(err)
		}
		hybridTotal += he.Pos.Dist(target)
		probTotal += pe.Pos.Dist(target)
	}
	// The hybrid should at minimum not be wildly worse than its
	// probabilistic half in a quiet environment.
	if hybridTotal > probTotal*1.5+5 {
		t.Errorf("hybrid total %.1f ft vs probabilistic %.1f ft", hybridTotal, probTotal)
	}
}
