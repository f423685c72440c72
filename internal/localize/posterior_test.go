package localize

import (
	"math/rand"
	"testing"

	"indoorloc/internal/geom"
)

func TestExpectedPositionBetweenGridPoints(t *testing.T) {
	env := quietEnv(t)
	db := buildDB(t, env, 20, 1)
	ml := NewMaxLikelihood(view(db))
	ml.ExpectedPosition = true
	rng := rand.New(rand.NewSource(12))
	// Observe midway between two training points: the expected position
	// can land between grid points, where the argmax never can.
	target := geom.Pt(25, 20)
	est, err := ml.Locate(observe(env, target, 15, rng))
	if err != nil {
		t.Fatal(err)
	}
	// Name still reports the argmax training point.
	if est.Name == "" {
		t.Error("argmax name lost")
	}
	if est.Pos.Dist(target) > 10 {
		t.Errorf("expected position %v far from %v", est.Pos, target)
	}
	// The posterior mean generally differs from the argmax position.
	if est.Pos == est.Candidates[0].Pos {
		t.Log("posterior mean coincided with argmax (possible but unusual)")
	}
}

func TestExpectedPositionAveragesBetterMidCell(t *testing.T) {
	env := quietEnv(t)
	db := buildDB(t, env, 20, 1)
	argmax := NewMaxLikelihood(view(db))
	expected := NewMaxLikelihood(view(db))
	expected.ExpectedPosition = true
	rng := rand.New(rand.NewSource(13))
	// Mid-cell targets: argmax is forced to a corner ≥ 7.07 ft away;
	// the posterior mean can interpolate.
	var argmaxTotal, expectedTotal float64
	targets := []geom.Point{
		geom.Pt(15, 15), geom.Pt(25, 25), geom.Pt(35, 15), geom.Pt(15, 25),
	}
	for _, target := range targets {
		obs := observe(env, target, 15, rng)
		ea, err := argmax.Locate(obs)
		if err != nil {
			t.Fatal(err)
		}
		ee, err := expected.Locate(obs)
		if err != nil {
			t.Fatal(err)
		}
		argmaxTotal += ea.Pos.Dist(target)
		expectedTotal += ee.Pos.Dist(target)
	}
	if expectedTotal >= argmaxTotal {
		t.Errorf("posterior mean (%.1f ft total) not better than argmax (%.1f ft) on mid-cell targets",
			expectedTotal, argmaxTotal)
	}
}

func TestPosteriorMeanDegenerate(t *testing.T) {
	if got := posteriorMean(nil); got != geom.Pt(0, 0) {
		t.Errorf("empty = %v", got)
	}
	one := []Candidate{{Pos: geom.Pt(3, 4), Score: -5}}
	if got := posteriorMean(one); got != geom.Pt(3, 4) {
		t.Errorf("single = %v", got)
	}
	// A dominant candidate pulls the mean onto itself.
	two := []Candidate{
		{Pos: geom.Pt(0, 0), Score: 0},
		{Pos: geom.Pt(10, 10), Score: -1000},
	}
	if got := posteriorMean(two); got.Dist(geom.Pt(0, 0)) > 1e-9 {
		t.Errorf("dominant = %v", got)
	}
}
