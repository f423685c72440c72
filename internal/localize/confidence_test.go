package localize

import (
	"fmt"
	"math/rand"
	"testing"

	"indoorloc/internal/geom"
)

func TestConfidenceRadiusDegenerate(t *testing.T) {
	if got := ConfidenceRadius(Estimate{}, 0.9); got != 0 {
		t.Errorf("no candidates: %v", got)
	}
}

func TestConfidenceRadiusConcentrated(t *testing.T) {
	// One overwhelming candidate at the estimate: radius 0 at any
	// fraction.
	est := Estimate{
		Pos: geom.Pt(10, 10),
		Candidates: []Candidate{
			{Pos: geom.Pt(10, 10), Score: 0},
			{Pos: geom.Pt(40, 40), Score: -500},
		},
	}
	if got := ConfidenceRadius(est, 0.95); got != 0 {
		t.Errorf("concentrated radius = %v", got)
	}
}

func TestConfidenceRadiusSpread(t *testing.T) {
	// Four equally likely candidates at 0, 10, 20, 30 ft from the
	// estimate: 50% needs the second, 95% the fourth.
	est := Estimate{
		Pos: geom.Pt(0, 0),
		Candidates: []Candidate{
			{Pos: geom.Pt(0, 0), Score: -1},
			{Pos: geom.Pt(10, 0), Score: -1},
			{Pos: geom.Pt(20, 0), Score: -1},
			{Pos: geom.Pt(30, 0), Score: -1},
		},
	}
	if got := ConfidenceRadius(est, 0.5); got != 10 {
		t.Errorf("50%% radius = %v, want 10", got)
	}
	if got := ConfidenceRadius(est, 0.95); got != 30 {
		t.Errorf("95%% radius = %v, want 30", got)
	}
	// Fraction clamping.
	if got := ConfidenceRadius(est, 5); got != 30 {
		t.Errorf("clamped high = %v", got)
	}
	if got := ConfidenceRadius(est, -1); got != 10 {
		t.Errorf("clamped low (defaults to 0.5) = %v", got)
	}
}

func TestConfidenceRadiusNormalisedScores(t *testing.T) {
	// Histogram-style candidates: scores are probabilities already.
	est := Estimate{
		Pos: geom.Pt(0, 0),
		Candidates: []Candidate{
			{Pos: geom.Pt(0, 0), Score: 0.7},
			{Pos: geom.Pt(10, 0), Score: 0.2},
			{Pos: geom.Pt(50, 0), Score: 0.1},
		},
	}
	if got := ConfidenceRadius(est, 0.85); got != 10 {
		t.Errorf("85%% radius = %v, want 10", got)
	}
	if got := ConfidenceRadius(est, 0.99); got != 50 {
		t.Errorf("99%% radius = %v, want 50", got)
	}
}

// TestConfidenceRadiusZeroAllocs pins the scratch-pool fix: the massAt
// accumulation must not allocate per call once the pool is warm.
func TestConfidenceRadiusZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	cands := make([]Candidate, 200)
	for i := range cands {
		cands[i] = Candidate{
			Pos:   geom.Pt(rng.Float64()*100, rng.Float64()*80),
			Score: -rng.Float64() * 50,
		}
	}
	est := Estimate{Pos: cands[0].Pos, Candidates: cands}
	ConfidenceRadius(est, 0.9) // warm the pool
	if n := testing.AllocsPerRun(100, func() {
		ConfidenceRadius(est, 0.9)
	}); n != 0 {
		t.Errorf("ConfidenceRadius allocates %v per call", n)
	}
}

// BenchmarkConfidenceRadius prices the per-query confidence pass at
// serving candidate-list sizes; allocs/op must stay 0.
func BenchmarkConfidenceRadius(b *testing.B) {
	for _, n := range []int{8, 100, 1000} {
		b.Run(fmt.Sprintf("candidates=%d", n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(18))
			cands := make([]Candidate, n)
			for i := range cands {
				cands[i] = Candidate{
					Pos:   geom.Pt(rng.Float64()*100, rng.Float64()*80),
					Score: -rng.Float64() * 50,
				}
			}
			est := Estimate{Pos: cands[0].Pos, Candidates: cands}
			ConfidenceRadius(est, 0.9)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ConfidenceRadius(est, 0.9)
			}
		})
	}
}

// BenchmarkObservationBSSIDs compares the allocating convenience form
// with the scratch-reusing AppendBSSIDs the serving path uses.
func BenchmarkObservationBSSIDs(b *testing.B) {
	rng := rand.New(rand.NewSource(19))
	obs := make(Observation, 32)
	for i := 0; i < 32; i++ {
		obs[fmt.Sprintf("aa:bb:cc:dd:%02x:%02x", i, i)] = -40 - rng.Float64()*50
	}
	b.Run("BSSIDs", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if got := obs.BSSIDs(); len(got) != 32 {
				b.Fatal("wrong length")
			}
		}
	})
	b.Run("AppendBSSIDs", func(b *testing.B) {
		buf := make([]string, 0, 32)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			buf = obs.AppendBSSIDs(buf[:0])
			if len(buf) != 32 {
				b.Fatal("wrong length")
			}
		}
	})
}

func TestConfidenceRadiusMonotoneInFraction(t *testing.T) {
	env := quietEnv(t)
	db := buildDB(t, env, 10, 1)
	ml := NewMaxLikelihood(view(db))
	rng := rand.New(rand.NewSource(6))
	est, err := ml.Locate(observe(env, geom.Pt(22, 18), 10, rng))
	if err != nil {
		t.Fatal(err)
	}
	prev := -1.0
	for _, f := range []float64{0.25, 0.5, 0.75, 0.9, 0.99} {
		r := ConfidenceRadius(est, f)
		if r < prev {
			t.Fatalf("radius shrank: %v at %v", r, f)
		}
		prev = r
	}
	// A confident fix should bound 90% of mass within a few cells.
	if r := ConfidenceRadius(est, 0.9); r > 30 {
		t.Errorf("90%% radius = %v ft, suspiciously wide", r)
	}
}
