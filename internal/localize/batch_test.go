package localize

import (
	"math/rand"
	"testing"

	"indoorloc/internal/geom"
)

func batchFixture(t *testing.T) (Locator, []Observation) {
	t.Helper()
	env := quietEnv(t)
	db := buildDB(t, env, 10, 1)
	rng := rand.New(rand.NewSource(3))
	var obs []Observation
	for i := 0; i < 50; i++ {
		p := observe(env, randomHousePoint(rng), 5, rng)
		obs = append(obs, p)
	}
	return NewMaxLikelihood(db), obs
}

func randomHousePoint(rng *rand.Rand) geom.Point {
	return geom.Pt(rng.Float64()*50, rng.Float64()*40)
}

// TestBatchIntoMatchesSequential checks the pooled fan-out returns the
// same estimates and errors as the serial loop, in order, on the
// paper's house and on a map large enough that one locate is a long
// scan.
func TestBatchIntoMatchesSequential(t *testing.T) {
	t.Run("house", func(t *testing.T) {
		loc, obs := batchFixture(t)
		obs[3] = Observation{}                  // empty → error
		obs[11] = Observation{"gh:os:t": -50.0} // no overlap → error
		checkBatchInto(t, loc, obs)
	})
	t.Run("map=320", func(t *testing.T) {
		rng := rand.New(rand.NewSource(21))
		db := randomTrainDB(rng, 320, 12, 0.6)
		var obs []Observation
		for len(obs) < 48 {
			if o := randomObs(rng, db, 0.7); len(o) > 0 {
				obs = append(obs, o)
			}
		}
		checkBatchInto(t, NewMaxLikelihood(db), obs)
		// The int16 posting scan and the index selector share the
		// pooled score and index buffers across the pool's workers.
		ml := NewMaxLikelihood(db)
		ml.Quantize, ml.TopK = true, 8
		checkBatchInto(t, ml, obs)
	})
}

// checkBatchInto compares BatchInto with the serial reference, one
// Locate per observation in order.
func checkBatchInto(t *testing.T, loc Locator, obs []Observation) {
	t.Helper()
	seq := make([]BatchResult, len(obs))
	for i, o := range obs {
		est, err := loc.Locate(o)
		seq[i] = BatchResult{Estimate: est, Err: err}
	}
	out := make([]BatchResult, len(obs))
	BatchInto(loc, obs, out)
	for i := range seq {
		if seq[i].Err != out[i].Err {
			t.Fatalf("obs %d: err %v vs %v", i, seq[i].Err, out[i].Err)
		}
		if seq[i].Err != nil {
			continue
		}
		if seq[i].Estimate.Name != out[i].Estimate.Name ||
			seq[i].Estimate.Pos != out[i].Estimate.Pos ||
			seq[i].Estimate.Score != out[i].Estimate.Score {
			t.Fatalf("obs %d: %+v vs %+v", i, seq[i].Estimate, out[i].Estimate)
		}
	}
}

func TestBatchHistogramConcurrent(t *testing.T) {
	// The histogram localizer builds its tables lazily under sync.Once;
	// concurrent first locates must not race (this test runs under
	// -race in CI).
	env := quietEnv(t)
	db := buildDB(t, env, 10, 1)
	h := NewHistogram(db)
	rng := rand.New(rand.NewSource(4))
	var obs []Observation
	for i := 0; i < 30; i++ {
		obs = append(obs, observe(env, randomHousePoint(rng), 5, rng))
	}
	res := make([]BatchResult, len(obs))
	BatchInto(h, obs, res)
	for i, r := range res {
		if r.Err != nil {
			t.Fatalf("obs %d: %v", i, r.Err)
		}
	}
}

func TestBatchErrorsPropagatePerObservation(t *testing.T) {
	loc, obs := batchFixture(t)
	obs[7] = Observation{}                  // empty → error
	obs[23] = Observation{"gh:os:t": -50.0} // no overlap → error
	res := make([]BatchResult, len(obs))
	BatchInto(loc, obs, res)
	if res[7].Err != ErrEmptyObservation {
		t.Errorf("obs 7 err = %v", res[7].Err)
	}
	if res[23].Err != ErrNoOverlap {
		t.Errorf("obs 23 err = %v", res[23].Err)
	}
	if res[8].Err != nil {
		t.Errorf("neighbouring observation poisoned: %v", res[8].Err)
	}
}

// TestBatchDegenerate covers the smallest batches: no observations
// touch nothing, one observation runs inline, and two — the smallest
// batch that offers work to the pool — and five still match the serial
// loop.
func TestBatchDegenerate(t *testing.T) {
	loc, obs := batchFixture(t)
	BatchInto(loc, nil, []BatchResult{})
	one := make([]BatchResult, 1)
	BatchInto(loc, obs[:1], one)
	if one[0].Err != nil || one[0].Estimate.Name == "" {
		t.Errorf("single observation: %+v", one[0])
	}
	checkBatchInto(t, loc, obs[:2])
	checkBatchInto(t, loc, obs[:5])
}

// TestBatchIntoDegenerate pins the edge cases: empty input is a no-op,
// a one-element batch runs inline, and an oversized out slice is left
// untouched beyond len(observations).
func TestBatchIntoDegenerate(t *testing.T) {
	loc, obs := batchFixture(t)
	BatchInto(loc, nil, nil) // must not panic
	out := make([]BatchResult, 4)
	BatchInto(loc, obs[:1], out)
	if out[0].Err != nil {
		t.Errorf("single observation failed: %v", out[0].Err)
	}
	if out[1].Err != nil || out[1].Estimate.Candidates != nil || out[1].Estimate.Name != "" {
		t.Error("BatchInto wrote past len(observations)")
	}
}
