package localize

import (
	"fmt"
	"math/rand"
	"testing"
)

// randomScores draws n entries with unique names and occasional
// duplicate scores, so the name tiebreak is exercised. Names are
// shuffled against their indices, so index order is not name order.
func randomScores(rng *rand.Rand, n int) (scores []float64, names []string) {
	scores, names = make([]float64, n), make([]string, n)
	for i := range scores {
		scores[i] = float64(rng.Intn(n/2+1)) - float64(n)/4 // collisions on purpose
		names[i] = fmt.Sprintf("loc-%04d", i)
	}
	rng.Shuffle(n, func(i, j int) { names[i], names[j] = names[j], names[i] })
	return scores, names
}

// TestTopKMatchesFullSortPrefix is the selection property: for every
// (n, k), the selected indices must name exactly the full sort's
// prefix — same candidates, same order, ties resolved identically.
func TestTopKMatchesFullSortPrefix(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(300)
		k := 1 + rng.Intn(n+4) // sometimes k > n: clamped to n
		scores, names := randomScores(rng, n)
		want := make([]Candidate, n)
		for i := range want {
			want[i] = Candidate{Name: names[i], Score: scores[i]}
		}
		rankCandidates(want)

		got := TopK(scores, names, make([]int32, k))
		if wantLen := min(k, n); len(got) != wantLen {
			t.Fatalf("n=%d k=%d: len = %d, want %d", n, k, len(got), wantLen)
		}
		for r, i := range got {
			if c := (Candidate{Name: names[i], Score: scores[i]}); c != want[r] {
				t.Fatalf("n=%d k=%d: prefix[%d] = %+v, full sort has %+v", n, k, r, c, want[r])
			}
		}
	}
}

// TestTopKPermutes pins that selection never loses or invents an
// entry: the indices are distinct and in range, and the scores and
// names it read are left untouched.
func TestTopKPermutes(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 50; trial++ {
		n := 2 + rng.Intn(100)
		scores, names := randomScores(rng, n)
		wantScores := append([]float64(nil), scores...)
		wantNames := append([]string(nil), names...)
		got := TopK(scores, names, make([]int32, 1+rng.Intn(n)))
		seen := make(map[int32]bool, len(got))
		for _, i := range got {
			if i < 0 || int(i) >= n || seen[i] {
				t.Fatalf("index %d out of range or repeated in %v", i, got)
			}
			seen[i] = true
		}
		for i := range scores {
			if scores[i] != wantScores[i] || names[i] != wantNames[i] {
				t.Fatalf("entry %d changed by TopK", i)
			}
		}
	}
}

func TestTopKEdges(t *testing.T) {
	if got := TopK(nil, nil, make([]int32, 3)); len(got) != 0 {
		t.Errorf("TopK(nil) = %v", got)
	}
	scores, names := []float64{1}, []string{"only"}
	if got := TopK(scores, names, nil); len(got) != 0 { // k=0 selects nothing
		t.Errorf("TopK(k=0) = %v", got)
	}
	if got := TopK(scores, names, make([]int32, 4)); len(got) != 1 || got[0] != 0 {
		t.Errorf("TopK(k>n) = %v", got)
	}
}

// TestTopKZeroAllocs pins the hot-path contract testing.AllocsPerRun
// can see: bounded selection into a caller's buffer allocates nothing.
func TestTopKZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	scores, names := randomScores(rng, 512)
	idx := make([]int32, 8)
	if avg := testing.AllocsPerRun(100, func() {
		TopK(scores, names, idx)
	}); avg != 0 {
		t.Errorf("TopK allocates %v per run, want 0", avg)
	}
}

// TestLocatorsTopKMatchesFullRanking is the integration property: with
// TopK set, every locator must return exactly the first k candidates
// of its full ranking, and the same winner. (Histogram's posterior is
// renormalized over the retained set, so its scores are compared
// before normalization via the winner identity only.)
func TestLocatorsTopKMatchesFullRanking(t *testing.T) {
	for seed := int64(20); seed < 24; seed++ {
		rng := rand.New(rand.NewSource(seed))
		db := randomTrainDB(rng, 30+rng.Intn(120), 4+rng.Intn(12), 0.3+rng.Float64()*0.6)
		if len(db.BSSIDs) == 0 {
			continue
		}
		const k = 5

		mlFull := NewMaxLikelihood(db)
		mlTop := NewMaxLikelihood(db)
		mlTop.TopK = k
		histFull := NewHistogram(db)
		histTop := NewHistogram(db)
		histTop.TopK = k
		knnFull := NewKNN(db, 3)
		knnTop := NewKNN(db, 3)
		knnTop.TopK = k
		secFull := NewSector(db)
		secTop := NewSector(db)
		secTop.TopK = k

		for trial := 0; trial < 10; trial++ {
			obs := randomObs(rng, db, 0.2+rng.Float64()*0.7)
			if len(obs) == 0 {
				continue
			}
			tag := fmt.Sprintf("seed %d trial %d", seed, trial)

			check := func(algo string, full, top Estimate, exactScores bool) {
				t.Helper()
				if top.Name != full.Name {
					t.Fatalf("%s %s: Name = %q, full ranking %q", tag, algo, top.Name, full.Name)
				}
				want := k
				if want > len(full.Candidates) {
					want = len(full.Candidates)
				}
				if len(top.Candidates) != want {
					t.Fatalf("%s %s: %d candidates, want %d", tag, algo, len(top.Candidates), want)
				}
				for i, c := range top.Candidates {
					if c.Name != full.Candidates[i].Name {
						t.Fatalf("%s %s: candidate %d = %q, full ranking %q",
							tag, algo, i, c.Name, full.Candidates[i].Name)
					}
					if exactScores && c.Score != full.Candidates[i].Score {
						t.Fatalf("%s %s: candidate %d score = %v, full ranking %v",
							tag, algo, i, c.Score, full.Candidates[i].Score)
					}
				}
			}

			fe, ferr := mlFull.Locate(obs)
			te, terr := mlTop.Locate(obs)
			if (ferr == nil) != (terr == nil) {
				t.Fatalf("%s ml: err %v vs %v", tag, terr, ferr)
			}
			if ferr == nil {
				check("ml", fe, te, true)
			}

			fe, ferr = histFull.Locate(obs)
			te, terr = histTop.Locate(obs)
			if (ferr == nil) != (terr == nil) {
				t.Fatalf("%s hist: err %v vs %v", tag, terr, ferr)
			}
			if ferr == nil {
				check("hist", fe, te, false)
			}

			fe, ferr = knnFull.Locate(obs)
			te, terr = knnTop.Locate(obs)
			if (ferr == nil) != (terr == nil) {
				t.Fatalf("%s knn: err %v vs %v", tag, terr, ferr)
			}
			if ferr == nil {
				check("knn", fe, te, true)
				if te.Pos != fe.Pos {
					t.Fatalf("%s knn: centroid %v, full ranking %v", tag, te.Pos, fe.Pos)
				}
			}

			fe, ferr = secFull.Locate(obs)
			te, terr = secTop.Locate(obs)
			if (ferr == nil) != (terr == nil) {
				t.Fatalf("%s sector: err %v vs %v", tag, terr, ferr)
			}
			if ferr == nil {
				check("sector", fe, te, true)
			}
		}
	}
}

// TestKNNTopKNeverBelowK pins the bound floor: TopK smaller than K
// must still hand the centroid K neighbours.
func TestKNNTopKNeverBelowK(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	db := randomTrainDB(rng, 40, 8, 0.7)
	knn := NewKNN(db, 4)
	knn.TopK = 2 // below K
	obs := randomObs(rng, db, 0.8)
	est, err := knn.Locate(obs)
	if err != nil {
		t.Fatal(err)
	}
	if len(est.Candidates) != 4 {
		t.Fatalf("retained %d candidates, want K=4", len(est.Candidates))
	}
}
