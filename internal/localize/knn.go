package localize

import (
	"math"

	"indoorloc/internal/geom"
	"indoorloc/internal/trainingdb"
)

// KNN is the RADAR baseline: nearest neighbour(s) in signal space.
// The observation vector is compared with each training point's mean
// vector by Euclidean distance in dB; the estimate is the centroid of
// the K closest training points (K=1 is classic NNSS). Weighted mode
// scales each neighbour by the inverse of its signal distance.
//
// Distances are computed against the compiled radio map the locator
// is built over: each entry's squared distance starts from the
// precomputed all-at-floor baseline and only the heard columns'
// postings are corrected. The view's FloorRSSI substitutes for APs
// missing on either side.
type KNN struct {
	// K is the neighbour count; zero means 1.
	K int
	// Weighted selects inverse-distance weighting of the K neighbours.
	Weighted bool
	// TopK bounds the ranked candidate list, as in MaxLikelihood. The
	// effective bound never drops below K — the centroid always sees
	// its neighbours.
	TopK int

	compiled *trainingdb.Compiled
}

// NewKNN returns a K-nearest-neighbour localizer scoring against c.
func NewKNN(c *trainingdb.Compiled, k int) *KNN {
	return &KNN{K: k, compiled: c}
}

// Name implements Locator.
func (k *KNN) Name() string {
	if k.kVal() == 1 {
		return "nnss"
	}
	if k.Weighted {
		return "wknn"
	}
	return "knn"
}

func (k *KNN) kVal() int {
	if k.K <= 0 {
		return 1
	}
	return k.K
}

// Locate implements Locator.
//
//loclint:hotpath
func (k *KNN) Locate(obs Observation) (Estimate, error) {
	if err := validateObservation(obs); err != nil {
		return Estimate{}, err
	}
	c := k.compiled
	sc := getScratch()
	defer putScratch(sc)
	sc.cols, sc.vals = c.Intern(obs, sc.cols[:0], sc.vals[:0])
	cols, vals := sc.cols, sc.vals
	if len(cols) == 0 {
		return Estimate{}, ErrNoOverlap
	}
	topk := k.TopK
	if topk > 0 && topk < k.kVal() {
		topk = k.kVal() // the centroid needs at least K neighbours
	}
	scores := sc.scores(len(c.Names))
	scoreDistances(c, cols, vals, scores)
	candidates := rankScores(c, scores, topk, sc)
	kk := k.kVal()
	if kk > len(candidates) {
		kk = len(candidates)
	}
	top := candidates[:kk]
	var pos geom.Point
	if k.Weighted {
		var wsum float64
		for _, c := range top {
			w := 1 / (1e-6 - c.Score) // score is -distance
			pos = pos.Add(c.Pos.Scale(w))
			wsum += w
		}
		pos = pos.Scale(1 / wsum)
	} else {
		// geom.Centroid's sums, without its slice of points.
		for _, c := range top {
			pos.X += c.Pos.X
			pos.Y += c.Pos.Y
		}
		pos = pos.Scale(1 / float64(len(top)))
	}
	name := ""
	if kk == 1 {
		name = top[0].Name
	}
	return Estimate{
		Pos:        pos,
		Name:       name,
		Score:      top[0].Score,
		Candidates: candidates,
	}, nil
}

// scoreDistances computes every entry's negated signal distance over
// the posting lists. The baseline assumes every column reads the
// floor F. With t a trained cell's mean, a heard column's correction
// (v−t)² − (F−t)² equals (v−F)² + 2(v−F)(F−t); an untrained cell
// reads the floor on the training side, so only (v−F)² remains. So
// every entry starts from its baseline plus Σ_h (v_h−F)², and each
// heard column's postings add 2(v−F)(F−Center). Accumulators are
// float64 throughout.
//
//loclint:hotpath
func scoreDistances(c *trainingdb.Compiled, cols []int32, vals, scores []float64) {
	floor := c.FloorRSSI
	var heard float64
	for _, v := range vals {
		heard += (v - floor) * (v - floor)
	}
	for i := range scores {
		scores[i] = c.SignalBase[i] + heard
	}
	for h, j := range cols {
		w := 2 * (vals[h] - floor)
		for _, p := range c.Post[c.PostStart[j]:c.PostStart[j+1]] {
			scores[p.Entry] += w * (floor - float64(p.Center))
		}
	}
	for i, sum := range scores {
		// The max guards the sqrt against rounding on near-exact matches.
		scores[i] = -math.Sqrt(max(0, sum))
	}
}
