package localize

import (
	"errors"
	"math"
	"sync"

	"indoorloc/internal/geom"
	"indoorloc/internal/trainingdb"
)

// KNN is the RADAR baseline: nearest neighbour(s) in signal space.
// The observation vector is compared with each training point's mean
// vector by Euclidean distance in dB; the estimate is the centroid of
// the K closest training points (K=1 is classic NNSS). Weighted mode
// scales each neighbour by the inverse of its signal distance.
//
// Distances are computed against a compiled radio map built on first
// use: each entry's squared distance starts from the precomputed
// all-at-floor baseline and only the heard columns are corrected. The
// database and the K/Floor configuration must not change after the
// first Locate or Warm call.
type KNN struct {
	DB *trainingdb.DB
	// K is the neighbour count; zero means 1.
	K int
	// Weighted selects inverse-distance weighting of the K neighbours.
	Weighted bool
	// FloorRSSI substitutes for APs missing on either side. Typical -95.
	FloorRSSI float64
	// TopK bounds the ranked candidate list, as in MaxLikelihood. The
	// effective bound never drops below K — the centroid always sees
	// its neighbours.
	TopK int
	// Quantize compiles the radio map to int16 matrices (format v2), as
	// in MaxLikelihood.
	Quantize bool
	// Precompiled, when set, is served directly instead of compiling
	// DB, as in MaxLikelihood. SignalDistance still walks DB and is
	// unavailable without one.
	Precompiled *trainingdb.Compiled

	compileOnce sync.Once
	compiled    *trainingdb.Compiled
}

// NewKNN returns a K-nearest-neighbour localizer.
func NewKNN(db *trainingdb.DB, k int) *KNN {
	return &KNN{DB: db, K: k, FloorRSSI: -95}
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

// Warm implements Warmer: it compiles the radio map eagerly (or adopts
// Precompiled), quantizing it when Quantize is set.
func (k *KNN) Warm() error {
	if k.Precompiled == nil && (k.DB == nil || k.DB.Len() == 0) {
		return errors.New("localize: KNN has no training database")
	}
	k.compileOnce.Do(func() {
		if k.Precompiled != nil {
			k.compiled = k.Precompiled
		} else {
			// The spread parameter is irrelevant to signal distances; only
			// the floor level matters here.
			k.compiled = k.DB.Compile(k.FloorRSSI, 4)
		}
		if k.Quantize {
			k.compiled.Quantize()
			k.compiled.ReleaseFloat64()
		}
	})
	return nil
}

// CompiledView implements CompiledSource.
func (k *KNN) CompiledView() *trainingdb.Compiled {
	if err := k.Warm(); err != nil {
		return nil
	}
	return k.compiled
}

// SignalDistance returns the Euclidean distance in dB between an
// observation and a training entry over the database's AP universe,
// substituting floor for missing readings. This is the map-walking
// reference definition; Locate computes the same distances against the
// compiled radio map.
func (k *KNN) SignalDistance(obs Observation, e *trainingdb.Entry) float64 {
	sum := 0.0
	for _, b := range k.DB.BSSIDs {
		var trainVal, obsVal float64
		if s, ok := e.PerAP[b]; ok {
			trainVal = s.Mean
		} else {
			trainVal = k.FloorRSSI
		}
		if v, ok := obs[b]; ok {
			obsVal = v
		} else {
			obsVal = k.FloorRSSI
		}
		d := obsVal - trainVal
		sum += d * d
	}
	return math.Sqrt(sum)
}

// Locate implements Locator.
func (k *KNN) Locate(obs Observation) (Estimate, error) {
	if err := validateObservation(obs); err != nil {
		return Estimate{}, err
	}
	if err := k.Warm(); err != nil {
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
	if c.Quant != nil {
		k.scorePostings(c, cols, vals, scores)
	} else {
		k.scoreAll(c, cols, vals, scores)
	}
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
		pts := make([]geom.Point, len(top))
		for i, c := range top {
			pts[i] = c.Pos
		}
		pos = geom.Centroid(pts)
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

// scoreAll computes every entry's negated signal distance. The
// baseline assumes every column reads the floor; each heard column
// replaces its floor term with the observed one. Mean holds the floor
// level for untrained cells, so one load covers both cases.
//
//loclint:hotpath
func (k *KNN) scoreAll(c *trainingdb.Compiled, cols []int32, vals, scores []float64) {
	nAP := len(c.BSSIDs)
	for i := range scores {
		sum := c.SignalBase[i]
		base := i * nAP
		for h, j := range cols {
			t := c.Mean[base+int(j)]
			dv := vals[h] - t
			df := c.FloorRSSI - t
			sum += dv*dv - df*df
		}
		if sum < 0 {
			sum = 0 // guard the sqrt against rounding on near-exact matches
		}
		scores[i] = -math.Sqrt(sum)
	}
}

// scorePostings is scoreAll over the int16 posting lists. With t a
// cell's mean and F the floor, a heard column's correction
// (v−t)² − (F−t)² equals (v−F)² + 2(v−F)(F−t), and the second term
// vanishes on untrained cells, whose mean is the floor (dequantized,
// within half its column's code step of it). So every entry starts
// from its quantized baseline plus Σ_h (v_h−F)², and each heard
// column's postings add 2(v−F)(F−Center). Accumulators are float64
// throughout.
//
//loclint:hotpath
func (k *KNN) scorePostings(c *trainingdb.Compiled, cols []int32, vals, scores []float64) {
	q, floor := c.Quant, c.FloorRSSI
	var heard float64
	for _, v := range vals {
		heard += (v - floor) * (v - floor)
	}
	for i := range scores {
		scores[i] = q.SignalBase[i] + heard
	}
	for h, j := range cols {
		w := 2 * (vals[h] - floor)
		for _, p := range q.Post[q.PostStart[j]:q.PostStart[j+1]] {
			scores[p.Entry] += w * (floor - float64(p.Center))
		}
	}
	for i, sum := range scores {
		// The max guards the sqrt against rounding on near-exact matches.
		scores[i] = -math.Sqrt(max(0, sum))
	}
}
