package localize

import (
	"indoorloc/internal/stats"
	"indoorloc/internal/trainingdb"
)

// MaxLikelihood is the paper's probabilistic approach (§5.1). For each
// training point it evaluates, per AP, the Gaussian likelihood
//
//	value = exp(-(observation-training)²/(2σ²)) / sqrt(2πσ²)
//
// with the training point's stored mean and standard deviation, and
// multiplies the per-AP values (a log-domain sum here, to survive many
// APs). The training point with the maximum likelihood is the
// estimate; like the paper, the method "does not return the coordinate
// values of the observed location, but returns the most approximate
// training location instead".
//
// Scoring runs against the compiled radio map (trainingdb.Compiled)
// the locator is built over: each entry starts from its precomputed
// "heard nothing" baseline and only the heard columns' posting lists
// are walked, so one Locate is O(entries + heard postings) with no map
// lookups. The view's FloorRSSI and FloorSigma model APs present on
// one side (observation or training entry) but not the other.
type MaxLikelihood struct {
	// ExpectedPosition switches the returned coordinates from the
	// maximum-likelihood training point (the paper's rule) to the
	// posterior-weighted mean over all training points. Name still
	// reports the argmax, so the paper's validity metric is unaffected.
	ExpectedPosition bool
	// TopK bounds the ranked candidate list to the best k entries via
	// bounded selection instead of a full sort; zero returns the full
	// ranking. With TopK set, ExpectedPosition averages over the
	// retained candidates only — on radio maps large enough for TopK to
	// matter the posterior mass beyond the leaders is negligible.
	TopK int

	compiled *trainingdb.Compiled
}

// NewMaxLikelihood returns a MaxLikelihood scoring against c.
func NewMaxLikelihood(c *trainingdb.Compiled) *MaxLikelihood {
	return &MaxLikelihood{compiled: c}
}

// Name implements Locator.
func (m *MaxLikelihood) Name() string { return "probabilistic-ml" }

// Locate implements Locator.
//
//loclint:hotpath
func (m *MaxLikelihood) Locate(obs Observation) (Estimate, error) {
	if err := validateObservation(obs); err != nil {
		return Estimate{}, err
	}
	c := m.compiled
	sc := getScratch()
	defer putScratch(sc)
	sc.cols, sc.vals = c.Intern(obs, sc.cols[:0], sc.vals[:0])
	cols, vals := sc.cols, sc.vals
	if len(cols) == 0 {
		return Estimate{}, ErrNoOverlap
	}
	// The "heard an AP this entry never trained" term depends only on
	// the observation — precompute it once per heard column.
	aux := sc.aux[:0]
	for _, v := range vals {
		aux = append(aux, stats.LogGaussianPDF(v, c.FloorRSSI, c.FloorSigma)) //loclint:allow hotpathalloc
	}
	sc.aux = aux
	// Score every entry into the pooled buffer; only the returned
	// candidates are built from it.
	scores := sc.scores(len(c.Names))
	scorePostings(c, cols, vals, aux, scores)
	candidates := rankScores(c, scores, m.TopK, sc)
	best := candidates[0]
	est := Estimate{
		Pos:        best.Pos,
		Name:       best.Name,
		Score:      best.Score,
		Candidates: candidates,
	}
	if m.ExpectedPosition {
		est.Pos = posteriorMean(candidates)
	}
	return est, nil
}

// scorePostings scores every entry over the posting lists, visiting
// trained cells only. Every entry starts from its all-unheard baseline
// plus the untrained term of every heard column — absence is evidence
// too; each heard column's postings then swap that term for the
// Gaussian correction, from the record's precomputed center, half
// precision and constant (trainingdb.Posting). Trained is not read.
// Arithmetic and accumulation are float64.
//
//loclint:hotpath
func scorePostings(c *trainingdb.Compiled, cols []int32, vals, aux, scores []float64) {
	var unheard float64
	for _, a := range aux {
		unheard += a
	}
	for i := range scores {
		scores[i] = c.UnheardLL[i] + unheard
	}
	for h, j := range cols {
		v, a := vals[h], aux[h]
		for _, p := range c.Post[c.PostStart[j]:c.PostStart[j+1]] {
			d := (v - float64(p.Center)) * float64(p.HalfPrec)
			scores[p.Entry] += float64(p.Const) - a - d*d
		}
	}
}

// Histogram is the Bayesian histogram-matching localizer the paper
// sketches as future work ("our new algorithm will consider the
// distribution of these values"): instead of collapsing each
// ⟨training point, AP⟩ sample set to a mean and σ, it bins the raw
// samples and scores an observation by the smoothed bin probability,
// combined across APs in log space with a uniform prior over training
// points. The posterior over training points is exposed through the
// candidate scores.
//
// Scoring runs against flat per-posting log-probability tables built
// from the raw samples when the locator is constructed.
type Histogram struct {
	// TopK bounds the ranked candidate list, as in MaxLikelihood. The
	// posterior is renormalized over the retained candidates, so the
	// scores still sum to 1 — a documented approximation that slightly
	// inflates each retained probability by the dropped tail's mass.
	TopK int

	compiled *trainingdb.Compiled
	tables   *histTables
}

// NewHistogram returns a Histogram localizer over c's posting lists,
// with tables binned from db's raw samples in 1-dB bins over the
// practical RSSI range. c must be compiled from db; its FloorRSSI is
// the level unheard APs are scored at.
func NewHistogram(db *trainingdb.DB, c *trainingdb.Compiled) *Histogram {
	return &Histogram{compiled: c, tables: buildTables(db, c)}
}

// Name implements Locator.
func (h *Histogram) Name() string { return "probabilistic-histogram" }

// Locate implements Locator.
//
//loclint:hotpath
func (h *Histogram) Locate(obs Observation) (Estimate, error) {
	if err := validateObservation(obs); err != nil {
		return Estimate{}, err
	}
	c, t := h.compiled, h.tables
	sc := getScratch()
	defer putScratch(sc)
	sc.cols, sc.vals = c.Intern(obs, sc.cols[:0], sc.vals[:0])
	cols, vals := sc.cols, sc.vals
	if len(cols) == 0 {
		return Estimate{}, ErrNoOverlap
	}
	// Bin each heard level once; the bin depends only on the
	// observation, not the entry.
	binIdx := sc.bins[:0]
	for _, v := range vals {
		binIdx = append(binIdx, int32(histBin(v))) //loclint:allow hotpathalloc
	}
	sc.bins = binIdx
	scores := sc.scores(len(c.Names))
	h.scoreAll(c, t, cols, binIdx, scores)
	candidates := rankScores(c, scores, h.TopK, sc)
	// Normalise scores into a posterior for the candidates (softmax of
	// log-likelihoods with uniform prior; under TopK the posterior is
	// over the retained candidates — see the field comment).
	normalizePosterior(candidates)
	best := candidates[0]
	return Estimate{
		Pos:        best.Pos,
		Name:       best.Name,
		Score:      best.Score,
		Candidates: candidates,
	}, nil
}

// scoreAll scores every entry. Baseline: every trained AP scored at
// the floor level; heard columns swap in the observed bin (trained) or
// the uniform smoothed mass of an empty histogram (untrained). Each
// heard column walks every entry with a cursor over its posting list,
// so every entry's terms are added in ascending column order.
//
//loclint:hotpath
func (h *Histogram) scoreAll(c *trainingdb.Compiled, t *histTables, cols []int32, binIdx []int32, scores []float64) {
	copy(scores, t.base)
	for h2, j := range cols {
		k, end := c.PostStart[j], c.PostStart[j+1]
		for i := range scores {
			if k < end && int(c.Post[k].Entry) == i {
				row := int(k) * histBins
				scores[i] += t.logProb[row+int(binIdx[h2])] - t.logProb[row+t.floorBin]
				k++
			} else {
				scores[i] += t.uniform
			}
		}
	}
}
