package localize

import (
	"errors"
	"sync"

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
// Scoring runs against a compiled radio map (trainingdb.Compiled)
// built on first use: each entry starts from its precomputed
// "heard nothing" baseline and only the observation's heard columns
// are corrected, so one Locate is O(entries × heard APs) over flat
// matrices with no map lookups. The database and the Floor/MinOverlap
// configuration must not change after the first Locate or Warm call.
type MaxLikelihood struct {
	DB *trainingdb.DB
	// FloorRSSI substitutes for APs present on one side (observation or
	// training entry) but not the other, modelling "heard nothing" as a
	// level at the receiver floor. Typical: -95.
	FloorRSSI float64
	// FloorSigma is the spread assumed for substituted readings.
	// Typical: 4 dB. Values below stats.MinSigma are raised to it.
	FloorSigma float64
	// MinOverlap is the minimum number of APs the observation must
	// share with the database; below it ErrNoOverlap is returned.
	// Zero means 1.
	MinOverlap int
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
	// Quantize compiles the radio map to int16 matrices (format v2) and
	// drops the float64 originals, quartering the scan's memory traffic
	// at ≤ 10⁻³ dB dequantization error. See trainingdb.Quant.
	Quantize bool
	// Precompiled, when set, is served directly instead of compiling
	// DB — the mmap-loaded artifact path. DB may then be nil. The view's
	// own floor parameters govern scoring.
	Precompiled *trainingdb.Compiled

	compileOnce sync.Once
	compiled    *trainingdb.Compiled
}

// NewMaxLikelihood returns a MaxLikelihood with the standard floor
// parameters.
func NewMaxLikelihood(db *trainingdb.DB) *MaxLikelihood {
	return &MaxLikelihood{DB: db, FloorRSSI: -95, FloorSigma: 4}
}

// Name implements Locator.
func (m *MaxLikelihood) Name() string { return "probabilistic-ml" }

// Warm implements Warmer: it compiles the radio map eagerly (or adopts
// Precompiled), quantizing it when Quantize is set.
func (m *MaxLikelihood) Warm() error {
	if m.Precompiled == nil && (m.DB == nil || m.DB.Len() == 0) {
		return errors.New("localize: MaxLikelihood has no training database")
	}
	m.compileOnce.Do(func() {
		if m.Precompiled != nil {
			m.compiled = m.Precompiled
		} else {
			m.compiled = m.DB.Compile(m.FloorRSSI, m.FloorSigma)
		}
		if m.Quantize {
			m.compiled.Quantize()
			m.compiled.ReleaseFloat64()
		}
	})
	return nil
}

// CompiledView implements CompiledSource.
func (m *MaxLikelihood) CompiledView() *trainingdb.Compiled {
	if err := m.Warm(); err != nil {
		return nil
	}
	return m.compiled
}

// Locate implements Locator.
func (m *MaxLikelihood) Locate(obs Observation) (Estimate, error) {
	if err := validateObservation(obs); err != nil {
		return Estimate{}, err
	}
	if err := m.Warm(); err != nil {
		return Estimate{}, err
	}
	c := m.compiled
	minOverlap := m.MinOverlap
	if minOverlap <= 0 {
		minOverlap = 1
	}
	sc := getScratch()
	defer putScratch(sc)
	sc.cols, sc.vals = c.Intern(obs, sc.cols[:0], sc.vals[:0])
	cols, vals := sc.cols, sc.vals
	if len(cols) < minOverlap {
		return Estimate{}, ErrNoOverlap
	}
	// The "heard an AP this entry never trained" term depends only on
	// the observation — precompute it once per heard column.
	aux := sc.aux[:0]
	for _, v := range vals {
		aux = append(aux, stats.LogGaussianPDF(v, c.FloorRSSI, c.FloorSigma))
	}
	sc.aux = aux
	// Score every entry into the pooled buffer; only the returned
	// candidates are built from it.
	scores := sc.scores(len(c.Names))
	if c.Quant != nil {
		scorePostings(c.Quant, cols, vals, aux, scores)
	} else {
		m.scoreAll(c, cols, vals, aux, scores)
	}
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

// scoreAll scores every entry: each starts at its precomputed
// all-unheard baseline; heard columns swap the floor term for the
// trained Gaussian (or add the observation-side floor term when the
// entry never heard the AP) — absence is evidence too.
//
//loclint:hotpath
func (m *MaxLikelihood) scoreAll(c *trainingdb.Compiled, cols []int32, vals, aux, scores []float64) {
	nAP := len(c.BSSIDs)
	for i := range scores {
		ll := c.UnheardLL[i]
		base := i * nAP
		for h, j := range cols {
			cell := base + int(j)
			if c.Trained[cell] {
				d := (vals[h] - c.Mean[cell]) / c.Sigma[cell]
				ll += -d*d/2 + c.LogNorm[cell] - c.FloorLL[cell]
			} else {
				ll += aux[h]
			}
		}
		scores[i] = ll
	}
}

// scorePostings is scoreAll over the int16 posting lists, visiting
// trained cells only. Every entry starts from its quantized all-unheard
// baseline plus the untrained term of every heard column; each heard
// column's postings then add the Gaussian correction minus that
// column's untrained term, from the record's precomputed center, half
// precision and constant (trainingdb.Posting). The per-cell algebra is
// scoreAll's, and neither Trained nor the dense code matrices are
// read. Arithmetic and accumulation are float64.
//
//loclint:hotpath
func scorePostings(q *trainingdb.Quant, cols []int32, vals, aux, scores []float64) {
	var unheard float64
	for _, a := range aux {
		unheard += a
	}
	for i := range scores {
		scores[i] = q.UnheardLL[i] + unheard
	}
	for h, j := range cols {
		v, a := vals[h], aux[h]
		for _, p := range q.Post[q.PostStart[j]:q.PostStart[j+1]] {
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
// Scoring runs against flat per-⟨entry, AP⟩ log-probability tables
// compiled from the raw samples on first use (Warm builds them
// eagerly). The database and the Bins/Range/Floor configuration must
// not change after the first Locate or Warm call.
type Histogram struct {
	DB *trainingdb.DB
	// Bins is the histogram resolution in whole-dB bins over
	// [RangeLo, RangeHi). Zero means 70 bins over [-100, -30).
	Bins             int
	RangeLo, RangeHi float64
	// FloorRSSI substitutes for unheard APs, as in MaxLikelihood.
	FloorRSSI float64
	// TopK bounds the ranked candidate list, as in MaxLikelihood. The
	// posterior is renormalized over the retained candidates, so the
	// scores still sum to 1 — a documented approximation that slightly
	// inflates each retained probability by the dropped tail's mass.
	TopK int

	warmOnce sync.Once
	warmErr  error
	compiled *trainingdb.Compiled
	tables   *histTables
}

// NewHistogram returns a Histogram localizer with 1-dB bins over the
// practical RSSI range.
func NewHistogram(db *trainingdb.DB) *Histogram {
	return &Histogram{DB: db, Bins: 70, RangeLo: -100, RangeHi: -30, FloorRSSI: -95}
}

// Name implements Locator.
func (h *Histogram) Name() string { return "probabilistic-histogram" }

// Warm implements Warmer: it compiles the radio map and the
// log-probability tables eagerly.
func (h *Histogram) Warm() error {
	if h.DB == nil || h.DB.Len() == 0 {
		return errors.New("localize: Histogram has no training database")
	}
	h.warmOnce.Do(func() { h.warmErr = h.buildTables() })
	return h.warmErr
}

// CompiledView implements CompiledSource. Note the histogram's scoring
// tables are built from raw samples the view does not carry, so a
// Histogram cannot be rebuilt from a serialized view alone.
func (h *Histogram) CompiledView() *trainingdb.Compiled {
	if err := h.Warm(); err != nil {
		return nil
	}
	return h.compiled
}

// Locate implements Locator.
func (h *Histogram) Locate(obs Observation) (Estimate, error) {
	if err := validateObservation(obs); err != nil {
		return Estimate{}, err
	}
	if err := h.Warm(); err != nil {
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
		binIdx = append(binIdx, int32(t.bin(v)))
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
// the uniform smoothed mass of an empty histogram (untrained).
//
//loclint:hotpath
func (h *Histogram) scoreAll(c *trainingdb.Compiled, t *histTables, cols []int32, binIdx []int32, scores []float64) {
	nAP := len(c.BSSIDs)
	bins := t.bins
	for i := range scores {
		ll := t.base[i]
		base := i * nAP
		for h2, j := range cols {
			cell := base + int(j)
			if c.Trained[cell] {
				row := cell * bins
				ll += t.logProb[row+int(binIdx[h2])] - t.logProb[row+t.floorBin]
			} else {
				ll += t.uniform
			}
		}
		scores[i] = ll
	}
}
