package localize

import (
	"math"
	"sync"

	"indoorloc/internal/feq"
	"indoorloc/internal/geom"
	"indoorloc/internal/stats"
)

// logf is a guarded log: probabilities at or below zero (which Laplace
// smoothing should prevent) map to a large negative constant instead
// of -Inf, keeping candidate ordering total.
func logf(p float64) float64 {
	if p <= 0 {
		return -1e9
	}
	return math.Log(p)
}

// normalizePosterior rewrites candidate scores from log-likelihoods to
// posterior probabilities under a uniform prior (a numerically safe
// softmax). Candidates must already be ranked best-first.
func normalizePosterior(cs []Candidate) {
	if len(cs) == 0 {
		return
	}
	max := cs[0].Score
	sum := 0.0
	for i := range cs {
		cs[i].Score = math.Exp(cs[i].Score - max)
		sum += cs[i].Score
	}
	if feq.Zero(sum) {
		return
	}
	for i := range cs {
		cs[i].Score /= sum
	}
}

// posteriorMean converts ranked log-likelihood candidates into a
// posterior (softmax under a uniform prior) and returns the expected
// position. Candidates must be ranked best-first.
func posteriorMean(cs []Candidate) geom.Point {
	if len(cs) == 0 {
		return geom.Point{}
	}
	max := cs[0].Score
	var sum float64
	var mean geom.Point
	for _, c := range cs {
		w := math.Exp(c.Score - max)
		mean = mean.Add(c.Pos.Scale(w))
		sum += w
	}
	if feq.Zero(sum) {
		return cs[0].Pos
	}
	return mean.Scale(1 / sum)
}

// scratch holds the per-Locate working buffers — interned observation
// columns and values, per-column precomputed terms, the per-entry
// score buffer and the top-k index heap — pooled so the hot path
// allocates nothing beyond the returned candidate slice.
type scratch struct {
	cols  []int32
	vals  []float64
	aux   []float64
	bins  []int32
	score []float64
	idx   []int32
	mass  []massAt
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

func getScratch() *scratch  { return scratchPool.Get().(*scratch) }
func putScratch(s *scratch) { scratchPool.Put(s) }

// scores returns a length-n score buffer backed by the scratch, grown
// as needed. Scorers overwrite every slot; rankScores copies what it
// returns out before the scratch is pooled.
func (s *scratch) scores(n int) []float64 {
	if cap(s.score) < n {
		s.score = make([]float64, n)
	}
	return s.score[:n]
}

// histTables is the Histogram localizer's compiled scoring state: per
// ⟨entry, AP⟩ log bin probabilities in one flat cell-major slice
// (entry-major cells, bins within a cell), plus the per-entry
// all-at-floor baseline.
type histTables struct {
	bins      int
	lo, width float64
	// floorBin is the bin index of the floor substitution level.
	floorBin int
	// uniform is the log probability an empty histogram assigns any bin
	// after Laplace smoothing — the "heard an AP this entry never
	// trained" term.
	uniform float64
	// logProb[cell*bins+k] is the smoothed log probability of bin k at
	// the cell; rows of untrained cells stay zero and are never read.
	logProb []float64
	// base[i] sums the floor-bin log probabilities over entry i's
	// trained cells.
	base []float64
}

// bin replicates stats.Histogram.Bin over the table bounds.
func (t *histTables) bin(x float64) int {
	i := int(math.Floor((x - t.lo) / t.width))
	if i < 0 {
		i = 0
	}
	if i >= t.bins {
		i = t.bins - 1
	}
	return i
}

// buildTables compiles the radio map and the per-⟨entry, AP⟩
// log-probability tables from the raw training samples.
func (h *Histogram) buildTables() error {
	bins := h.Bins
	lo, hi := h.RangeLo, h.RangeHi
	if bins <= 0 {
		bins = 70
		lo, hi = -100, -30
	}
	if hi <= lo {
		lo, hi = -100, -30
	}
	c := h.DB.Compile(h.FloorRSSI, stats.MinSigma)
	nAP := len(c.BSSIDs)
	t := &histTables{
		bins:    bins,
		lo:      lo,
		width:   (hi - lo) / float64(bins),
		uniform: logf(1 / float64(bins)),
		logProb: make([]float64, len(c.Names)*nAP*bins),
		base:    make([]float64, len(c.Names)),
	}
	t.floorBin = t.bin(h.FloorRSSI)
	for i, name := range c.Names {
		e := h.DB.Entries[name]
		for j, b := range c.BSSIDs {
			s, ok := e.PerAP[b]
			if !ok {
				continue
			}
			hist, err := stats.NewHistogram(lo, hi, bins)
			if err != nil {
				return err
			}
			for _, v := range s.Samples {
				hist.Add(v)
			}
			row := (i*nAP + j) * bins
			total := float64(hist.Total()) + float64(bins)
			for k, count := range hist.Counts {
				t.logProb[row+k] = logf((float64(count) + 1) / total)
			}
			t.base[i] += t.logProb[row+t.floorBin]
		}
	}
	h.compiled, h.tables = c, t
	return nil
}
