package localize

import (
	"math"
	"runtime"
	"sync/atomic"

	"indoorloc/internal/feq"
	"indoorloc/internal/geom"
	"indoorloc/internal/trainingdb"
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
// score buffer and the top-k index heap — reused so the hot path
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

// scratchFree is a bounded free list of scratches, one slot per P: as
// many as can run a locate at once. Unlike a sync.Pool, which the
// garbage collector empties every other cycle, it keeps the O(entries)
// score buffers alive across GC, so a locate after a collection does
// not reallocate them. A locate that finds every slot empty allocates;
// one that finds every slot full drops its scratch.
var scratchFree = make([]atomic.Pointer[scratch], runtime.GOMAXPROCS(0))

func getScratch() *scratch {
	for i := range scratchFree {
		if scratchFree[i].Load() != nil {
			if s := scratchFree[i].Swap(nil); s != nil {
				return s
			}
		}
	}
	return new(scratch)
}

func putScratch(s *scratch) {
	for i := range scratchFree {
		if scratchFree[i].Load() == nil && scratchFree[i].CompareAndSwap(nil, s) {
			return
		}
	}
}

// scores returns a length-n score buffer backed by the scratch, grown
// as needed. Scorers overwrite every slot; rankScores copies what it
// returns out before the scratch is pooled.
func (s *scratch) scores(n int) []float64 {
	if cap(s.score) < n {
		s.score = make([]float64, n)
	}
	return s.score[:n]
}

// Histogram table shape: 1-dB bins over the practical RSSI range.
const (
	histBins       = 70
	histLo, histHi = -100.0, -30.0
	histWidth      = (histHi - histLo) / histBins
)

// histTables is the Histogram localizer's compiled scoring state: one
// row of log bin probabilities per posting in one flat slice, plus the
// per-entry all-at-floor baseline.
type histTables struct {
	// floorBin is the bin index of the floor substitution level.
	floorBin int
	// uniform is the log probability an empty histogram assigns any bin
	// after Laplace smoothing — the "heard an AP this entry never
	// trained" term.
	uniform float64
	// logProb[k*histBins+b] is the smoothed log probability of bin b at
	// the trained cell of posting k.
	logProb []float64
	// base[i] sums the floor-bin log probabilities over entry i's
	// trained cells.
	base []float64
}

// histBin replicates stats.Histogram.Bin over the table bounds.
func histBin(x float64) int {
	i := int(math.Floor((x - histLo) / histWidth))
	if i < 0 {
		i = 0
	}
	if i >= histBins {
		i = histBins - 1
	}
	return i
}

// buildTables builds one log-probability row per posting of c from
// db's raw training samples.
func buildTables(db *trainingdb.DB, c *trainingdb.Compiled) *histTables {
	t := &histTables{
		floorBin: histBin(c.FloorRSSI),
		uniform:  logf(1 / float64(histBins)),
		logProb:  make([]float64, len(c.Post)*histBins),
		base:     make([]float64, len(c.Names)),
	}
	counts := make([]int, histBins)
	// Column by column, so each entry's base sums its terms in
	// ascending column order.
	for j, b := range c.BSSIDs {
		for k := c.PostStart[j]; k < c.PostStart[j+1]; k++ {
			i := c.Post[k].Entry
			clear(counts)
			samples := db.Entries[c.Names[i]].PerAP[b].Samples
			for _, v := range samples {
				counts[histBin(v)]++
			}
			row := int(k) * histBins
			total := float64(len(samples)) + float64(histBins)
			for bi, count := range counts {
				t.logProb[row+bi] = logf((float64(count) + 1) / total)
			}
			t.base[i] += t.logProb[row+t.floorBin]
		}
	}
	return t
}
