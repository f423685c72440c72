package localize

import (
	"indoorloc/internal/feq"
	"indoorloc/internal/trainingdb"
)

// Sector implements the identifying-code approach the paper surveys in
// §2.2: ignore signal strength entirely and use only *which* APs are
// audible. Training records each location's audible-AP set; at
// observation time "the set of visible broadcast tags forms an
// identifying code, which determines the location from a table of
// vertex-code pairings". Ties and near-misses are resolved by Hamming
// distance between the observed code and each location's code.
//
// The method needs codes to differ between locations, which in
// practice means either many APs or aggressive receiver floors; with
// the paper's four house-wide audible APs it degrades gracefully to
// "everything matches", making it a useful lower-bound baseline.
//
// Codes are derived from the compiled radio map's posting lists and
// sample counts when the locator is constructed.
type Sector struct {
	// TopK bounds the ranked candidate list, as in MaxLikelihood. The
	// minimum-distance vote then runs over the retained candidates, so
	// a tie run wider than TopK votes with its k lexically smallest
	// members only.
	TopK int

	compiled *trainingdb.Compiled
	codes    []uint64 // per-entry codes as BSSID-column bitmasks
}

// audibleFraction is the fraction of a location's training sweeps in
// which an AP must appear to count as part of the location's code.
const audibleFraction = 0.5

// NewSector returns a Sector localizer over c.
func NewSector(c *trainingdb.Compiled) *Sector {
	return &Sector{compiled: c, codes: buildCodes(c)}
}

// Name implements Locator.
func (s *Sector) Name() string { return "sector-code" }

// buildCodes derives each training location's code: an AP is in the
// code when it was heard in at least audibleFraction of that
// location's sweeps (approximated by sample count relative to the
// location's busiest AP, since wi-scan records do not carry sweep
// counts explicitly).
func buildCodes(c *trainingdb.Compiled) []uint64 {
	maxN := make([]int32, len(c.Names))
	for k, p := range c.Post {
		maxN[p.Entry] = max(maxN[p.Entry], c.PostN[k])
	}
	codes := make([]uint64, len(c.Names))
	// Identifying codes beyond 64 APs are out of scope.
	for j := 0; j < min(len(c.BSSIDs), 64); j++ {
		for k := c.PostStart[j]; k < c.PostStart[j+1]; k++ {
			i := c.Post[k].Entry
			if maxN[i] == 0 || float64(c.PostN[k]) >= audibleFraction*float64(maxN[i]) {
				codes[i] |= 1 << uint(j)
			}
		}
	}
	return codes
}

// hamming counts differing bits.
func hamming(a, b uint64) int {
	x := a ^ b
	n := 0
	for x != 0 {
		x &= x - 1
		n++
	}
	return n
}

// Locate implements Locator. The estimate is the centroid of all
// locations whose codes are at the minimum Hamming distance from the
// observed code; when a single location attains the minimum its name
// is returned.
//
//loclint:hotpath
func (s *Sector) Locate(obs Observation) (Estimate, error) {
	if err := validateObservation(obs); err != nil {
		return Estimate{}, err
	}
	c := s.compiled
	sc := getScratch()
	defer putScratch(sc)
	sc.cols, sc.vals = c.Intern(obs, sc.cols[:0], sc.vals[:0])
	cols := sc.cols
	if len(cols) == 0 {
		return Estimate{}, ErrNoOverlap
	}
	var observed uint64
	for _, j := range cols {
		if j < 64 {
			observed |= 1 << uint(j)
		}
	}
	scores := sc.scores(len(c.Names))
	for i, code := range s.codes {
		scores[i] = -float64(hamming(observed, code))
	}
	candidates := rankScores(c, scores, s.TopK, sc)
	// All minimum-distance locations vote; their centroid is the
	// estimate. After ranking they are exactly the leading run of equal
	// scores, already in name order.
	best := candidates[0].Score
	var x, y float64
	votes := 0
	for _, cand := range candidates {
		if !feq.Eq(cand.Score, best) {
			break
		}
		x += cand.Pos.X
		y += cand.Pos.Y
		votes++
	}
	est := Estimate{
		Score:      best,
		Candidates: candidates,
	}
	est.Pos.X, est.Pos.Y = x/float64(votes), y/float64(votes)
	if votes == 1 {
		est.Name = candidates[0].Name
		est.Pos = candidates[0].Pos
	}
	return est, nil
}
