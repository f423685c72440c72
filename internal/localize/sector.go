package localize

import (
	"errors"
	"sync"

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
// Codes are derived from a compiled radio map on first use; the
// database and AudibleFraction must not change after the first Locate
// or Warm call.
type Sector struct {
	DB *trainingdb.DB
	// AudibleFraction is the fraction of a location's training sweeps
	// in which an AP must appear to count as part of the location's
	// code. Zero means 0.5.
	AudibleFraction float64
	// TopK bounds the ranked candidate list, as in MaxLikelihood. The
	// minimum-distance vote then runs over the retained candidates, so
	// a tie run wider than TopK votes with its k lexically smallest
	// members only.
	TopK int
	// Precompiled, when set, is served directly instead of compiling
	// DB (codes derive from the view's Trained/N matrices); DB may be
	// nil.
	Precompiled *trainingdb.Compiled

	warmOnce sync.Once
	compiled *trainingdb.Compiled
	codes    []uint64 // per-entry codes as BSSID-column bitmasks
}

// NewSector returns a Sector localizer over the database.
func NewSector(db *trainingdb.DB) *Sector { return &Sector{DB: db} }

// Name implements Locator.
func (s *Sector) Name() string { return "sector-code" }

// Warm implements Warmer: it compiles the radio map and derives the
// per-entry codes eagerly.
func (s *Sector) Warm() error {
	if s.Precompiled == nil && (s.DB == nil || s.DB.Len() == 0) {
		return errors.New("localize: Sector has no training database")
	}
	s.warmOnce.Do(func() {
		if s.Precompiled != nil {
			s.compiled = s.Precompiled
		} else {
			// The floor parameters only matter to likelihood scorers; codes
			// use sample counts alone.
			s.compiled = s.DB.Compile(-95, 4)
		}
		s.buildCodes()
	})
	return nil
}

// CompiledView implements CompiledSource.
func (s *Sector) CompiledView() *trainingdb.Compiled {
	if err := s.Warm(); err != nil {
		return nil
	}
	return s.compiled
}

// buildCodes derives each training location's code: an AP is in the
// code when it was heard in at least AudibleFraction of that
// location's sweeps (approximated by sample count relative to the
// location's busiest AP, since wi-scan records do not carry sweep
// counts explicitly).
func (s *Sector) buildCodes() {
	frac := s.AudibleFraction
	if frac <= 0 {
		frac = 0.5
	}
	c := s.compiled
	nAP := len(c.BSSIDs)
	s.codes = make([]uint64, len(c.Names))
	for i := range c.Names {
		base := i * nAP
		maxN := int32(0)
		for j := 0; j < nAP; j++ {
			if n := c.N[base+j]; n > maxN {
				maxN = n
			}
		}
		lim := nAP
		if lim > 64 {
			lim = 64 // identifying codes beyond 64 APs are out of scope
		}
		var code uint64
		for j := 0; j < lim; j++ {
			cell := base + j
			if !c.Trained[cell] {
				continue
			}
			if maxN == 0 || float64(c.N[cell]) >= frac*float64(maxN) {
				code |= 1 << uint(j)
			}
		}
		s.codes[i] = code
	}
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
func (s *Sector) Locate(obs Observation) (Estimate, error) {
	if err := validateObservation(obs); err != nil {
		return Estimate{}, err
	}
	if err := s.Warm(); err != nil {
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
