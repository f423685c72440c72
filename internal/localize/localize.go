// Package localize implements the location determination algorithms
// evaluated in the paper, plus the standard baselines they are
// measured against:
//
//   - MaxLikelihood — the paper's §5.1 probabilistic approach: per
//     ⟨training point, AP⟩ Gaussian likelihoods multiplied across APs,
//     returning the training point with the maximum product.
//   - Geometric — the paper's §5.2 approach: per-AP inverse-square
//     signal↔distance regression, pairwise circle intersections
//     P1..P4, and their median point.
//   - NearestNeighbor / KNN — RADAR's nearest neighbour(s) in signal
//     space.
//   - Histogram — Bayesian histogram matching over the raw training
//     samples (the paper's future-work "distribution of these values").
//
// Every localizer consumes an Observation (a BSSID→RSSI vector,
// typically averaged over a capture window, as the paper averages 1.5
// minutes of samples) and produces an Estimate.
package localize

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"

	"indoorloc/internal/geom"
	"indoorloc/internal/wiscan"
)

// Observation is a signal-strength vector: mean RSSI in dBm keyed by
// BSSID.
type Observation map[string]float64

// ObservationFromRecords averages a capture window into an
// Observation, one mean per BSSID — the paper's working-phase
// pre-processing ("uses only the average signal strength value").
func ObservationFromRecords(recs []wiscan.Record) Observation {
	sums := make(map[string]float64)
	counts := make(map[string]int)
	for _, r := range recs {
		sums[r.BSSID] += float64(r.RSSI)
		counts[r.BSSID]++
	}
	obs := make(Observation, len(sums))
	for b, s := range sums {
		obs[b] = s / float64(counts[b])
	}
	return obs
}

// BSSIDs returns the observation's BSSIDs, sorted. It allocates the
// result; loops should use AppendBSSIDs with a reused buffer.
func (o Observation) BSSIDs() []string {
	return o.AppendBSSIDs(make([]string, 0, len(o)))
}

// AppendBSSIDs appends the observation's BSSIDs to dst, sorted, and
// returns the extended slice — the allocation-free form of BSSIDs for
// callers that hold a reusable buffer (pass dst[:0] to reuse).
func (o Observation) AppendBSSIDs(dst []string) []string {
	start := len(dst)
	for b := range o {
		dst = append(dst, b)
	}
	sort.Strings(dst[start:])
	return dst
}

// Candidate is one ranked hypothesis.
type Candidate struct {
	// Name is the training-location name; empty for coordinate-only
	// methods like the geometric approach.
	Name string
	Pos  geom.Point
	// Score is method-specific (log-likelihood, negative signal
	// distance, posterior probability); higher is better within one
	// estimate.
	Score float64
}

// Estimate is a localization result.
type Estimate struct {
	// Pos is the estimated position in plan-frame feet.
	Pos geom.Point
	// Name is the chosen training location for symbolic methods;
	// empty for coordinate-only methods.
	Name string
	// Score is the winning candidate's score.
	Score float64
	// Candidates ranks the hypotheses best-first, when the method
	// produces them.
	Candidates []Candidate
}

// Locator turns observations into location estimates — the working
// phase of the paper's two-phase architecture.
type Locator interface {
	// Locate estimates the position for one observation.
	Locate(obs Observation) (Estimate, error)
	// Name identifies the algorithm for registries and reports.
	Name() string
}

// Errors shared by the localizers.
var (
	// ErrNoOverlap means the observation shares no AP with the model.
	ErrNoOverlap = errors.New("localize: observation shares no AP with the training data")
	// ErrEmptyObservation means the observation has no readings.
	ErrEmptyObservation = errors.New("localize: empty observation")
	// ErrTooFewAPs means the method needs more APs than were heard.
	ErrTooFewAPs = errors.New("localize: too few APs heard")
)

// rankCandidates sorts best-first with a deterministic name tiebreak.
// slices.SortFunc keeps the hot path allocation-free where sort.Slice
// boxed the slice and built a reflect-based swapper.
func rankCandidates(cs []Candidate) {
	slices.SortFunc(cs, func(a, b Candidate) int {
		switch {
		case a.Score > b.Score:
			return -1
		case a.Score < b.Score:
			return 1
		}
		return strings.Compare(a.Name, b.Name)
	})
}

// validateObservation applies the shared preconditions.
func validateObservation(obs Observation) error {
	if len(obs) == 0 {
		return ErrEmptyObservation
	}
	for b, v := range obs {
		if v > 0 || v < -120 {
			return fmt.Errorf("localize: observation %s has RSSI %v outside [-120, 0]", b, v)
		}
	}
	return nil
}
