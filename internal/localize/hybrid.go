package localize

import (
	"errors"
	"math"

	"indoorloc/internal/feq"
)

// Hybrid blends the two families the paper evaluates separately: the
// probabilistic method supplies a posterior over training points (and
// the symbolic answer); the geometric method supplies a continuous
// coordinate unconstrained by the grid. The blended position is
//
//	pos = w·posteriorMean + (1-w)·geometric
//
// with w rising toward 1 as the probabilistic posterior concentrates —
// when fingerprinting is confident, trust it; when it is torn between
// distant candidates, the circles break the tie.
type Hybrid struct {
	Prob *MaxLikelihood
	Geo  *Geometric
}

// hybridMinWeight floors the probabilistic share so a confident-looking
// geometric fix cannot swamp the fingerprint entirely.
const hybridMinWeight = 0.3

// NewHybrid wires a hybrid over an already-fitted pair.
func NewHybrid(prob *MaxLikelihood, geo *Geometric) (*Hybrid, error) {
	if prob == nil || geo == nil {
		return nil, errors.New("localize: hybrid needs both localizers")
	}
	return &Hybrid{Prob: prob, Geo: geo}, nil
}

// Name implements Locator.
func (h *Hybrid) Name() string { return "hybrid" }

// Locate implements Locator. Symbolic fields come from the
// probabilistic side; when the geometric side fails (too few APs) the
// probabilistic answer stands alone, and vice versa is an error
// (without fingerprints the hybrid has no posterior to blend).
func (h *Hybrid) Locate(obs Observation) (Estimate, error) {
	pEst, err := h.Prob.Locate(obs)
	if err != nil {
		return Estimate{}, err
	}
	gEst, gErr := h.Geo.Locate(obs)
	if gErr != nil {
		return pEst, nil
	}
	// Posterior concentration: the top candidate's share of the
	// posterior mass (1/n for a flat posterior, →1 when certain).
	w := max(topShare(pEst.Candidates), hybridMinWeight)
	blended := posteriorMean(pEst.Candidates).Scale(w).Add(gEst.Pos.Scale(1 - w))
	out := pEst
	out.Pos = blended
	return out, nil
}

// topShare returns the posterior probability of the best candidate
// under a softmax of the (ranked, log-likelihood) scores.
func topShare(cs []Candidate) float64 {
	if len(cs) == 0 {
		return 1
	}
	max := cs[0].Score
	var sum float64
	for _, c := range cs {
		sum += expSafe(c.Score - max)
	}
	if feq.Zero(sum) {
		return 1
	}
	return 1 / sum // exp(max-max)=1 over the total
}

// expSafe guards exp against extreme negative inputs.
func expSafe(x float64) float64 {
	if x < -700 {
		return 0
	}
	return math.Exp(x)
}
