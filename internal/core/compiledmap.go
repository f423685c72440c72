package core

import (
	"fmt"

	"indoorloc/internal/localize"
	"indoorloc/internal/trainingdb"
)

// buildLocatorFromCompiled constructs a registered algorithm directly
// over a compiled radio-map view — the serving shape of a v2 artifact,
// where the raw training database never existed in this process. See
// WithCompiled for the algorithms it supports.
//
// The view's own floor parameters govern scoring. cfg.FloorRSSI is
// ignored; Quantize, TopK and K apply as in buildLocator.
func buildLocatorFromCompiled(name string, c *trainingdb.Compiled, cfg BuildConfig) (localize.Locator, error) {
	k := cfg.K
	if k <= 0 {
		k = 3
	}
	var loc localize.Locator
	switch name {
	case AlgoProbabilistic:
		ml := localize.NewMaxLikelihood(nil)
		ml.Precompiled = c
		ml.Quantize = cfg.Quantize
		ml.TopK = cfg.TopK
		loc = ml
	case AlgoSector:
		s := localize.NewSector(nil)
		s.Precompiled = c
		s.TopK = cfg.TopK
		loc = s
	case AlgoNNSS, AlgoKNN, AlgoWKNN:
		if name == AlgoNNSS {
			k = 1
		}
		knn := localize.NewKNN(nil, k)
		knn.Precompiled = c
		knn.Weighted = name == AlgoWKNN
		knn.Quantize = cfg.Quantize
		knn.TopK = cfg.TopK
		loc = knn
	default:
		return nil, fmt.Errorf("core: algorithm %q cannot serve from a compiled artifact "+
			"(supported: %s, %s, %s, %s, %s)", name,
			AlgoProbabilistic, AlgoNNSS, AlgoKNN, AlgoWKNN, AlgoSector)
	}
	if w, ok := loc.(localize.Warmer); ok {
		if err := w.Warm(); err != nil {
			return nil, fmt.Errorf("core: warming %s from artifact: %w", name, err)
		}
	}
	return loc, nil
}
