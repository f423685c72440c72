// Package indoorloc is a toolkit for building indoor location
// determination systems from 802.11 signal strength, reproducing
// "A Toolkit-Based Approach to Indoor Localization" (Wang & Harder,
// ICPP Workshops 2006).
//
// The toolkit factors indoor localization into the paper's two phases:
//
//   - Training: annotate a floor plan (internal/floorplan), capture
//     wi-scan files at named locations (internal/wiscan,
//     internal/sim), and compile them with a location map into a
//     compressed training database (internal/trainingdb).
//   - Working: average an observation window into a signal vector and
//     resolve it to a location with a pluggable algorithm
//     (internal/localize): the paper's probabilistic Gaussian
//     maximum-likelihood and geometric circle-intersection methods,
//     plus RADAR-style kNN, Bayesian histograms, and tracking filters
//     (internal/filter).
//
// This package is a facade: it re-exports the main types and offers
// one-call helpers for the common paths. Lower-level control lives in
// the internal packages; the command-line tools under cmd/ mirror the
// paper's three utilities (Floor Plan Processor, Floor Plan
// Compositor, Training Database Generator).
package indoorloc

import (
	"fmt"

	"indoorloc/internal/core"
	"indoorloc/internal/localize"
	"indoorloc/internal/locmap"
	"indoorloc/internal/trainingdb"
	"indoorloc/internal/wiscan"
)

// Re-exported core types, so simple consumers import only this
// package.
type (
	// Observation is a BSSID → mean-RSSI vector.
	Observation = localize.Observation
	// Estimate is a localization result.
	Estimate = localize.Estimate
	// Locator is the algorithm interface.
	Locator = localize.Locator
	// Service is a trained location service.
	Service = core.Service
	// Resolution is a located observation with its symbolic name.
	Resolution = core.Resolution
	// Pipeline is the Figure 1 training flow.
	Pipeline = core.Pipeline
	// BuildConfig parameterises BuildLocator.
	BuildConfig = core.BuildConfig
)

// Algorithm names, re-exported from the registry.
const (
	AlgoProbabilistic = core.AlgoProbabilistic
	AlgoHistogram     = core.AlgoHistogram
	AlgoNNSS          = core.AlgoNNSS
	AlgoKNN           = core.AlgoKNN
	AlgoWKNN          = core.AlgoWKNN
	AlgoGeometric     = core.AlgoGeometric
	AlgoGeometricLS   = core.AlgoGeometricLS
	AlgoSector        = core.AlgoSector
	AlgoHybrid        = core.AlgoHybrid
)

// Algorithms lists the registered algorithm names.
func Algorithms() []string { return core.Algorithms() }

// BuildLocator constructs a registered algorithm over a training
// database. It is core.New with WithDB, WithAlgorithm and WithConfig,
// returning just the warmed locator.
func BuildLocator(name string, db *trainingdb.DB, cfg BuildConfig) (Locator, error) {
	in, err := core.New(core.WithDB(db), core.WithAlgorithm(name), core.WithConfig(cfg))
	if err != nil {
		return nil, err
	}
	return in.Service.Locator, nil
}

// Train runs Phase 1 from file paths: a wi-scan collection (directory
// or zip) and a location map, fitting the named algorithm (empty for
// the paper's probabilistic method).
func Train(scanPath, locmapPath, algorithm string) (*Service, error) {
	coll, err := wiscan.ReadCollection(scanPath)
	if err != nil {
		return nil, fmt.Errorf("indoorloc: %w", err)
	}
	lm, err := locmap.ReadFile(locmapPath)
	if err != nil {
		return nil, fmt.Errorf("indoorloc: %w", err)
	}
	pl := &Pipeline{Collection: coll, LocMap: lm, Algorithm: algorithm}
	svc, _, err := pl.Train()
	return svc, err
}

// LoadDatabase reads a training database produced by the Training
// Database Generator (cmd/tdbgen or trainingdb.SaveFile).
func LoadDatabase(path string) (*trainingdb.DB, error) {
	return trainingdb.LoadFile(path)
}

// ObservationFromRecords averages a capture window into an
// Observation.
func ObservationFromRecords(recs []wiscan.Record) Observation {
	return localize.ObservationFromRecords(recs)
}
