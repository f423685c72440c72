// Package core is the toolkit's engine: it wires the substrate
// packages into the paper's two-phase architecture (Figure 1).
//
// Phase 1 — training:
//
//	step 1  annotate the floor plan (Floor Plan Processor),
//	step 2  capture wi-scan files at each named training location,
//	step 3  produce the location map (names → coordinates),
//	step 4  generate the training database and fit the localizer.
//
// Phase 2 — working:
//
//	step 5  observe a signal-strength vector,
//	step 6  resolve it to a location (coordinates + application name).
//
// The engine exposes a registry of localization algorithms by name, so
// command-line tools and experiments select them uniformly.
package core

import (
	"errors"
	"fmt"
	"sort"

	"indoorloc/internal/floorplan"
	"indoorloc/internal/geom"
	"indoorloc/internal/localize"
	"indoorloc/internal/locmap"
	"indoorloc/internal/regress"
	"indoorloc/internal/trainingdb"
	"indoorloc/internal/wiscan"
)

// Algorithm names accepted by the registry.
const (
	AlgoProbabilistic = "probabilistic" // the paper's §5.1 Gaussian ML
	AlgoHistogram     = "histogram"     // Bayesian histogram matching
	AlgoNNSS          = "nnss"          // RADAR nearest neighbour
	AlgoKNN           = "knn"           // k nearest neighbours (k=3)
	AlgoWKNN          = "wknn"          // weighted kNN (k=3)
	AlgoGeometric     = "geometric"     // the paper's §5.2 circles + median
	AlgoGeometricLS   = "geometric-ls"  // multilateration least squares
	AlgoSector        = "sector"        // identifying-code audible-AP sets (§2.2)
	AlgoHybrid        = "hybrid"        // probabilistic posterior blended with geometric
)

// Algorithms returns the registry's algorithm names, sorted.
func Algorithms() []string {
	return []string{
		AlgoGeometric, AlgoGeometricLS, AlgoHistogram, AlgoHybrid,
		AlgoKNN, AlgoNNSS, AlgoProbabilistic, AlgoSector, AlgoWKNN,
	}
}

// BuildConfig carries what locator constructors need beyond the
// training database.
type BuildConfig struct {
	// APPositions (BSSID → world position) is required by the
	// geometric algorithms and ignored by the rest.
	APPositions map[string]geom.Point
	// K overrides the neighbour count for knn/wknn; zero means 3.
	K int
	// Quantize is ignored: every build serves the posting-list radio
	// map.
	//
	// Deprecated: the int16 radio map is gone; leave it unset.
	Quantize bool
	// TopK bounds ranking to the best K candidates via a bounded-heap
	// selection instead of a full sort. Zero keeps full ranking. Applies
	// to the radio-map scanners (probabilistic, histogram, nnss/knn/wknn,
	// sector, hybrid); the kNN family never returns fewer than its
	// neighbour count.
	TopK int
}

// FloorRSSI and FloorSigma are the floor model every database source
// compiles at: an AP an entry never heard scores as a −95 dBm reading
// with a 4 dB spread. A replication follower refuses a trainer that
// compiles at any other floor.
const (
	FloorRSSI  = -95
	FloorSigma = 4
)

// buildLocator constructs a registered algorithm over one compiled
// radio-map view and returns the view with it. A database source (c
// nil) is compiled here, once, at FloorRSSI and FloorSigma; a compiled
// source (db nil — the serving shape of a v2 artifact, where the raw
// training database never existed in this process) is taken as given,
// its own floor parameters governing scoring. The geometric family
// scores without the view, but gets one all the same: it is what the
// service counts, names and writes as its artifact. The returned
// locator is complete — compiled view, histogram tables and
// identifying codes are all built — so every consumer serves its first
// query at full speed.
func buildLocator(name string, db *trainingdb.DB, c *trainingdb.Compiled, cfg BuildConfig) (localize.Locator, *trainingdb.Compiled, error) {
	if c == nil {
		if db == nil || db.Len() == 0 {
			return nil, nil, errors.New("core: empty training database")
		}
		c = db.Compile(FloorRSSI, FloorSigma)
	}
	k := cfg.K
	if k <= 0 {
		k = 3
	}
	switch name {
	case AlgoProbabilistic:
		ml := localize.NewMaxLikelihood(c)
		ml.TopK = cfg.TopK
		return ml, c, nil
	case AlgoSector:
		s := localize.NewSector(c)
		s.TopK = cfg.TopK
		return s, c, nil
	case AlgoNNSS, AlgoKNN, AlgoWKNN:
		if name == AlgoNNSS {
			k = 1
		}
		knn := localize.NewKNN(c, k)
		knn.Weighted = name == AlgoWKNN
		knn.TopK = cfg.TopK
		return knn, c, nil
	case AlgoHistogram, AlgoGeometric, AlgoGeometricLS, AlgoHybrid:
		if db == nil {
			return nil, nil, fmt.Errorf("core: algorithm %q cannot serve from a compiled artifact "+
				"(supported: %s, %s, %s, %s, %s)", name,
				AlgoProbabilistic, AlgoNNSS, AlgoKNN, AlgoWKNN, AlgoSector)
		}
		if name == AlgoHistogram {
			h := localize.NewHistogram(db, c)
			h.TopK = cfg.TopK
			return h, c, nil
		}
		if len(cfg.APPositions) == 0 {
			return nil, nil, fmt.Errorf("core: algorithm %q needs AP positions", name)
		}
		g, err := localize.FitGeometric(db, cfg.APPositions,
			regress.InversePowerBasis{Degree: 2, MinDist: 1})
		if err != nil {
			return nil, nil, err
		}
		if name == AlgoGeometricLS {
			g.Combine = localize.CombineLeastSquares
		}
		if name != AlgoHybrid {
			return g, c, nil
		}
		ml := localize.NewMaxLikelihood(c)
		ml.TopK = cfg.TopK
		h, err := localize.NewHybrid(ml, g)
		if err != nil {
			return nil, nil, err
		}
		return h, c, nil
	}
	return nil, nil, fmt.Errorf("core: unknown algorithm %q (have %v)", name, Algorithms())
}

// Service is a trained, ready-to-answer location service — the output
// of Phase 1. It keeps the compiled view it answers from and nothing
// else of training: the database it was built from stays with its
// caller.
type Service struct {
	Locator localize.Locator
	// Names resolves coordinates back to application-level location
	// names (step 6's abstraction); may be nil. Built from a compiled
	// view's entries it aliases the view, so it shares its lifetime.
	Names *locmap.Index
	// Rooms resolves coordinates to room regions by containment; may
	// be empty.
	Rooms []floorplan.Room

	// view is the compiled radio map the service was built over, nil
	// for a service built outside New.
	view *trainingdb.Compiled
	// algo and cfg are the recipe New built the locator with, from any
	// source; algo is empty for a service built outside New, which
	// Patch declines.
	algo string
	cfg  BuildConfig
}

// Patch returns the service for db, a later state of the database s's
// view was compiled from in which the only changes are folds into the
// entries named in touched. It patches s's view at the view's own
// floor (trainingdb.DB.Patch) and rebuilds the locator over the result
// with s's recorded algorithm and build knobs, carrying Names and
// Rooms over: the patched view shares s's entry names and positions,
// so an entry-name index over them stays valid. Patch returns nil when
// s records no recipe or view, or the patch declines a structural
// change; the caller then builds from scratch.
func (s *Service) Patch(db *trainingdb.DB, touched map[string]struct{}) (*Service, error) {
	if s.algo == "" || s.view == nil {
		return nil, nil
	}
	c := db.Patch(s.view, touched, s.view.FloorRSSI, s.view.FloorSigma)
	if c == nil {
		return nil, nil
	}
	loc, c, err := buildLocator(s.algo, db, c, s.cfg)
	if err != nil {
		return nil, err
	}
	return &Service{Locator: loc, Names: s.Names, Rooms: s.Rooms, view: c, algo: s.algo, cfg: s.cfg}, nil
}

// View returns the compiled radio-map view the service was built
// over, nil for a service built outside New.
func (s *Service) View() *trainingdb.Compiled { return s.view }

// Locations returns the training locations' names, sorted, and their
// positions in parallel, aliasing the view.
func (s *Service) Locations() ([]string, []geom.Point) {
	if s.view == nil {
		return nil, nil
	}
	return s.view.Names, s.view.Pos
}

// NumLocations returns the number of training locations.
func (s *Service) NumLocations() int {
	if s.view == nil {
		return 0
	}
	return s.view.NumEntries()
}

// NumAPs returns the size of the AP universe the service was trained
// over.
func (s *Service) NumAPs() int {
	if s.view == nil {
		return 0
	}
	return s.view.NumAPs()
}

// Generation returns the radio-map generation the service answers
// from: the training database's mutation counter at build time.
func (s *Service) Generation() uint64 {
	if s.view == nil {
		return 0
	}
	return s.view.Generation
}

// Resolution is a Phase 2 answer: coordinates, the localizer's own
// symbolic choice if any, and the nearest named location.
type Resolution struct {
	Estimate localize.Estimate
	// NearestName is the closest name in the service's location map to
	// the estimated coordinates ("room D22"), empty without a map.
	NearestName string
	// Room is the name of the room region containing the estimate,
	// empty when no room matches or none are defined.
	Room string
}

// Locate runs steps 5–6 for an averaged observation.
func (s *Service) Locate(obs localize.Observation) (Resolution, error) {
	est, err := s.Locator.Locate(obs)
	if err != nil {
		return Resolution{}, err
	}
	res := Resolution{Estimate: est}
	res.NearestName, res.Room = s.Annotate(est.Pos)
	return res, nil
}

// Annotate resolves a position to application terms (step 6): the
// nearest name in the service's location map and the first room
// region containing it, each empty when there is none.
func (s *Service) Annotate(pos geom.Point) (nearest, room string) {
	if s.Names != nil {
		nearest, _, _ = s.Names.Nearest(pos)
	}
	for _, r := range s.Rooms {
		if r.Poly.Contains(pos) {
			return nearest, r.Name
		}
	}
	return nearest, ""
}

// LocateRecords averages a capture window (the paper averages 1.5
// minutes of scans) and resolves it.
func (s *Service) LocateRecords(recs []wiscan.Record) (Resolution, error) {
	if len(recs) == 0 {
		return Resolution{}, localize.ErrEmptyObservation
	}
	return s.Locate(localize.ObservationFromRecords(recs))
}

// Pipeline is the Figure 1 flow: feed it the Phase 1 artefacts and it
// produces a Service, recording a human-readable trace of the six
// steps for audit.
type Pipeline struct {
	// Plan is the annotated floor plan (step 1). Optional: when set,
	// its named locations become the location map unless LocMap is
	// given explicitly, and its AP positions feed the geometric
	// algorithms unless APPositions is set.
	Plan *floorplan.Plan
	// Collection holds the wi-scan captures (step 2).
	Collection *wiscan.Collection
	// LocMap is the location map (step 3); optional if Plan carries
	// named locations.
	LocMap *locmap.Map
	// Algorithm is the registry name to fit (step 4); empty means
	// AlgoProbabilistic.
	Algorithm string
	// APPositions overrides the plan's AP markers for the geometric
	// algorithms.
	APPositions map[string]geom.Point
	// SkipUnmapped forwards to the Training Database Generator.
	SkipUnmapped bool
}

// Train runs Phase 1 (steps 1–4) and returns the service plus the
// step trace.
func (p *Pipeline) Train() (*Service, []string, error) {
	var trace []string
	algo := p.Algorithm
	if algo == "" {
		algo = AlgoProbabilistic
	}

	// Step 1: floor plan annotations.
	lm := p.LocMap
	apPos := p.APPositions
	if p.Plan != nil {
		trace = append(trace, fmt.Sprintf("step 1: floor plan %q (%d APs, %d named locations)",
			p.Plan.Name, len(p.Plan.APs), len(p.Plan.Locations)))
		if lm == nil && len(p.Plan.Locations) > 0 {
			m, err := p.Plan.LocationMap()
			if err != nil {
				return nil, trace, fmt.Errorf("core: step 1: %w", err)
			}
			lm = m
		}
		if apPos == nil && len(p.Plan.APs) > 0 {
			m, err := p.Plan.APPositions()
			if err != nil {
				return nil, trace, fmt.Errorf("core: step 1: %w", err)
			}
			apPos = m
		}
	} else {
		trace = append(trace, "step 1: no floor plan (location map supplied directly)")
	}
	if lm == nil {
		return nil, trace, errors.New("core: no location map (set LocMap or annotate the plan)")
	}

	// Step 2: wi-scan collection.
	if p.Collection == nil || len(p.Collection.Files) == 0 {
		return nil, trace, errors.New("core: no wi-scan collection")
	}
	trace = append(trace, fmt.Sprintf("step 2: wi-scan collection (%d locations, %d records)",
		len(p.Collection.Files), p.Collection.TotalRecords()))

	// Step 3: location map.
	trace = append(trace, fmt.Sprintf("step 3: location map (%d names)", lm.Len()))

	// Step 4: training database + locator.
	db, skipped, err := trainingdb.Generate(p.Collection, lm,
		trainingdb.Options{SkipUnmapped: p.SkipUnmapped})
	if err != nil {
		return nil, trace, fmt.Errorf("core: step 4: %w", err)
	}
	msg := fmt.Sprintf("step 4: training database (%d entries, %d APs, %d samples), algorithm %s",
		db.Len(), len(db.BSSIDs), db.TotalSamples(), algo)
	if len(skipped) > 0 {
		sort.Strings(skipped)
		msg += fmt.Sprintf("; skipped unmapped %v", skipped)
	}
	trace = append(trace, msg)
	opts := []Option{WithDB(db), WithAlgorithm(algo), WithConfig(BuildConfig{APPositions: apPos}), WithNames(lm)}
	if p.Plan != nil {
		opts = append(opts, WithRooms(p.Plan.Rooms))
	}
	in, err := New(opts...)
	if err != nil {
		return nil, trace, fmt.Errorf("core: step 4: %w", err)
	}
	trace = append(trace,
		"step 5: (working phase) observe signal-strength vectors",
		"step 6: (working phase) resolve observations to locations")
	return in.Service, trace, nil
}
