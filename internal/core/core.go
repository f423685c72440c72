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
	// FloorRSSI is the substitution level for unheard APs; zero means
	// -95 dBm.
	FloorRSSI float64
	// K overrides the neighbour count for knn/wknn; zero means 3.
	K int
	// Quantize compiles the radio map into the int16-quantized form
	// (per-AP scale/offset, ~¼ the matrix footprint, within the bounds
	// documented in localize's parity tests). Applies to the
	// probabilistic and kNN families; other algorithms ignore it.
	Quantize bool
	// TopK bounds ranking to the best K candidates via a bounded-heap
	// selection instead of a full sort. Zero keeps full ranking. Applies
	// to the radio-map scanners (probabilistic, histogram, nnss/knn/wknn,
	// sector, hybrid); the kNN family never returns fewer than its
	// neighbour count.
	TopK int
}

// buildLocator constructs a registered algorithm over a training
// database. The returned locator is warmed: compiled radio maps,
// histogram tables and identifying codes are built here, once, so
// every consumer — the HTTP server, localize.BatchInto fan-outs, the
// CLI tools and the experiment harness — serves its first query at full
// speed.
func buildLocator(name string, db *trainingdb.DB, cfg BuildConfig) (localize.Locator, error) {
	if db == nil {
		return nil, errors.New("core: nil training database")
	}
	floor := cfg.FloorRSSI
	if floor == 0 {
		floor = -95
	}
	k := cfg.K
	if k <= 0 {
		k = 3
	}
	var loc localize.Locator
	switch name {
	case AlgoProbabilistic:
		ml := localize.NewMaxLikelihood(db)
		ml.FloorRSSI = floor
		ml.Quantize = cfg.Quantize
		ml.TopK = cfg.TopK
		loc = ml
	case AlgoHistogram:
		h := localize.NewHistogram(db)
		h.FloorRSSI = floor
		h.TopK = cfg.TopK
		loc = h
	case AlgoSector:
		s := localize.NewSector(db)
		s.TopK = cfg.TopK
		loc = s
	case AlgoNNSS:
		nn := localize.NewKNN(db, 1)
		nn.FloorRSSI = floor
		nn.Quantize = cfg.Quantize
		nn.TopK = cfg.TopK
		loc = nn
	case AlgoKNN:
		knn := localize.NewKNN(db, k)
		knn.FloorRSSI = floor
		knn.Quantize = cfg.Quantize
		knn.TopK = cfg.TopK
		loc = knn
	case AlgoWKNN:
		w := localize.NewKNN(db, k)
		w.Weighted = true
		w.FloorRSSI = floor
		w.Quantize = cfg.Quantize
		w.TopK = cfg.TopK
		loc = w
	case AlgoGeometric, AlgoGeometricLS, AlgoHybrid:
		if len(cfg.APPositions) == 0 {
			return nil, fmt.Errorf("core: algorithm %q needs AP positions", name)
		}
		g, err := localize.FitGeometric(db, cfg.APPositions,
			regress.InversePowerBasis{Degree: 2, MinDist: 1})
		if err != nil {
			return nil, err
		}
		if name == AlgoGeometricLS {
			g.Combine = localize.CombineLeastSquares
		}
		if name == AlgoHybrid {
			ml := localize.NewMaxLikelihood(db)
			ml.FloorRSSI = floor
			ml.Quantize = cfg.Quantize
			ml.TopK = cfg.TopK
			h, err := localize.NewHybrid(ml, g)
			if err != nil {
				return nil, err
			}
			loc = h
		} else {
			loc = g
		}
	default:
		return nil, fmt.Errorf("core: unknown algorithm %q (have %v)", name, Algorithms())
	}
	if w, ok := loc.(localize.Warmer); ok {
		if err := w.Warm(); err != nil {
			return nil, fmt.Errorf("core: warming %s: %w", name, err)
		}
	}
	return loc, nil
}

// Service is a trained, ready-to-answer location service — the output
// of Phase 1.
type Service struct {
	DB      *trainingdb.DB
	Locator localize.Locator
	// Names resolves coordinates back to application-level location
	// names (step 6's abstraction); may be nil.
	Names *locmap.Map
	// Rooms resolves coordinates to room regions by containment; may
	// be empty.
	Rooms []floorplan.Room
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
	if s.Names != nil {
		if name, _, ok := s.Names.Nearest(est.Pos); ok {
			res.NearestName = name
		}
	}
	for _, room := range s.Rooms {
		if room.Poly.Contains(est.Pos) {
			res.Room = room.Name
			break
		}
	}
	return res, nil
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
	loc, err := buildLocator(algo, db, BuildConfig{APPositions: apPos})
	if err != nil {
		return nil, trace, fmt.Errorf("core: step 4: %w", err)
	}
	trace = append(trace,
		"step 5: (working phase) observe signal-strength vectors",
		"step 6: (working phase) resolve observations to locations")
	svc := &Service{DB: db, Locator: loc, Names: lm}
	if p.Plan != nil {
		svc.Rooms = p.Plan.Rooms
	}
	return svc, trace, nil
}
