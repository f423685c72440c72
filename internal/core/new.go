package core

import (
	"errors"
	"fmt"
	"sync"

	"indoorloc/internal/floorplan"
	"indoorloc/internal/locmap"
	"indoorloc/internal/trainingdb"
)

// New is the single entry point for constructing a serving state: the
// source, algorithm and build knobs arrive as functional options.
//
//	in, err := core.New(core.WithDB(db), core.WithAlgorithm(core.AlgoKNN))
//	in, err := core.New(core.WithCompiledFile("campus.ilr"))
//	in, err := core.New(core.WithService(svc))         // wrap a prebuilt service
//
// Exactly one source option is required: WithDB (train from a raw
// database), WithCompiled (serve a compiled view), WithCompiledFile
// (open and memory-map a v2 artifact), or WithService (adopt a
// prebuilt Service). The returned Instance carries the warmed Service,
// a static SnapshotRegistry over it, and an idempotent Close that
// releases whatever the source pinned (the artifact mapping, for
// WithCompiledFile).
func New(opts ...Option) (*Instance, error) {
	o := newOptions{algo: AlgoProbabilistic}
	for _, opt := range opts {
		opt(&o)
	}
	sources := 0
	for _, set := range []bool{o.db != nil, o.compiled != nil, o.compiledFile != "", o.service != nil} {
		if set {
			sources++
		}
	}
	if sources != 1 {
		return nil, errors.New("core: New needs exactly one source (WithDB, WithCompiled, WithCompiledFile or WithService)")
	}

	var (
		svc     *Service
		closeFn func() error
	)
	switch {
	case o.service != nil:
		svc = o.service
	case o.db != nil:
		loc, err := buildLocator(o.algo, o.db, o.cfg)
		if err != nil {
			return nil, err
		}
		svc = &Service{DB: o.db, Locator: loc}
	case o.compiled != nil:
		loc, err := buildLocatorFromCompiled(o.algo, o.compiled, o.cfg)
		if err != nil {
			return nil, err
		}
		svc = &Service{DB: o.compiled.Skeleton(), Locator: loc}
	default: // compiled artifact file
		c, closeMap, err := trainingdb.OpenCompiledFile(o.compiledFile)
		if err != nil {
			return nil, err
		}
		loc, err := buildLocatorFromCompiled(o.algo, c, o.cfg)
		if err != nil {
			return nil, errors.Join(err, closeMap())
		}
		svc = &Service{DB: c.Skeleton(), Locator: loc}
		closeFn = closeMap
		if o.names == nil && !o.entryNames {
			// The training locations themselves resolve names unless
			// the caller overrides.
			o.entryNames = true
		}
	}
	if o.names != nil {
		svc.Names = o.names
	} else if o.entryNames && svc.Names == nil && svc.DB != nil {
		entries := svc.DB.Names()
		names := locmap.NewSized(len(entries))
		for _, name := range entries {
			if err := names.Add(name, svc.DB.Entries[name].Pos); err != nil {
				if closeFn != nil {
					err = errors.Join(err, closeFn())
				}
				return nil, fmt.Errorf("core: entry names: %w", err)
			}
		}
		svc.Names = names
	}
	if o.rooms != nil {
		svc.Rooms = o.rooms
	}
	reg, err := StaticSnapshot(svc)
	if err != nil {
		if closeFn != nil {
			err = errors.Join(err, closeFn())
		}
		return nil, err
	}
	return &Instance{Service: svc, Registry: reg, closeFn: closeFn}, nil
}

// Instance is New's product: the warmed serving state plus the
// lifecycle handle for whatever the source pinned.
type Instance struct {
	// Service is the warmed, ready-to-answer serving state.
	Service *Service
	// Registry wraps Service as a forever-current static snapshot. Live
	// deployments (ingest.Manager) publish through their own registry
	// instead.
	Registry *SnapshotRegistry

	closeFn   func() error
	closeOnce sync.Once
	closeErr  error
}

// Close releases resources pinned by the instance's source — the
// memory mapping, for WithCompiledFile. It is idempotent: every call
// after the first returns the first call's error without re-closing.
// Close only after the instance stops answering (and nothing retains
// estimate strings aliasing the mapping).
func (in *Instance) Close() error {
	in.closeOnce.Do(func() {
		if in.closeFn != nil {
			in.closeErr = in.closeFn()
		}
	})
	return in.closeErr
}

// Option configures New.
type Option func(*newOptions)

type newOptions struct {
	db           *trainingdb.DB
	compiled     *trainingdb.Compiled
	compiledFile string
	service      *Service
	algo         string
	cfg          BuildConfig
	names        *locmap.Map
	entryNames   bool
	rooms        []floorplan.Room
}

// WithDB trains the algorithm over a raw training database.
func WithDB(db *trainingdb.DB) Option {
	return func(o *newOptions) { o.db = db }
}

// WithCompiled serves a compiled radio-map view directly (the shape of
// a decoded v2 artifact). Only the algorithms whose entire working
// state derives from the compiled matrices apply: probabilistic, nnss,
// knn, wknn and sector. Histogram needs raw per-sample tables, and the
// geometric family needs AP positions plus a propagation fit; train
// those from a .tdb. The same holds for WithCompiledFile.
func WithCompiled(c *trainingdb.Compiled) Option {
	return func(o *newOptions) { o.compiled = c }
}

// WithCompiledFile opens a v2 radio-map artifact (memory-mapped where
// supported) and serves it. Instance.Close releases the mapping.
func WithCompiledFile(path string) Option {
	return func(o *newOptions) { o.compiledFile = path }
}

// WithService adopts a prebuilt Service unchanged — the StaticSnapshot
// use case: wrap it in a registry without rebuilding anything.
func WithService(svc *Service) Option {
	return func(o *newOptions) { o.service = svc }
}

// WithAlgorithm selects the registry algorithm; the default is
// AlgoProbabilistic.
func WithAlgorithm(name string) Option {
	return func(o *newOptions) { o.algo = name }
}

// WithConfig applies the locator build knobs (quantization, top-k, AP
// positions, floor level, neighbour count).
func WithConfig(cfg BuildConfig) Option {
	return func(o *newOptions) { o.cfg = cfg }
}

// WithNames sets the symbolic name resolver.
func WithNames(m *locmap.Map) Option {
	return func(o *newOptions) { o.names = m }
}

// WithEntryNames derives the name resolver from the training entries
// themselves (every training location becomes a resolvable name). The
// default for WithCompiledFile; opt-in for the other sources.
func WithEntryNames() Option {
	return func(o *newOptions) { o.entryNames = true }
}

// WithRooms sets the room-containment regions.
func WithRooms(rooms []floorplan.Room) Option {
	return func(o *newOptions) { o.rooms = rooms }
}
