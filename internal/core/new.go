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
//
// Exactly one source option is required: WithDB (train from a raw
// database), WithCompiled (serve a compiled view), or WithCompiledFile
// (open and memory-map a v2 artifact). The returned Instance carries
// the built Service, a static SnapshotRegistry over it, and an
// idempotent Close that releases whatever the source pinned (the
// artifact mapping, for WithCompiledFile).
func New(opts ...Option) (*Instance, error) {
	o := newOptions{algo: AlgoProbabilistic}
	for _, opt := range opts {
		opt(&o)
	}
	sources := 0
	for _, set := range []bool{o.db != nil, o.compiled != nil, o.compiledFile != ""} {
		if set {
			sources++
		}
	}
	if sources != 1 {
		return nil, errors.New("core: New needs exactly one source (WithDB, WithCompiled or WithCompiledFile)")
	}

	var closeFn func() error
	fail := func(err error) (*Instance, error) {
		if closeFn != nil {
			err = errors.Join(err, closeFn())
		}
		return nil, err
	}
	c := o.compiled
	if o.compiledFile != "" {
		var err error
		if c, closeFn, err = trainingdb.OpenCompiledFile(o.compiledFile); err != nil {
			return nil, err
		}
		if o.names == nil {
			// The training locations themselves resolve names unless
			// the caller overrides.
			o.entryNames = true
		}
	}
	loc, c, err := buildLocator(o.algo, o.db, c, o.cfg)
	if err != nil {
		return fail(err)
	}
	// Every source records its recipe and keeps its view, so Patch can
	// carry any service New built — an artifact's included — across
	// folds.
	svc := &Service{Locator: loc, view: c, algo: o.algo, cfg: o.cfg}
	if o.names != nil {
		svc.Names = o.names.Index()
	} else if o.entryNames && svc.Names == nil {
		// The index serves the view's own names and positions in place.
		names, err := locmap.NewIndex(svc.Locations())
		if err != nil {
			return fail(fmt.Errorf("core: entry names: %w", err))
		}
		svc.Names = names
	}
	if o.rooms != nil {
		svc.Rooms = o.rooms
	}
	reg, err := StaticSnapshot(svc)
	if err != nil {
		return fail(err)
	}
	return &Instance{Service: svc, Registry: reg, closeFn: closeFn}, nil
}

// Instance is New's product: the built serving state plus the
// lifecycle handle for whatever the source pinned.
type Instance struct {
	// Service is the built, ready-to-answer serving state.
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
// state derives from the compiled view apply: probabilistic, nnss,
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

// WithAlgorithm selects the registry algorithm; the default is
// AlgoProbabilistic.
func WithAlgorithm(name string) Option {
	return func(o *newOptions) { o.algo = name }
}

// WithConfig applies the locator build knobs (top-k, AP positions,
// neighbour count).
func WithConfig(cfg BuildConfig) Option {
	return func(o *newOptions) { o.cfg = cfg }
}

// WithNames sets the symbolic name resolver: the service answers from
// m's index (see locmap.Map.Index), so later changes to m do not reach
// it.
func WithNames(m *locmap.Map) Option {
	return func(o *newOptions) { o.names = m }
}

// WithEntryNames derives the name resolver from the training entries
// themselves (every training location becomes a resolvable name). The
// default for WithCompiledFile; opt-in for the other sources. The
// resolver indexes the compiled view's names and positions in place:
// it builds one grid over them and nothing else sized by the entries.
func WithEntryNames() Option {
	return func(o *newOptions) { o.entryNames = true }
}

// WithRooms sets the room-containment regions.
func WithRooms(rooms []floorplan.Room) Option {
	return func(o *newOptions) { o.rooms = rooms }
}
