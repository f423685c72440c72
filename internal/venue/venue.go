// Package venue is the multi-tenancy layer of the serving fleet: one
// locserved process hosts many venues (building × floor radio maps)
// behind a single registry keyed by venue id.
//
// A venue is a directory entry — <dir>/<id>.ilr (a compiled v2
// radio-map artifact, memory-mapped on load) or <dir>/<id>.tdb (a raw
// training database, optionally with a per-venue ingestion WAL). The
// registry loads venues lazily on first request, dedups concurrent
// cold loads singleflight-style (a stampede on a cold venue loads the
// artifact once), and holds residents under an LRU memory budget:
// when the budget overflows, the coldest venue (oldest last-use) is
// evicted — dropped from the table and its mapping released once the
// last in-flight request holding it finishes.
//
// # Reference counting
//
// Handlers hold one venue per request: Acquire pins the venue,
// Snapshot reads its current serving snapshot, Release unpins. The
// pin is what makes eviction safe — munmap happens only after the
// reference count drains, so a request never reads matrices out from
// under itself. On the hot path (venue already resident) Acquire is a
// lock-free map read plus two atomic operations and allocates
// nothing; the cold path takes the registry mutex and does the real
// load.
package venue

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"indoorloc/internal/core"
	"indoorloc/internal/ingest"
	"indoorloc/internal/metrics"
	"indoorloc/internal/trainingdb"
)

// MaxIDLen caps venue ids. Ids double as artifact file names, and the
// router rejects anything longer before touching the registry, so an
// over-long id can never probe the filesystem.
const MaxIDLen = 64

// Sentinel errors the HTTP layer maps to machine-readable codes.
var (
	// ErrUnknownVenue: no artifact or database for the id exists.
	ErrUnknownVenue = errors.New("venue: unknown venue")
	// ErrInvalidID: the id fails ValidID.
	ErrInvalidID = errors.New("venue: invalid venue id")
	// ErrFrozen: the venue serves a compiled artifact and cannot accept
	// training reports.
	ErrFrozen = errors.New("venue: artifact-backed venue is frozen (no live training)")
)

// ValidID reports whether id is a well-formed venue id: 1–MaxIDLen
// characters drawn from [a-zA-Z0-9._-], and not "." or ".." (ids name
// files; dot segments would escape the artifact directory).
//
//loclint:hotpath
func ValidID(id string) bool {
	if len(id) == 0 || len(id) > MaxIDLen {
		return false
	}
	if id == "." || id == ".." {
		return false
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '.', c == '_', c == '-':
		default:
			return false
		}
	}
	return true
}

// Config tunes a Registry.
type Config struct {
	// Dir is the artifact directory: venue id → <Dir>/<id>.ilr
	// (compiled v2 artifact, preferred) or <Dir>/<id>.tdb (raw
	// training database). Required.
	Dir string
	// Algorithm is the registry algorithm every venue serves; empty
	// means core.AlgoProbabilistic. Artifact-backed venues are limited
	// to the compiled-servable algorithms.
	Algorithm string
	// Build carries the locator knobs (quantize, top-k)
	// applied to every venue.
	Build core.BuildConfig
	// MaxBytes is the LRU memory budget over resident venues,
	// accounted at artifact/database file size. Zero means unbounded.
	// At least one venue stays resident regardless of budget.
	MaxBytes int64
	// WALDir, when set, gives every .tdb-backed venue a live ingestion
	// pipeline journaling to <WALDir>/<id>.wal; artifact-backed venues
	// stay frozen. Empty disables live training for all venues.
	WALDir string
	// Ingest is the pipeline template for WALDir venues; WALPath is
	// overridden per venue.
	Ingest ingest.Config
	// Default is the venue id the legacy unversioned routes (/locate,
	// /track/..., /train/report) alias onto. Empty disables the
	// aliases' target (they answer venue_not_found).
	Default string
}

// Registry hosts many venues in one process.
type Registry struct {
	cfg Config

	// venues maps id → *Venue for resident venues only. Reads are the
	// request hot path; writes (load, evict) happen under mu.
	venues sync.Map
	mu     sync.Mutex
	// loading dedups concurrent cold loads: one loader per id, the
	// rest wait on its done channel.
	loading map[string]*loadCall

	resident   atomic.Int64 // accounted bytes across resident venues
	loaded     atomic.Int64 // resident venue count
	loads      atomic.Uint64
	loadErrors atomic.Uint64
	evictions  atomic.Uint64
	loadHist   metrics.Histogram // cold-load latency

	start time.Time // monotonic base for last-use stamps
}

// loadCall is one in-flight cold load; waiters block on done.
type loadCall struct {
	done chan struct{}
	v    *Venue
	err  error
}

// NewRegistry validates the configuration and returns an empty
// registry; venues load lazily on first Acquire.
func NewRegistry(cfg Config) (*Registry, error) {
	if cfg.Dir == "" {
		return nil, errors.New("venue: Config.Dir required")
	}
	st, err := os.Stat(cfg.Dir)
	if err != nil {
		return nil, fmt.Errorf("venue: artifact dir: %w", err)
	}
	if !st.IsDir() {
		return nil, fmt.Errorf("venue: %s is not a directory", cfg.Dir)
	}
	if cfg.Algorithm == "" {
		cfg.Algorithm = core.AlgoProbabilistic
	}
	if cfg.Default != "" && !ValidID(cfg.Default) {
		return nil, fmt.Errorf("%w: default %q", ErrInvalidID, cfg.Default)
	}
	if cfg.MaxBytes < 0 {
		return nil, errors.New("venue: MaxBytes must be non-negative")
	}
	return &Registry{
		cfg:     cfg,
		loading: make(map[string]*loadCall),
		start:   time.Now(),
	}, nil
}

// DefaultID returns the venue the legacy unversioned routes alias
// onto; empty when no default is configured.
func (r *Registry) DefaultID() string { return r.cfg.Default }

// Acquire pins the venue for one request and returns it; the caller
// must Release when done answering. A resident venue costs one
// lock-free map read and two atomics — zero allocations; a cold venue
// takes the load path (open, decode, warm) exactly once per stampede.
//
//loclint:hotpath
func (r *Registry) Acquire(id string) (*Venue, error) {
	if v, ok := r.venues.Load(id); ok {
		lv := v.(*Venue)
		if lv.tryRef() {
			lv.lastUse.Store(int64(time.Since(r.start)))
			return lv, nil
		}
	}
	return r.acquireSlow(id)
}

// acquireSlow is the cold path: validate, singleflight the load,
// install, and evict over budget.
func (r *Registry) acquireSlow(id string) (*Venue, error) {
	if !ValidID(id) {
		return nil, fmt.Errorf("%w: %q", ErrInvalidID, id)
	}
	for {
		r.mu.Lock()
		// Re-check residency under the lock: a concurrent loader may
		// have installed the venue between the fast path and here.
		if v, ok := r.venues.Load(id); ok {
			lv := v.(*Venue)
			if lv.tryRef() {
				r.mu.Unlock()
				lv.touch(r)
				return lv, nil
			}
		}
		if c, ok := r.loading[id]; ok {
			r.mu.Unlock()
			<-c.done
			if c.err != nil {
				return nil, c.err
			}
			if c.v.tryRef() {
				c.v.touch(r)
				return c.v, nil
			}
			continue // loaded but already evicted again; retry
		}
		c := &loadCall{done: make(chan struct{})}
		r.loading[id] = c
		r.mu.Unlock()

		v, err := r.load(id)

		r.mu.Lock()
		delete(r.loading, id)
		if err != nil {
			// An unknown venue is a client-side 404, not an operational
			// failure; only real load failures feed the error counter a
			// scrape would alert on.
			if !errors.Is(err, ErrUnknownVenue) {
				r.loadErrors.Add(1)
			}
			c.err = err
			r.mu.Unlock()
			close(c.done)
			return nil, err
		}
		r.venues.Store(id, v)
		r.resident.Add(v.bytes)
		r.loaded.Add(1)
		r.loads.Add(1)
		r.evictOverBudget(id)
		r.mu.Unlock()
		c.v = v
		close(c.done)
		if v.tryRef() {
			v.touch(r)
			return v, nil
		}
		// Evicted before we could pin it (budget smaller than the
		// working set under churn); go around again.
	}
}

// load builds a venue from the directory: the .ilr artifact when
// present, else the .tdb database (with a live ingest pipeline when
// WALDir is configured).
func (r *Registry) load(id string) (*Venue, error) {
	t0 := time.Now()
	ilr := filepath.Join(r.cfg.Dir, id+".ilr")
	if st, err := os.Stat(ilr); err == nil {
		in, err := core.New(
			core.WithCompiledFile(ilr),
			core.WithAlgorithm(r.cfg.Algorithm),
			core.WithConfig(r.cfg.Build),
		)
		if err != nil {
			return nil, fmt.Errorf("venue %s: %w", id, err)
		}
		v := newVenue(id, in.Registry, nil, in.Close, st.Size())
		v.touch(r)
		r.loadHist.Observe(time.Since(t0))
		return v, nil
	} else if !errors.Is(err, fs.ErrNotExist) {
		return nil, fmt.Errorf("venue %s: %w", id, err)
	}
	tdbPath := filepath.Join(r.cfg.Dir, id+".tdb")
	st, err := os.Stat(tdbPath)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return nil, fmt.Errorf("%w: %q", ErrUnknownVenue, id)
		}
		return nil, fmt.Errorf("venue %s: %w", id, err)
	}
	db, err := trainingdb.LoadFile(tdbPath)
	if err != nil {
		return nil, fmt.Errorf("venue %s: %w", id, err)
	}
	if r.cfg.WALDir != "" {
		icfg := r.cfg.Ingest
		icfg.WALPath = filepath.Join(r.cfg.WALDir, id+".wal")
		rebuild := func(db *trainingdb.DB) (*core.Service, error) {
			in, err := core.New(
				core.WithDB(db),
				core.WithAlgorithm(r.cfg.Algorithm),
				core.WithConfig(r.cfg.Build),
				core.WithEntryNames(),
			)
			if err != nil {
				return nil, err
			}
			return in.Service, nil
		}
		mgr, err := ingest.NewManager(db, rebuild, icfg)
		if err != nil {
			return nil, fmt.Errorf("venue %s: ingest: %w", id, err)
		}
		v := newVenue(id, mgr.Registry(), mgr, nil, st.Size())
		v.touch(r)
		r.loadHist.Observe(time.Since(t0))
		return v, nil
	}
	in, err := core.New(
		core.WithDB(db),
		core.WithAlgorithm(r.cfg.Algorithm),
		core.WithConfig(r.cfg.Build),
		core.WithEntryNames(),
	)
	if err != nil {
		return nil, fmt.Errorf("venue %s: %w", id, err)
	}
	v := newVenue(id, in.Registry, nil, in.Close, st.Size())
	v.touch(r)
	r.loadHist.Observe(time.Since(t0))
	return v, nil
}

// evictOverBudget drops coldest venues until the accounted bytes fit
// the budget. Runs under r.mu; keep (the just-loaded venue) is never
// the victim, so the working request always has a venue to serve
// from. Eviction removes the venue from the table and drops the
// registry's reference — the mapping is released when the last
// in-flight request holding the venue finishes.
func (r *Registry) evictOverBudget(keep string) {
	for r.cfg.MaxBytes > 0 && r.resident.Load() > r.cfg.MaxBytes {
		var victim *Venue
		r.venues.Range(func(_, val any) bool {
			lv := val.(*Venue)
			if lv.ID == keep {
				return true
			}
			if victim == nil || lv.lastUse.Load() < victim.lastUse.Load() {
				victim = lv
			}
			return true
		})
		if victim == nil {
			return // only the protected venue remains
		}
		r.venues.Delete(victim.ID)
		r.resident.Add(-victim.bytes)
		r.loaded.Add(-1)
		r.evictions.Add(1)
		victim.unref()
	}
}

// Close evicts every resident venue (their mappings release as
// in-flight requests drain) and leaves the registry empty. Acquire
// after Close reloads venues; callers stopping for good simply stop
// calling.
func (r *Registry) Close() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.venues.Range(func(key, val any) bool {
		lv := val.(*Venue)
		r.venues.Delete(key)
		r.resident.Add(-lv.bytes)
		r.loaded.Add(-1)
		lv.unref()
		return true
	})
	return nil
}

// Stats is a point-in-time registry counter snapshot for /metrics and
// /v1/venues.
type Stats struct {
	// Loaded is the resident venue count.
	Loaded int `json:"loaded"`
	// ResidentBytes is the accounted memory of resident venues.
	ResidentBytes int64 `json:"resident_bytes"`
	// MaxBytes echoes the configured budget (0 = unbounded).
	MaxBytes int64 `json:"max_bytes"`
	// Loads counts completed cold loads; LoadErrors failed ones.
	Loads      uint64 `json:"loads"`
	LoadErrors uint64 `json:"load_errors"`
	// Evictions counts venues dropped by the LRU budget.
	Evictions uint64 `json:"evictions"`
	// ColdLoadP50/P99 are cold-load latency quantiles.
	ColdLoadP50 time.Duration `json:"cold_load_p50_ns"`
	ColdLoadP99 time.Duration `json:"cold_load_p99_ns"`
}

// Stats returns the registry counters.
func (r *Registry) Stats() Stats {
	return Stats{
		Loaded:        int(r.loaded.Load()),
		ResidentBytes: r.resident.Load(),
		MaxBytes:      r.cfg.MaxBytes,
		Loads:         r.loads.Load(),
		LoadErrors:    r.loadErrors.Load(),
		Evictions:     r.evictions.Load(),
		ColdLoadP50:   r.loadHist.Quantile(0.50),
		ColdLoadP99:   r.loadHist.Quantile(0.99),
	}
}

// Status describes one venue for the /v1/venues listing.
type Status struct {
	ID     string `json:"id"`
	Loaded bool   `json:"loaded"`
	// Source is "artifact" (.ilr) or "database" (.tdb).
	Source string `json:"source"`
	// Bytes is the on-disk size (the LRU accounting unit).
	Bytes int64 `json:"bytes"`
	// Generation and Locations describe the serving snapshot; zero
	// when the venue is cold.
	Generation uint64 `json:"generation,omitempty"`
	Locations  int    `json:"locations,omitempty"`
	// Live reports a venue with an ingestion pipeline attached.
	Live bool `json:"live,omitempty"`
}

// Status describes one venue without forcing a cold load — a status
// probe must stay cheap and must not churn the LRU.
func (r *Registry) Status(id string) (Status, error) {
	if !ValidID(id) {
		return Status{}, fmt.Errorf("%w: %q", ErrInvalidID, id)
	}
	st := Status{ID: id}
	if info, err := os.Stat(filepath.Join(r.cfg.Dir, id+".ilr")); err == nil {
		st.Source, st.Bytes = "artifact", info.Size()
	} else if info, err := os.Stat(filepath.Join(r.cfg.Dir, id+".tdb")); err == nil {
		st.Source, st.Bytes = "database", info.Size()
	} else {
		return Status{}, fmt.Errorf("%w: %q", ErrUnknownVenue, id)
	}
	if v, ok := r.venues.Load(id); ok {
		lv := v.(*Venue)
		// Pin before reading the snapshot: an evicted venue's mmap can
		// be unmapped the instant its refcount hits zero, and a bare
		// Snapshot() on it would read freed memory. A venue draining to
		// zero refuses the pin and is reported as not loaded.
		if lv.tryRef() {
			st.Loaded = true
			st.Live = lv.mgr != nil
			if snap := lv.Snapshot(); snap != nil {
				st.Generation = snap.Generation
				if snap.Service != nil && snap.Service.DB != nil {
					st.Locations = snap.Service.DB.Len()
				}
			}
			lv.unref()
		}
	}
	return st, nil
}

// List enumerates every venue the directory offers, resident or cold,
// sorted by id. It reads the directory on every call — the listing is
// an operator surface, not a hot path.
func (r *Registry) List() ([]Status, error) {
	ents, err := os.ReadDir(r.cfg.Dir)
	if err != nil {
		return nil, fmt.Errorf("venue: list: %w", err)
	}
	seen := make(map[string]Status, len(ents))
	for _, ent := range ents {
		if ent.IsDir() {
			continue
		}
		name := ent.Name()
		var id, source string
		switch {
		case strings.HasSuffix(name, ".ilr"):
			id, source = name[:len(name)-4], "artifact"
		case strings.HasSuffix(name, ".tdb"):
			id, source = name[:len(name)-4], "database"
		default:
			continue
		}
		if !ValidID(id) {
			continue
		}
		if prev, ok := seen[id]; ok && prev.Source == "artifact" {
			continue // .ilr wins over a sibling .tdb, matching load
		}
		st := Status{ID: id, Source: source}
		if info, err := ent.Info(); err == nil {
			st.Bytes = info.Size()
		}
		seen[id] = st
	}
	out := make([]Status, 0, len(seen))
	for id, st := range seen {
		if v, ok := r.venues.Load(id); ok {
			lv := v.(*Venue)
			// Pin before reading, as in Status: a concurrently evicted
			// venue's snapshot may alias an unmapped artifact.
			if lv.tryRef() {
				st.Loaded = true
				st.Live = lv.mgr != nil
				// Each iteration reads a different venue's registry — the
				// one-snapshot-per-answer rule guards repeated reads of the
				// same registry, which this is not.
				if snap := lv.Snapshot(); snap != nil { //loclint:allow snapshotonce
					st.Generation = snap.Generation
					if snap.Service != nil && snap.Service.DB != nil {
						st.Locations = snap.Service.DB.Len()
					}
				}
				lv.unref()
			}
		}
		out = append(out, st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out, nil
}

// Venue is one resident tenant: its snapshot registry, its optional
// live-training pipeline, and the reference count that makes eviction
// safe under in-flight requests.
type Venue struct {
	// ID is the venue's registry key (and artifact file stem).
	ID string

	reg *core.SnapshotRegistry
	mgr *ingest.Manager // non-nil for live (.tdb + WALDir) venues

	closeFn func() error // releases the artifact mapping; may be nil
	bytes   int64
	// refs counts the registry's own reference (1 while resident) plus
	// one per in-flight request. 0 means finalized; tryRef refuses to
	// resurrect it.
	refs    atomic.Int64
	lastUse atomic.Int64 // nanoseconds since registry start
}

func newVenue(id string, reg *core.SnapshotRegistry, mgr *ingest.Manager, closeFn func() error, bytes int64) *Venue {
	v := &Venue{ID: id, reg: reg, mgr: mgr, closeFn: closeFn, bytes: bytes}
	v.refs.Store(1)
	return v
}

// tryRef takes a reference unless the venue is already draining to
// zero (evicted with no holders left).
//
//loclint:hotpath
func (v *Venue) tryRef() bool {
	for {
		n := v.refs.Load()
		if n <= 0 {
			return false
		}
		if v.refs.CompareAndSwap(n, n+1) {
			return true
		}
	}
}

func (v *Venue) touch(r *Registry) {
	v.lastUse.Store(int64(time.Since(r.start)))
}

// Snapshot returns the venue's current serving snapshot. Load it once
// per request and answer entirely from it.
//
//loclint:hotpath
func (v *Venue) Snapshot() *core.Snapshot { return v.reg.Current() }

// Manager returns the venue's live-training pipeline, nil for frozen
// (artifact-backed, or no WALDir) venues.
func (v *Venue) Manager() *ingest.Manager { return v.mgr }

// Release unpins the venue after a request. The last release of an
// evicted venue finalizes it (stops the ingest pipeline, releases the
// artifact mapping).
//
//loclint:hotpath
func (v *Venue) Release() { v.unref() }

//loclint:hotpath
func (v *Venue) unref() {
	if v.refs.Add(-1) == 0 {
		v.finalize()
	}
}

// finalize releases everything the venue pinned. Runs exactly once —
// refs can never rise from 0 — on whatever goroutine dropped the last
// reference (cold path by construction: eviction already happened).
func (v *Venue) finalize() {
	if v.mgr != nil {
		v.mgr.Close()
	}
	if v.closeFn != nil {
		v.closeFn()
	}
}
