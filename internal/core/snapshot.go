package core

import (
	"errors"
	"sync/atomic"
	"time"
)

// Snapshot is one immutable, fully consistent serving state: the
// radio map compiled at one generation of the training database, the
// complete locator over it, and the name/room resolution built from
// the same entry set. Handlers that load a snapshot once
// and answer entirely from it can never mix worlds — the estimate, its
// symbolic name and its room all come from the same radio map.
//
// Snapshots are published, never mutated: the ingest compactor builds
// a fresh one off the serving path and swaps it in atomically.
type Snapshot struct {
	// Generation is the training database's mutation counter at build
	// time (see trainingdb.DB.Generation).
	Generation uint64
	// Service is the frozen serving state. Its Locator, Names and Rooms
	// must not be mutated after Publish.
	Service *Service
	// BuiltAt records when the snapshot was built (the last-swap time
	// /healthz reports).
	BuiltAt time.Time
}

// SnapshotRegistry publishes the current snapshot to concurrent
// readers. Reads are one atomic pointer load — the hot-path cost of
// hot-swappability — and writers replace the whole snapshot at once,
// so a reader always sees a consistent ⟨view, locator, names⟩ triple.
type SnapshotRegistry struct {
	cur atomic.Pointer[Snapshot]
}

// NewSnapshotRegistry returns a registry serving the given initial
// snapshot.
func NewSnapshotRegistry(s *Snapshot) (*SnapshotRegistry, error) {
	if s == nil || s.Service == nil || s.Service.Locator == nil {
		return nil, errors.New("core: snapshot registry needs an initial snapshot with a locator")
	}
	r := &SnapshotRegistry{}
	r.cur.Store(s)
	return r, nil
}

// StaticSnapshot wraps an immutable service as a registry's one
// forever-current snapshot — the shape of a server without live
// ingestion.
func StaticSnapshot(svc *Service) (*SnapshotRegistry, error) {
	if svc == nil || svc.Locator == nil {
		return nil, errors.New("core: nil service")
	}
	return NewSnapshotRegistry(&Snapshot{Generation: svc.Generation(), Service: svc, BuiltAt: time.Now()})
}

// Current returns the snapshot to serve this request from. Callers
// must load it once per request and use only that snapshot for the
// whole answer.
//
//loclint:hotpath
func (r *SnapshotRegistry) Current() *Snapshot { return r.cur.Load() }

// Publish atomically replaces the current snapshot. In-flight readers
// keep the snapshot they loaded; new readers see s. Publish never
// blocks readers.
func (r *SnapshotRegistry) Publish(s *Snapshot) { r.cur.Store(s) }
