package ingest

import (
	"fmt"
	"time"

	"indoorloc/internal/core"
	"indoorloc/internal/geom"
	"indoorloc/internal/trainingdb"
)

// Folder is the fold-and-publish core of live training: the trainer's
// compactor (Manager) and a replication follower both fold reports
// into a master database and build snapshots of it through one, so
// they land on the same radio map. A snapshot is built from the master
// itself, and no service keeps it; when a caller asks for that state
// (Freeze), it is frozen and the master goes on as a shallow copy
// whose entries are cloned before a fold touches them.
// It is not safe for concurrent use.
type Folder struct {
	// touched names the entries folded since the latest snapshot, which
	// db owns alone once shared is set (their first fold cloned or
	// founded them); every other entry may then be shared with a frozen
	// state. frozen is the latest snapshot's state when it was frozen.
	db         *trainingdb.DB
	frozen     *trainingdb.DB
	snapRadius float64
	rebuild    Rebuilder
	touched    map[string]struct{}
	shared     bool
	// served is the next snapshot's patch base (see settle), or nil.
	served *core.Service
}

// NewFolder returns a folder that owns db from then on, snaps
// coordinate-only reports within snapRadius and builds the snapshots
// it cannot patch through rebuild. served, when not nil, is a service
// already serving db's current state (a follower's bootstrap service):
// it is the first patch base.
func NewFolder(db *trainingdb.DB, snapRadius float64, rebuild Rebuilder, served *core.Service) *Folder {
	f := &Folder{db: db, snapRadius: snapRadius, rebuild: rebuild, touched: make(map[string]struct{})}
	f.settle(served)
	return f
}

// SnapRadius returns the coordinate-snap rule the folder resolves with.
func (f *Folder) SnapRadius() float64 { return f.snapRadius }

// Generation returns the master database's generation.
func (f *Folder) Generation() uint64 { return f.db.Generation() }

// Fold resolves one report against the master database and folds it
// in, cloning a shared entry first. It reports false when the report
// is undecidable and was dropped.
func (f *Folder) Fold(r Report) bool {
	name, pos, ok := resolveReport(f.db, r, f.snapRadius)
	if !ok {
		return false
	}
	if _, ok := f.touched[name]; !ok {
		if e := f.db.Entries[name]; e != nil && f.shared {
			f.db.Entries[name] = e.Clone()
		}
		f.touched[name] = struct{}{}
	}
	f.db.Fold(name, pos, r.Observation)
	return true
}

// Snapshot builds the snapshot of the master database, by patching the
// latest snapshot's service with the touched entries when it can, else
// through the Rebuilder. On error nothing changes.
func (f *Folder) Snapshot() (snap *core.Snapshot, patched bool, err error) {
	var svc *core.Service
	if f.served != nil {
		if svc, err = f.served.Patch(f.db, f.touched); err != nil {
			return nil, false, err
		}
	}
	patched = svc != nil
	if !patched {
		if svc, err = f.rebuild(f.db); err != nil {
			return nil, false, err
		}
	}
	clear(f.touched)
	f.frozen = nil
	f.settle(svc)
	return &core.Snapshot{Generation: f.db.Generation(), Service: svc, BuiltAt: time.Now()}, patched, nil
}

// Freeze returns the state the latest snapshot was built from, which
// later folds never disturb. Call it before the next Fold.
func (f *Folder) Freeze() *trainingdb.DB {
	if f.frozen == nil {
		f.frozen, f.db = f.db, f.db.Snapshot()
		f.shared = true
	}
	return f.frozen
}

// settle takes svc as the next patch base when its view is of the
// master database's current state; otherwise the next snapshot
// rebuilds.
func (f *Folder) settle(svc *core.Service) {
	f.served = nil
	if svc != nil && svc.View() != nil && svc.View().Generation == f.db.Generation() {
		f.served = svc
	}
}

// resolveReport applies the fold resolution rules against db without
// mutating it: an existing name wins (its surveyed coordinate is
// authoritative); a coordinate-only report snaps to the nearest entry
// within snapRadius, else founds a new entry auto-named from its
// coordinate; a never-seen name with no coordinate is undecidable
// (ok=false — the caller counts it dropped).
func resolveReport(db *trainingdb.DB, r Report, snapRadius float64) (name string, pos geom.Point, ok bool) {
	name = r.Name
	if r.Pos != nil {
		pos = geom.Point{X: r.Pos.X, Y: r.Pos.Y}
	}
	if name == "" {
		if e, found := db.NearestEntry(pos); found && e.Pos.Dist(pos) <= snapRadius {
			name, pos = e.Name, e.Pos
		} else {
			name = fmt.Sprintf("xy:%.1f,%.1f", pos.X, pos.Y)
		}
	} else if e, found := db.Entries[name]; found {
		pos = e.Pos
	} else if r.Pos == nil {
		return "", geom.Point{}, false
	}
	return name, pos, true
}
