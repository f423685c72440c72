package trainingdb

import (
	"math"
	"sort"

	"indoorloc/internal/geom"
)

// This file holds the live-training primitives: streaming one
// crowdsourced observation into the per-⟨entry, AP⟩ statistics
// (AddSample/Fold) and producing immutable copy-on-write views of the
// database (Clone/Snapshot) so a compactor can keep folding while a
// published snapshot serves queries.

// AddSample folds one more RSSI reading into the statistics using
// Welford's streaming update, so the stored Mean/StdDev after n+1
// samples equal (up to float rounding through the σ→m2→σ round trip)
// what Generate would have computed from the full sample list. The raw
// sample is appended so distribution-aware methods (histogram,
// staleness KS tests) keep seeing the full distribution.
func (s *APStats) AddSample(v float64) {
	// Recover the second central moment from the stored unbiased σ.
	var m2 float64
	if s.N > 1 {
		m2 = s.StdDev * s.StdDev * float64(s.N-1)
	}
	if s.N == 0 {
		s.Min, s.Max = v, v
	} else {
		if v < s.Min {
			s.Min = v
		}
		if v > s.Max {
			s.Max = v
		}
	}
	s.N++
	delta := v - s.Mean
	s.Mean += delta / float64(s.N)
	m2 += delta * (v - s.Mean)
	if s.N > 1 {
		s.StdDev = math.Sqrt(m2 / float64(s.N-1))
	} else {
		s.StdDev = 0
	}
	s.Samples = append(s.Samples, v)
}

// Fold streams one observation (BSSID → RSSI) into the training
// location name, creating the entry at pos when it does not exist yet
// (an existing entry keeps its surveyed position; pos is ignored).
// Each reading counts as one training sample for its AP. BSSIDs new to
// the universe are inserted in sorted position. Fold bumps the
// generation: compiled views built before it are stale afterwards.
func (db *DB) Fold(name string, pos geom.Point, obs map[string]float64) {
	e := db.Entries[name]
	if e == nil {
		e = &Entry{Name: name, Pos: pos, PerAP: make(map[string]*APStats, len(obs))}
		if db.Entries == nil {
			db.Entries = make(map[string]*Entry)
		}
		db.Entries[name] = e
		db.invalidateNames()
	}
	for b, v := range obs {
		s := e.PerAP[b]
		if s == nil {
			s = &APStats{BSSID: b}
			e.PerAP[b] = s
			if i := sort.SearchStrings(db.BSSIDs, b); i == len(db.BSSIDs) || db.BSSIDs[i] != b {
				db.BSSIDs = append(db.BSSIDs, "")
				copy(db.BSSIDs[i+1:], db.BSSIDs[i:])
				db.BSSIDs[i] = b
			}
		}
		s.AddSample(v)
	}
	db.bumpGeneration()
}

// Clone copies the entry for mutation: the statistics structs are
// fresh (one array holds them all), and each sample slice shares the original's array capped at
// its length, so the clone's first AddSample copies that history once
// into a new array and never writes into the original's. Folding into
// the clone never disturbs readers of the original. This is the copy
// half of the ingest compactor's copy-on-write: entries referenced by
// a published snapshot are cloned before the next fold touches them.
func (e *Entry) Clone() *Entry {
	ne := &Entry{Name: e.Name, Pos: e.Pos, PerAP: make(map[string]*APStats, len(e.PerAP))}
	stats := make([]APStats, 0, len(e.PerAP)) // one allocation for every AP's copy
	for b, s := range e.PerAP {
		stats = append(stats, *s)
		cs := &stats[len(stats)-1]
		cs.Samples = s.Samples[:len(s.Samples):len(s.Samples)]
		ne.PerAP[b] = cs
	}
	return ne
}

// Snapshot returns a shallow copy of the database: a fresh Entries map
// and BSSIDs slice holding the same *Entry pointers, carrying the
// current generation. The copy is cheap — O(entries), no statistics
// are duplicated — and is safe to publish as an immutable view
// provided the owner follows the copy-on-write discipline: after
// snapshotting, Clone any shared entry before mutating it (the ingest
// compactor does exactly this). Structural mutations on the original
// (new entries, new BSSIDs, removals) never affect the snapshot, since
// the map and slice are copies.
func (db *DB) Snapshot() *DB {
	nd := &DB{
		Entries: make(map[string]*Entry, len(db.Entries)),
		BSSIDs:  append([]string(nil), db.BSSIDs...),
		gen:     db.gen,
	}
	for n, e := range db.Entries {
		nd.Entries[n] = e
	}
	// The sorted-name cache is read-only once built (invalidation
	// drops it), so the copy shares it.
	db.namesMu.Lock()
	nd.names = db.names
	db.namesMu.Unlock()
	return nd
}
