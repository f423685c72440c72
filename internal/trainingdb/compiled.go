package trainingdb

import (
	"cmp"
	"math"
	"slices"

	"indoorloc/internal/geom"
	"indoorloc/internal/stats"
)

// Compiled is a read-only view of a DB built for the localization hot
// path. Where the DB stores per-entry statistics in string-keyed maps,
// the compiled view interns every BSSID to a dense column index and
// stores the per-⟨entry, AP⟩ statistics as AP-major posting lists of
// precomputed records, so a scoring loop walks the heard columns'
// lists with zero map lookups, zero sorting, and zero per-call
// log/sqrt work for the terms that do not depend on the observation.
//
// This is the inverted index FAB-MAP serves WiFi fingerprints from:
// one list per AP of the training points that heard it. A build
// (core.New) compiles the DB once and constructs its locator over the
// view, which scores every observation against the lists.
//
// A Compiled view is immutable after construction and therefore safe
// for unsynchronised concurrent reads. It is a snapshot: mutating the
// source DB (Merge, PruneAPs, RemoveEntry, Fold) does not update it.
// The view records the DB generation it was compiled from; Stale
// detects mutation-after-build, and the ingest compactor patches (or
// recompiles) and hot-swaps a fresh view whenever the generation moves.
type Compiled struct {
	// Generation is the source DB's mutation counter at compile time.
	Generation uint64

	// FloorRSSI and FloorSigma are the floor-model parameters the view
	// was compiled with: the substitute level and spread for APs present
	// on one side (observation or training entry) but not the other.
	// FloorSigma is clamped to stats.MinSigma.
	FloorRSSI  float64
	FloorSigma float64

	// Names holds the entry names, sorted; Pos is parallel to it.
	Names []string
	Pos   []geom.Point
	// BSSIDs is the sorted AP universe; column j's posting list holds
	// the cells of AP BSSIDs[j].
	BSSIDs []string

	// UnheardLL is the per-entry log-likelihood of hearing nothing at
	// all: the sum over the entry's trained cells of the floor-model
	// term LogGaussianPDF(FloorRSSI, mean, σ). Scoring an observation
	// starts from this baseline and corrects only the heard columns'
	// postings, making the scan O(entries + heard postings) instead of
	// O(entries × universe).
	UnheardLL []float64
	// SignalBase is the per-entry squared signal distance of the
	// all-floor observation: the sum of (FloorRSSI−mean)² over trained
	// cells. The kNN family applies per-posting corrections to it.
	SignalBase []float64

	// PostStart and Post are the AP-major posting lists of the trained
	// cells: column j's cells are Post[PostStart[j]:PostStart[j+1]], in
	// strictly increasing entry order. They are the radio map the
	// maximum-likelihood and kNN scans read: one record per trained
	// ⟨entry, AP⟩ pair, the paper's ⟨mean, σ⟩ in the form the loop
	// consumes.
	PostStart []int32
	Post      []Posting
	// PostN is parallel to Post: each trained cell's sample count, for
	// the sector codes, the histogram tables and replication. int32
	// keeps it mmap-able; a cell never approaches 2³¹ samples.
	PostN []int32

	apIndex map[string]int
	// backing pins the byte region a decoded view's slices and strings
	// alias (a memory mapping or the decode input); nil for views built
	// by Compile.
	backing []byte
}

// Compile builds the view of the database under the given floor-model
// parameters, straight from the DB's float64 statistics. floorSigma
// below stats.MinSigma is raised to it. The view snapshots the DB:
// later DB mutations are not reflected. Nothing is sized entries × APs.
func (db *DB) Compile(floorRSSI, floorSigma float64) *Compiled {
	if floorSigma < stats.MinSigma {
		floorSigma = stats.MinSigma
	}
	names := db.Names()
	nE, nAP := len(names), len(db.BSSIDs)
	c := &Compiled{
		Generation: db.gen,
		FloorRSSI:  floorRSSI,
		FloorSigma: floorSigma,
		Names:      append([]string(nil), names...),
		Pos:        make([]geom.Point, nE),
		BSSIDs:     append([]string(nil), db.BSSIDs...),
		UnheardLL:  make([]float64, nE),
		SignalBase: make([]float64, nE),
		apIndex:    make(map[string]int, nAP),
	}
	for j, b := range c.BSSIDs {
		c.apIndex[b] = j
	}
	c.PostStart = make([]int32, nAP+1)
	for i, name := range c.Names {
		e := db.Entries[name]
		c.Pos[i] = e.Pos
		for b := range e.PerAP {
			if j, ok := c.apIndex[b]; ok {
				c.PostStart[j+1]++
			}
		}
	}
	for j := 0; j < nAP; j++ {
		c.PostStart[j+1] += c.PostStart[j]
	}
	c.Post, c.PostN = make([]Posting, c.PostStart[nAP]), make([]int32, c.PostStart[nAP])
	next := append([]int32(nil), c.PostStart[:nAP]...)
	var (
		cells []cell
		recs  []Posting
	)
	// Walking entries in order leaves every list sorted by entry.
	for i, name := range c.Names {
		cells = c.entryCells(db.Entries[name], cells[:0])
		recs = slices.Grow(recs[:0], len(cells))[:len(cells)]
		c.UnheardLL[i], c.SignalBase[i] = entryRecords(i, cells, floorRSSI, recs)
		for k, cl := range cells {
			p := next[cl.col]
			next[cl.col]++
			c.Post[p], c.PostN[p] = recs[k], int32(cl.s.N)
		}
	}
	return c
}

// cell is one trained ⟨entry, AP⟩ pair: its column in the view and its
// statistics.
type cell struct {
	col int32
	s   *APStats
}

// entryCells appends e's cells whose AP is in the view's universe to
// cells, in ascending column order: the order entryRecords sums the
// entry's baselines in.
func (c *Compiled) entryCells(e *Entry, cells []cell) []cell {
	for b, s := range e.PerAP {
		if j, ok := c.apIndex[b]; ok {
			cells = append(cells, cell{int32(j), s})
		}
	}
	slices.SortFunc(cells, func(a, b cell) int { return int(a.col - b.col) })
	return cells
}

// halfLog2Pi is ½·log 2π, the Gaussian normaliser's constant term.
// float64() rounds the product, so no fused multiply-subtract.
var halfLog2Pi = float64(0.5 * math.Log(2*math.Pi))

// entryRecords is the per-entry record arithmetic: it fills recs[k]
// with entry i's posting record for cells[k] and returns the entry's
// baselines, UnheardLL and SignalBase, summed over its cells in the
// given (ascending column) order. Compile and Patch both build records
// here, so a patched entry has the bits a full compile gives it.
func entryRecords(i int, cells []cell, floorRSSI float64, recs []Posting) (unheardLL, signalBase float64) {
	for k, cl := range cells {
		s := cl.s
		sigma := max(s.StdDev, stats.MinSigma)
		floorLL := stats.LogGaussianPDF(floorRSSI, s.Mean, s.StdDev)
		unheardLL += floorLL
		d := floorRSSI - s.Mean
		// Rounding the square before the add blocks a fused
		// multiply-add, so the baseline has the same bits on every CPU.
		signalBase += float64(d * d)
		recs[k] = newPosting(i, s.Mean, sigma, -math.Log(sigma)-halfLog2Pi, floorLL)
	}
	return unheardLL, signalBase
}

// Patch builds the view of db from prev, a view compiled from an
// earlier state of db, when every change since is a fold into one of
// the entries named in touched. It copies prev's records, sample
// counts and baselines, rewrites the touched entries' records in their
// column order through the arithmetic Compile uses, and shares prev's
// names, positions, BSSIDs, list starts and AP index, so its
// EncodeCompiled bytes equal those of db.Compile(floorRSSI, floorSigma).
// The work is O(postings) of copying plus O(touched cells) of
// arithmetic, against Compile's map walk over every entry and cell.
//
// Patch returns nil when the structure changed, which renumbers the
// lists: a new entry, a new BSSID, a new trained cell on a touched
// entry, or floor parameters other than prev's. The caller compiles
// instead. An untouched entry is taken to be unchanged; removals are
// not folds and must not be patched over.
func (db *DB) Patch(prev *Compiled, touched map[string]struct{}, floorRSSI, floorSigma float64) *Compiled {
	if floorSigma < stats.MinSigma {
		floorSigma = stats.MinSigma
	}
	if prev == nil || math.Float64bits(prev.FloorRSSI) != math.Float64bits(floorRSSI) ||
		math.Float64bits(prev.FloorSigma) != math.Float64bits(floorSigma) ||
		len(db.Entries) != len(prev.Names) || !slices.Equal(db.BSSIDs, prev.BSSIDs) {
		return nil
	}
	c := &Compiled{
		Generation: db.gen,
		FloorRSSI:  prev.FloorRSSI,
		FloorSigma: prev.FloorSigma,
		Names:      prev.Names,
		Pos:        prev.Pos,
		BSSIDs:     prev.BSSIDs,
		UnheardLL:  slices.Clone(prev.UnheardLL),
		SignalBase: slices.Clone(prev.SignalBase),
		PostStart:  prev.PostStart,
		Post:       slices.Clone(prev.Post),
		PostN:      slices.Clone(prev.PostN),
		apIndex:    prev.apIndex,
		backing:    prev.backing,
	}
	var (
		cells []cell
		recs  []Posting
	)
	for name := range touched {
		i, found := slices.BinarySearch(c.Names, name)
		e := db.Entries[name]
		if !found || e == nil {
			return nil
		}
		cells = c.entryCells(e, cells[:0])
		recs = slices.Grow(recs[:0], len(cells))[:len(cells)]
		c.UnheardLL[i], c.SignalBase[i] = entryRecords(i, cells, floorRSSI, recs)
		for k, cl := range cells {
			lo, hi := c.PostStart[cl.col], c.PostStart[cl.col+1]
			p, ok := slices.BinarySearchFunc(c.Post[lo:hi], int32(i), func(p Posting, e int32) int {
				return cmp.Compare(p.Entry, e)
			})
			if !ok {
				return nil // a new trained cell
			}
			c.Post[lo+int32(p)], c.PostN[lo+int32(p)] = recs[k], int32(cl.s.N)
		}
	}
	return c
}

// Stale reports whether db has mutated since the view was compiled —
// the view still serves the old radio map, so answers drawn from it no
// longer reflect the database. Locators bind to the generation their
// view was compiled at; a deployment that mutates the DB afterwards
// must rebuild them (the ingest compactor's hot-swap path)
// rather than keep serving the stale view.
func (c *Compiled) Stale(db *DB) bool { return c.Generation != db.Generation() }

// NumEntries returns the number of training entries in the view.
func (c *Compiled) NumEntries() int { return len(c.Names) }

// NumAPs returns the AP universe size: the number of posting lists.
func (c *Compiled) NumAPs() int { return len(c.BSSIDs) }

// APIndex returns the dense column for a BSSID, false when the AP was
// never seen in training.
func (c *Compiled) APIndex(bssid string) (int, bool) {
	j, ok := c.apIndex[bssid]
	return j, ok
}

// Intern maps an observation (BSSID → RSSI) onto the dense columns,
// appending to the caller-supplied scratch slices (pass nil or
// length-zero slices; reusing them across calls avoids allocation).
// BSSIDs outside the training universe are dropped, matching how the
// map-based scorers ignored them. The returned pairs are sorted by
// column so scans are deterministic regardless of map iteration order.
func (c *Compiled) Intern(obs map[string]float64, cols []int32, vals []float64) ([]int32, []float64) {
	for b, v := range obs {
		if j, ok := c.apIndex[b]; ok {
			cols = append(cols, int32(j))
			vals = append(vals, v)
		}
	}
	// Insertion sort of the parallel pair; heard-AP counts are small.
	for i := 1; i < len(cols); i++ {
		cj, vj := cols[i], vals[i]
		k := i - 1
		for k >= 0 && cols[k] > cj {
			cols[k+1], vals[k+1] = cols[k], vals[k]
			k--
		}
		cols[k+1], vals[k+1] = cj, vj
	}
	return cols, vals
}
