package repl

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"indoorloc/internal/trainingdb"
)

// The resume blob ships the trainer state the compiled artifact
// destroys: the exact ⟨Mean, StdDev⟩ of every trained cell. The
// artifact holds each mean only as a float32 posting center and σ only
// as a clamped float32 half precision, and AddSample resumes Welford's
// accumulator from the stored mean and σ, so resuming a fold from the
// artifact would diverge from the trainer on the very next record.
// Shipping the raw float64 bits restores the trainer's exact state:
// both sides run the identical ⟨mean, σ⟩ → m2 → σ round trip from
// identical bits, so every subsequent fold lands on identical bits too.
//
// Layout (all little endian):
//
//	8  bytes  magic "ILRCELL3"
//	u32       entry count (must match the artifact)
//	u32       AP count (must match the artifact)
//	u64       trained-cell count (must match the artifact's postings)
//	f64 × 2n  raw {Mean, StdDev} per trained cell, in posting order
//
// Retired and rejected: "ILRSIGM1" carried σ alone, taking the means
// from the retired float64 matrices; "ILRCELL2" listed the cells in the
// entry-major order of the retired dense trained matrix.
const (
	resumeMagic        = "ILRCELL3"
	resumeMagicSigma1  = "ILRSIGM1"
	resumeMagicEntryV2 = "ILRCELL2"
)

const resumeHeaderSize = 8 + 4 + 4 + 8

// Named DecodeResume failures.
var (
	// ErrResumeRetired rejects a blob in a retired format.
	ErrResumeRetired = errors.New("repl: resume blob is in a retired format; upgrade the trainer")
	// ErrResumeMagic rejects a blob that is no resume blob at all.
	ErrResumeMagic = errors.New("repl: resume blob has bad magic")
	// ErrResumeShape rejects a blob whose dimensions, cell count or
	// length do not match the artifact it ships with.
	ErrResumeShape = errors.New("repl: resume blob does not match the artifact")
)

// CellStats is one trained cell's exact trainer statistics.
type CellStats struct {
	Mean, StdDev float64
}

// EncodeResume captures the exact ⟨Mean, StdDev⟩ of every trained cell
// of c from the frozen database it was compiled from, in the
// artifact's posting order.
func EncodeResume(c *trainingdb.Compiled, db *trainingdb.DB) ([]byte, error) {
	out := make([]byte, resumeHeaderSize, resumeHeaderSize+16*len(c.Post))
	copy(out, resumeMagic)
	binary.LittleEndian.PutUint32(out[8:12], uint32(c.NumEntries()))
	binary.LittleEndian.PutUint32(out[12:16], uint32(c.NumAPs()))
	binary.LittleEndian.PutUint64(out[16:24], uint64(len(c.Post)))
	for j, b := range c.BSSIDs {
		for _, p := range c.Post[c.PostStart[j]:c.PostStart[j+1]] {
			name := c.Names[p.Entry]
			e := db.Entries[name]
			if e == nil {
				return nil, fmt.Errorf("repl: resume: entry %q in artifact but not in database", name)
			}
			s := e.PerAP[b]
			if s == nil {
				return nil, fmt.Errorf("repl: resume: cell ⟨%s, %s⟩ trained in artifact but missing in database", name, b)
			}
			out = binary.LittleEndian.AppendUint64(out, math.Float64bits(s.Mean))
			out = binary.LittleEndian.AppendUint64(out, math.Float64bits(s.StdDev))
		}
	}
	return out, nil
}

// DecodeResume validates the blob against the artifact's dimensions
// and returns the exact cell statistics in posting order.
func DecodeResume(data []byte, c *trainingdb.Compiled) ([]CellStats, error) {
	if len(data) >= 8 && (string(data[:8]) == resumeMagicSigma1 || string(data[:8]) == resumeMagicEntryV2) {
		return nil, ErrResumeRetired
	}
	if len(data) < resumeHeaderSize || string(data[:8]) != resumeMagic {
		return nil, ErrResumeMagic
	}
	nE := int(binary.LittleEndian.Uint32(data[8:12]))
	nAP := int(binary.LittleEndian.Uint32(data[12:16]))
	count := binary.LittleEndian.Uint64(data[16:24])
	if nE != c.NumEntries() || nAP != c.NumAPs() {
		return nil, fmt.Errorf("%w: blob is %d×%d, artifact is %d×%d", ErrResumeShape, nE, nAP, c.NumEntries(), c.NumAPs())
	}
	if count != uint64(len(c.Post)) {
		return nil, fmt.Errorf("%w: blob has %d cells, artifact has %d trained", ErrResumeShape, count, len(c.Post))
	}
	if uint64(len(data)-resumeHeaderSize) != count*16 {
		return nil, fmt.Errorf("%w: length %d does not frame %d cells", ErrResumeShape, len(data), count)
	}
	cells := make([]CellStats, count)
	for i := range cells {
		off := resumeHeaderSize + i*16
		cells[i] = CellStats{
			Mean:   math.Float64frombits(binary.LittleEndian.Uint64(data[off:])),
			StdDev: math.Float64frombits(binary.LittleEndian.Uint64(data[off+8:])),
		}
	}
	return cells, nil
}

// BuildReplica reconstructs a training database bit-identical (in
// every field Compile and the fold rules read) to the trainer's frozen
// master at the artifact's generation: names, entry positions, the AP
// universe, which cells are trained and their sample counts come from
// the artifact, the exact ⟨Mean, StdDev⟩ from the resume blob. Raw
// sample lists are not replicated — nothing on the follower's serve or
// fold path reads them (the follower is restricted to
// compiled-servable algorithms). The replica's generation counter is
// aligned to the artifact's, so trainer and follower folding the same
// WAL suffix produce the same generation numbers.
func BuildReplica(c *trainingdb.Compiled, cells []CellStats) (*trainingdb.DB, error) {
	if len(cells) != len(c.Post) {
		return nil, fmt.Errorf("repl: resume blob has %d cells for %d postings", len(cells), len(c.Post))
	}
	db := &trainingdb.DB{
		Entries: make(map[string]*trainingdb.Entry, len(c.Names)),
		BSSIDs:  append([]string(nil), c.BSSIDs...),
	}
	entries := make([]*trainingdb.Entry, len(c.Names))
	for i, name := range c.Names {
		entries[i] = &trainingdb.Entry{Name: name, Pos: c.Pos[i], PerAP: make(map[string]*trainingdb.APStats)}
		db.Entries[name] = entries[i]
	}
	for j, b := range c.BSSIDs {
		for k := c.PostStart[j]; k < c.PostStart[j+1]; k++ {
			st := cells[k]
			entries[c.Post[k].Entry].PerAP[b] = &trainingdb.APStats{
				BSSID:  b,
				N:      int(c.PostN[k]),
				Mean:   st.Mean,
				StdDev: st.StdDev,
				Min:    st.Mean,
				Max:    st.Mean,
			}
		}
	}
	db.SetGeneration(c.Generation)
	return db, nil
}
