package trainingdb

import "math"

// Quantized radio-map matrices. RSSI has roughly 1 dBm of native
// resolution (receivers report integer dBm), so carrying the per-cell
// statistics as float64 spends 8× the memory bandwidth the scoring
// scan is bound by. Quantize compresses each per-cell matrix to int16
// codes under a per-AP affine map
//
//	value = Off[j] + Scale[j]·code
//
// chosen so the codes span each AP column's own value range: the
// worst-case dequantization error is (max−min)/2·QuantLevels per
// column, around 7·10⁻⁴ dB for a 90 dB RSSI column — three orders of
// magnitude below the sensor's resolution. The codes are the stored
// model. The scans never read them: they walk posting records of the
// trained cells, each dequantized once at build time into the float32
// terms the kernel consumes, and keep float64 accumulators, so results
// stay within the derived bound of the oracle property tests.

// QuantLevels is the number of code steps an int16 column spans: codes
// lie in [−QuantLevels/2, QuantLevels/2].
const QuantLevels = 65534

// Quant is the int16-quantized mirror of a Compiled view's per-cell
// matrices. Like the float64 matrices it shadows, it is entry-major
// (cell i·nAP+j) and immutable after construction.
type Quant struct {
	// Per-cell codes for the four matrices.
	MeanQ, SigmaQ, LogNormQ, FloorLLQ []int16

	// Per-AP dequantization factors, indexed by column:
	// value = Off[j] + Scale[j]·float64(code). A constant column has
	// Scale 0 and reproduces its value exactly through Off.
	MeanScale, MeanOff       []float64
	SigmaScale, SigmaOff     []float64
	LogNormScale, LogNormOff []float64
	FloorLLScale, FloorLLOff []float64

	// UnheardLL and SignalBase are the per-entry scan baselines
	// recomputed from the *dequantized* cells, so the quantized scorers'
	// baseline+correction algebra is exact over the quantized matrices:
	// the only divergence from the float64 path is the per-cell
	// dequantization error itself, never an inconsistent baseline.
	UnheardLL  []float64
	SignalBase []float64

	// PostStart and Post are the AP-major posting lists of the trained
	// cells: column j's cells are Post[PostStart[j]:PostStart[j+1]],
	// in strictly increasing entry order. Both int16 scans walk only
	// the heard columns' lists, so they visit trained cells alone and
	// never read Trained or the dense code matrices.
	PostStart []int32
	Post      []Posting
}

// Posting is one trained ⟨entry, AP⟩ cell in a column's posting list,
// in the form the scans consume, 16 bytes packed. Every field derives
// from the cell's dequantized int16 codes:
//
//	Center   = mean
//	HalfPrec = 1/(σ·√2), so ((v−Center)·HalfPrec)² = (v−mean)²/2σ²
//	Const    = logNorm − floorLL
//
// so neither scan divides or dequantizes per visit.
type Posting struct {
	Entry    int32
	Center   float32
	HalfPrec float32
	Const    float32
}

// buildPostings lists the trained cells column by column from the
// entry-major Trained matrix and code matrices. Walking entries in
// order leaves every list sorted by entry. The records depend only on
// the codes and factors and are rounded operation by operation (see
// dequant), so VerifyCRC's byte-for-byte rebuild agrees on every CPU.
func buildPostings(trained []bool, q *Quant, nE, nAP int) ([]int32, []Posting) {
	start := make([]int32, nAP+1)
	for i := 0; i < nE; i++ {
		for j, t := range trained[i*nAP : (i+1)*nAP] {
			if t {
				start[j+1]++
			}
		}
	}
	for j := 0; j < nAP; j++ {
		start[j+1] += start[j]
	}
	post := make([]Posting, start[nAP])
	next := append([]int32(nil), start[:nAP]...)
	for i := 0; i < nE; i++ {
		base := i * nAP
		for j, t := range trained[base : base+nAP] {
			if !t {
				continue
			}
			cell := base + j
			sigma := dequant(q.SigmaQ[cell], q.SigmaScale[j], q.SigmaOff[j])
			post[next[j]] = Posting{
				Entry:    int32(i),
				Center:   float32(dequant(q.MeanQ[cell], q.MeanScale[j], q.MeanOff[j])),
				HalfPrec: float32(1 / (sigma * math.Sqrt2)),
				Const: float32(dequant(q.LogNormQ[cell], q.LogNormScale[j], q.LogNormOff[j]) -
					dequant(q.FloorLLQ[cell], q.FloorLLScale[j], q.FloorLLOff[j])),
			}
			next[j]++
		}
	}
	return start, post
}

// quantizeColumns fills codes/scale/off for one matrix: column j's
// codes reproduce src values within half a step of the column's range.
// src is entry-major with nAP columns.
func quantizeColumns(src []float64, nE, nAP int, codes []int16, scale, off []float64) {
	for j := 0; j < nAP; j++ {
		lo, hi := src[j], src[j]
		for i := 1; i < nE; i++ {
			v := src[i*nAP+j]
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		mid := (lo + hi) / 2
		step := (hi - lo) / QuantLevels
		off[j], scale[j] = mid, step
		if step == 0 {
			continue // constant column: codes stay 0, Off carries the value
		}
		inv := 1 / step
		for i := 0; i < nE; i++ {
			cell := i*nAP + j
			q := (src[cell] - mid) * inv
			// Round to nearest; the range construction keeps q within
			// ±(QuantLevels/2 + ½), inside int16.
			if q >= 0 {
				codes[cell] = int16(q + 0.5)
			} else {
				codes[cell] = int16(q - 0.5)
			}
		}
	}
}

// dequant returns Off + Scale·code. The explicit conversion rounds the
// product before the add, which the Go spec guarantees blocks fusing
// the two into one multiply-add (arm64's FMADD would otherwise round
// once and change the last bit).
func dequant(code int16, scale, off float64) float64 {
	return off + float64(scale*float64(code))
}

// Quantize builds (once) the int16-quantized mirror of the view's
// matrices and returns it. The float64 matrices are left in place; call
// ReleaseFloat64 afterwards to drop them when only quantized scoring
// will run. Quantize is not safe to race with concurrent readers of
// the view — quantize before publishing it, the way Compile runs
// before first use.
func (c *Compiled) Quantize() *Quant {
	if c.Quant != nil {
		return c.Quant
	}
	nE, nAP := len(c.Names), len(c.BSSIDs)
	cells := nE * nAP
	q := &Quant{
		MeanQ: make([]int16, cells), SigmaQ: make([]int16, cells),
		LogNormQ: make([]int16, cells), FloorLLQ: make([]int16, cells),
		MeanScale: make([]float64, nAP), MeanOff: make([]float64, nAP),
		SigmaScale: make([]float64, nAP), SigmaOff: make([]float64, nAP),
		LogNormScale: make([]float64, nAP), LogNormOff: make([]float64, nAP),
		FloorLLScale: make([]float64, nAP), FloorLLOff: make([]float64, nAP),
		UnheardLL:  make([]float64, nE),
		SignalBase: make([]float64, nE),
	}
	if nE > 0 && nAP > 0 {
		quantizeColumns(c.Mean, nE, nAP, q.MeanQ, q.MeanScale, q.MeanOff)
		quantizeColumns(c.Sigma, nE, nAP, q.SigmaQ, q.SigmaScale, q.SigmaOff)
		quantizeColumns(c.LogNorm, nE, nAP, q.LogNormQ, q.LogNormScale, q.LogNormOff)
		quantizeColumns(c.FloorLL, nE, nAP, q.FloorLLQ, q.FloorLLScale, q.FloorLLOff)
	}
	// Rebuild the per-entry baselines from the dequantized cells (see
	// the Quant field comment). Untrained cells hold the floor level in
	// Mean, so their dequantized floor distance is near — but not
	// exactly — zero; summing it here keeps the correction subtraction
	// in the kNN scan exact.
	for i := 0; i < nE; i++ {
		base := i * nAP
		var unheard, sigBase float64
		for j := 0; j < nAP; j++ {
			cell := base + j
			if c.Trained[cell] {
				unheard += dequant(q.FloorLLQ[cell], q.FloorLLScale[j], q.FloorLLOff[j])
			}
			d := c.FloorRSSI - dequant(q.MeanQ[cell], q.MeanScale[j], q.MeanOff[j])
			sigBase += d * d
		}
		q.UnheardLL[i] = unheard
		q.SignalBase[i] = sigBase
	}
	q.PostStart, q.Post = buildPostings(c.Trained, q, nE, nAP)
	c.Quant = q
	return q
}

// ReleaseFloat64 drops the float64 per-cell matrices, keeping only the
// quantized mirror — the 4× matrix-footprint win of format v2. It is a
// no-op until Quantize has run (the view must stay scoreable). The
// per-entry vectors, Trained, and N stay: they are small and the
// quantized scorers still read them.
func (c *Compiled) ReleaseFloat64() {
	if c.Quant == nil {
		return
	}
	c.Mean, c.Sigma, c.LogNorm, c.FloorLL = nil, nil, nil, nil
}

// MatrixBytes reports the resident footprint of the per-cell matrices
// and posting lists the view currently holds — the number the v2
// format's RSS claim is measured on. Per-entry vectors and the
// name/BSSID tables are excluded (they are O(entries+APs), not
// O(entries×APs)).
func (c *Compiled) MatrixBytes() int {
	cells := len(c.Trained)
	n := cells * (1 + 4) // Trained []bool + N []int32
	n += (len(c.Mean) + len(c.Sigma) + len(c.LogNorm) + len(c.FloorLL)) * 8
	if q := c.Quant; q != nil {
		n += (len(q.MeanQ) + len(q.SigmaQ) + len(q.LogNormQ) + len(q.FloorLLQ)) * 2
		n += q.PostingBytes()
	}
	return n
}

// PostingBytes reports the footprint of the posting lists: one int32
// start per column plus 16 bytes per trained cell.
func (q *Quant) PostingBytes() int { return len(q.PostStart)*4 + len(q.Post)*postingSize }
