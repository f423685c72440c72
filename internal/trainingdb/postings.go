package trainingdb

import "math"

// Posting is one trained ⟨entry, AP⟩ cell in a column's posting list,
// in the form the scans consume, 16 bytes packed. With mean and σ the
// cell's statistics (σ clamped to stats.MinSigma):
//
//	Center   = mean
//	HalfPrec = 1/(σ·√2), so ((v−Center)·HalfPrec)² = (v−mean)²/2σ²
//	Const    = logNorm − floorLL
//
// where logNorm = −log σ − ½·log 2π and floorLL is the cell's floor
// term LogGaussianPDF(FloorRSSI, mean, σ), so neither scan divides or
// takes a logarithm per visit. Each field is rounded once from float64.
type Posting struct {
	Entry    int32
	Center   float32
	HalfPrec float32
	Const    float32
}

// newPosting rounds one trained cell's float64 statistics into its
// record. Compile and the legacy decode paths build records here.
func newPosting(entry int, mean, sigma, logNorm, floorLL float64) Posting {
	return Posting{
		Entry:    int32(entry),
		Center:   float32(mean),
		HalfPrec: float32(1 / (sigma * math.Sqrt2)),
		Const:    float32(logNorm - floorLL),
	}
}

// buildPostings lists the trained cells column by column from a legacy
// artifact's entry-major trained matrix, calling rec(i, j, cell) for
// each trained cell in entry-then-column order. Walking entries in
// order leaves every list sorted by entry.
func buildPostings(trained []bool, nE, nAP int, rec func(i, j, cell int) Posting) ([]int32, []Posting) {
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
			if t {
				post[next[j]] = rec(i, j, base+j)
				next[j]++
			}
		}
	}
	return start, post
}

// dequant returns Off + Scale·code for a cell of a legacy int16
// artifact. The explicit conversion rounds the product before the add,
// which the Go spec guarantees blocks fusing the two into one
// multiply-add (arm64's FMADD would otherwise round once and change the
// last bit).
func dequant(code int16, scale, off float64) float64 {
	return off + float64(scale*float64(code))
}

// Quantize is a no-op: Compile builds the posting records directly.
//
// Deprecated: the int16 radio map is gone; nothing needs to call this.
func (c *Compiled) Quantize() {}

// ReleaseFloat64 is a no-op: a view holds no per-cell float64 matrix.
//
// Deprecated: the dense float64 radio map is gone; nothing needs to
// call this.
func (c *Compiled) ReleaseFloat64() {}

// PostingBytes reports the resident footprint of the per-cell state the
// view holds: one int32 start per column plus, per trained cell, its
// 16-byte record and its int32 sample count. Per-entry vectors and the
// name/BSSID tables are excluded (they are O(entries+APs)).
func (c *Compiled) PostingBytes() int {
	return len(c.PostStart)*4 + len(c.Post)*postingSize + len(c.PostN)*4
}
