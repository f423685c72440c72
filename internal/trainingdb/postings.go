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
// record. Compile and Patch build records here.
func newPosting(entry int, mean, sigma, logNorm, floorLL float64) Posting {
	return Posting{
		Entry:    int32(entry),
		Center:   float32(mean),
		HalfPrec: float32(1 / (sigma * math.Sqrt2)),
		Const:    float32(logNorm - floorLL),
	}
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
