package trainingdb

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// maxQuantErr is the worst per-cell dequantization error the affine
// scheme admits for a column spanning spread: half a code step.
func maxQuantErr(spread float64) float64 { return spread / (2 * QuantLevels) }

func TestQuantizeRoundTripBound(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	nE, nAP := 120, 9
	src := make([]float64, nE*nAP)
	spreads := make([]float64, nAP)
	for j := 0; j < nAP; j++ {
		center := -90 + 70*rng.Float64()
		spread := 1 + 89*rng.Float64()
		spreads[j] = spread
		for i := 0; i < nE; i++ {
			src[i*nAP+j] = center + spread*(rng.Float64()-0.5)
		}
	}
	codes := make([]int16, nE*nAP)
	scale := make([]float64, nAP)
	off := make([]float64, nAP)
	quantizeColumns(src, nE, nAP, codes, scale, off)
	for j := 0; j < nAP; j++ {
		// The realised column range can only be narrower than spread.
		bound := maxQuantErr(spreads[j]) * (1 + 1e-9)
		for i := 0; i < nE; i++ {
			cell := i*nAP + j
			got := dequant(codes[cell], scale[j], off[j])
			if d := math.Abs(got - src[cell]); d > bound {
				t.Fatalf("cell (%d,%d): |%v − %v| = %v > %v",
					i, j, got, src[cell], d, bound)
			}
		}
	}
}

func TestQuantizeConstantColumnExact(t *testing.T) {
	nE, nAP := 5, 2
	src := make([]float64, nE*nAP)
	for i := 0; i < nE; i++ {
		src[i*nAP] = -63.25 // constant column 0
		src[i*nAP+1] = float64(i)
	}
	codes := make([]int16, nE*nAP)
	scale := make([]float64, nAP)
	off := make([]float64, nAP)
	quantizeColumns(src, nE, nAP, codes, scale, off)
	if scale[0] != 0 {
		t.Errorf("constant column scale = %v, want 0", scale[0])
	}
	for i := 0; i < nE; i++ {
		if got := dequant(codes[i*nAP], scale[0], off[0]); got != -63.25 {
			t.Errorf("constant column cell %d = %v, want exact -63.25", i, got)
		}
	}
}

func TestCompiledQuantize(t *testing.T) {
	db := compiledFixture()
	c := db.Compile(-95, 4)
	q := c.Quantize()
	if q == nil || c.Quant != q {
		t.Fatal("Quantize did not install the mirror")
	}
	if c.Quantize() != q {
		t.Error("Quantize is not idempotent")
	}

	nE, nAP := c.NumEntries(), c.NumAPs()
	// Every dequantized cell is within half a step of its column range.
	check := func(name string, src []float64, codes []int16, scale, off []float64) {
		for j := 0; j < nAP; j++ {
			lo, hi := math.Inf(1), math.Inf(-1)
			for i := 0; i < nE; i++ {
				v := src[i*nAP+j]
				lo, hi = math.Min(lo, v), math.Max(hi, v)
			}
			bound := maxQuantErr(hi-lo) * (1 + 1e-9)
			for i := 0; i < nE; i++ {
				cell := i*nAP + j
				got := dequant(codes[cell], scale[j], off[j])
				if d := math.Abs(got - src[cell]); d > bound {
					t.Errorf("%s cell (%d,%d): err %v > %v", name, i, j, d, bound)
				}
			}
		}
	}
	check("Mean", c.Mean, q.MeanQ, q.MeanScale, q.MeanOff)
	check("Sigma", c.Sigma, q.SigmaQ, q.SigmaScale, q.SigmaOff)
	check("LogNorm", c.LogNorm, q.LogNormQ, q.LogNormScale, q.LogNormOff)
	check("FloorLL", c.FloorLL, q.FloorLLQ, q.FloorLLScale, q.FloorLLOff)

	// Baselines are sums of the dequantized cells, not of the float64
	// originals — the invariant the quantized scan's algebra relies on.
	for i := 0; i < nE; i++ {
		var unheard, sigBase float64
		for j := 0; j < nAP; j++ {
			cell := i*nAP + j
			if c.Trained[cell] {
				unheard += dequant(q.FloorLLQ[cell], q.FloorLLScale[j], q.FloorLLOff[j])
			}
			d := c.FloorRSSI - dequant(q.MeanQ[cell], q.MeanScale[j], q.MeanOff[j])
			sigBase += d * d
		}
		if math.Abs(q.UnheardLL[i]-unheard) > 1e-12 {
			t.Errorf("UnheardLL[%d] = %v, want %v", i, q.UnheardLL[i], unheard)
		}
		if math.Abs(q.SignalBase[i]-sigBase) > 1e-12 {
			t.Errorf("SignalBase[%d] = %v, want %v", i, q.SignalBase[i], sigBase)
		}
	}
}

func TestReleaseFloat64(t *testing.T) {
	db := compiledFixture()
	c := db.Compile(-95, 4)

	// Before quantization the float64 matrices must survive.
	c.ReleaseFloat64()
	if c.Mean == nil {
		t.Fatal("ReleaseFloat64 dropped matrices with no quantized mirror")
	}

	full := c.MatrixBytes()
	c.Quantize()
	both := c.MatrixBytes()
	if both <= full {
		t.Errorf("MatrixBytes after Quantize = %d, want > %d", both, full)
	}
	c.ReleaseFloat64()
	if c.Mean != nil || c.Sigma != nil || c.LogNorm != nil || c.FloorLL != nil {
		t.Error("float64 matrices survived ReleaseFloat64")
	}
	if c.Trained == nil || c.N == nil {
		t.Error("ReleaseFloat64 dropped Trained/N")
	}
	released := c.MatrixBytes()
	// 4 matrices × 8B → 4 × 2B: the per-cell payload shrinks 4×. The
	// posting lists add a start per column plus 12B per trained cell.
	cells, trained := len(c.Trained), 0
	for _, t := range c.Trained {
		if t {
			trained++
		}
	}
	if want := cells*(1+4) + cells*4*2 + (c.NumAPs()+1)*4 + trained*12; released != want {
		t.Errorf("MatrixBytes after release = %d, want %d", released, want)
	}
}

// TestQuantizePostings pins the posting-list layout: column j's list
// holds exactly the trained cells of column j, in increasing entry
// order, each carrying the cell's four dense codes.
func TestQuantizePostings(t *testing.T) {
	c := randomCompiled(t, 12, 40, 9, true, false)
	q := c.Quant
	nE, nAP := c.NumEntries(), c.NumAPs()
	if len(q.PostStart) != nAP+1 || q.PostStart[0] != 0 || int(q.PostStart[nAP]) != len(q.Post) {
		t.Fatalf("starts %v over %d postings", q.PostStart, len(q.Post))
	}
	for j := 0; j < nAP; j++ {
		list := q.Post[q.PostStart[j]:q.PostStart[j+1]]
		var want []Posting
		for i := 0; i < nE; i++ {
			if cell := i*nAP + j; c.Trained[cell] {
				want = append(want, Posting{Entry: int32(i),
					MeanQ: q.MeanQ[cell], SigmaQ: q.SigmaQ[cell],
					LogNormQ: q.LogNormQ[cell], FloorLLQ: q.FloorLLQ[cell]})
			}
		}
		if !slices.Equal(list, want) {
			t.Fatalf("column %d: postings %v, want %v", j, list, want)
		}
	}
}
