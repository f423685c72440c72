package trainingdb

import (
	"crypto/sha256"
	"encoding/hex"
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
	// posting lists add a start per column plus 16B per trained cell.
	cells, trained := len(c.Trained), 0
	for _, t := range c.Trained {
		if t {
			trained++
		}
	}
	if want := cells*(1+4) + cells*4*2 + (c.NumAPs()+1)*4 + trained*16; released != want {
		t.Errorf("MatrixBytes after release = %d, want %d", released, want)
	}
}

// TestQuantizePostings pins the posting-list layout: column j's list
// holds exactly the trained cells of column j, in increasing entry
// order, each carrying the record derived from the cell's four
// dequantized codes.
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
				sigma := dequant(q.SigmaQ[cell], q.SigmaScale[j], q.SigmaOff[j])
				want = append(want, Posting{Entry: int32(i),
					Center:   float32(dequant(q.MeanQ[cell], q.MeanScale[j], q.MeanOff[j])),
					HalfPrec: float32(1 / (sigma * math.Sqrt2)),
					Const: float32(dequant(q.LogNormQ[cell], q.LogNormScale[j], q.LogNormOff[j]) -
						dequant(q.FloorLLQ[cell], q.FloorLLScale[j], q.FloorLLOff[j]))})
			}
		}
		if !slices.Equal(list, want) {
			t.Fatalf("column %d: postings %v, want %v", j, list, want)
		}
	}
}

// TestPostingBytesPinned pins the posting bytes built from one fixed
// seeded set of codes and factors. VerifyCRC compares an artifact's
// lists byte for byte against a rebuild, so an artifact written on
// one CPU only verifies on another if buildPostings rounds the same
// way on both; a fused multiply-add (arm64 FMADD) would move this
// digest.
func TestPostingBytesPinned(t *testing.T) {
	if !hostLittle {
		t.Skip("digest pinned for little-endian payloads")
	}
	const nE, nAP = 64, 9
	rng := rand.New(rand.NewSource(17))
	trained := make([]bool, nE*nAP)
	q := &Quant{}
	codes := []*[]int16{&q.MeanQ, &q.SigmaQ, &q.LogNormQ, &q.FloorLLQ}
	for _, c := range codes {
		*c = make([]int16, nE*nAP)
	}
	for cell := range trained {
		trained[cell] = rng.Float64() < 0.6
		for _, c := range codes {
			(*c)[cell] = int16(rng.Intn(QuantLevels+1) - QuantLevels/2)
		}
	}
	factor := func(scale, off float64) ([]float64, []float64) {
		s, o := make([]float64, nAP), make([]float64, nAP)
		for j := range s {
			s[j], o[j] = scale*(0.5+rng.Float64()), off+rng.NormFloat64()
		}
		return s, o
	}
	q.MeanScale, q.MeanOff = factor(60.0/QuantLevels, -70)
	q.SigmaScale, q.SigmaOff = factor(8.0/QuantLevels, 6)
	q.LogNormScale, q.LogNormOff = factor(4.0/QuantLevels, -3)
	q.FloorLLScale, q.FloorLLOff = factor(900.0/QuantLevels, -200)
	start, post := buildPostings(trained, q, nE, nAP)
	h := sha256.New()
	h.Write(byteView(start))
	h.Write(byteView(post))
	const want = "2b4e56bc9d6cd077c750c50a692960c096cc9299ee1aad82f49e33def2b07efb"
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Errorf("posting bytes sha256 %s, want %s", got, want)
	}
}
