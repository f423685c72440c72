package localize

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"indoorloc/internal/sim"
	"indoorloc/internal/stats"
	"indoorloc/internal/trainingdb"
)

// Quantization accuracy parity (format v2). The int16 codes reproduce
// each matrix cell within half a code step of its AP column's value
// range — ≤ (max−min)/131068, about 7·10⁻⁴ dB for a 90 dB RSSI column
// (see trainingdb.QuantLevels). Propagated through the scoring
// algebra, the worst-case per-candidate score deltas are:
//
//   - MaxLikelihood: each heard column perturbs the log-likelihood
//     through mean, σ, log-norm and floor terms; on the RSSI and σ
//     ranges the suite generates, the observed delta stays within
//     relTol = 2·10⁻³ of the score's magnitude (entries far from the
//     observation carry |score| in the hundreds, so a relative bound
//     is the honest one — their absolute delta can reach ~0.5 while
//     the leaders' sit below 10⁻³). The relative bound is empirical:
//     int16ScoreBound is the guaranteed per-entry one, and dense venues
//     with a σ clamped far from the floor exceed relTol within it.
//   - KNN: the signal distance moves by at most
//     Σ_heard 2·|dv−df|·ε / (2·√sum) — bounded here by absTol = 0.05 dB.
//
// A near-tie between the float64 top-1 and runner-up can flip under
// those deltas; parity therefore demands an identical winner unless
// the float64 gap itself is inside the tolerance.
const (
	quantRelTol = 2e-3
	quantAbsTol = 0.05
)

func relClose(a, ref, relTol float64) bool {
	return math.Abs(a-ref) <= relTol*math.Max(1, math.Abs(ref))
}

// compareQuantParity checks one estimate pair: bounded per-candidate
// score deltas (matched by name — near-ties may reorder) and an
// identical winner unless the reference ranking was itself a near-tie.
func compareQuantParity(t *testing.T, tag string, ref, quant Estimate, relTol, absTol float64) {
	t.Helper()
	if len(quant.Candidates) != len(ref.Candidates) {
		t.Fatalf("%s: %d candidates, reference %d", tag, len(quant.Candidates), len(ref.Candidates))
	}
	scores := make(map[string]float64, len(ref.Candidates))
	for _, c := range ref.Candidates {
		scores[c.Name] = c.Score
	}
	for _, c := range quant.Candidates {
		r, ok := scores[c.Name]
		if !ok {
			t.Fatalf("%s: quantized ranking invented candidate %q", tag, c.Name)
		}
		if relTol > 0 && !relClose(c.Score, r, relTol) {
			t.Fatalf("%s: %q score %v, reference %v (rel bound %v)", tag, c.Name, c.Score, r, relTol)
		}
		if absTol > 0 && math.Abs(c.Score-r) > absTol {
			t.Fatalf("%s: %q score %v, reference %v (abs bound %v)", tag, c.Name, c.Score, r, absTol)
		}
	}
	if quant.Name == ref.Name {
		return
	}
	// Different winner: only acceptable when the reference top-1 and
	// runner-up were closer than the quantization tolerance.
	if len(ref.Candidates) < 2 {
		t.Fatalf("%s: winner %q, reference %q with no runner-up", tag, quant.Name, ref.Name)
	}
	gap := ref.Candidates[0].Score - ref.Candidates[1].Score
	lim := 2 * relTol * math.Max(1, math.Abs(ref.Candidates[0].Score))
	if absTol > 0 {
		lim = 2 * absTol
	}
	if gap > lim {
		t.Fatalf("%s: winner %q, reference %q with gap %v (tolerance %v)",
			tag, quant.Name, ref.Name, gap, lim)
	}
}

// TestQuantizedScoringParity is the randomized property: over sparse
// random radio maps, quantized MaxLikelihood and KNN scoring must stay
// within the documented score-delta bounds of the float64 path and
// pick the same top-1 outside near-ties.
func TestQuantizedScoringParity(t *testing.T) {
	for seed := int64(40); seed < 46; seed++ {
		rng := rand.New(rand.NewSource(seed))
		db := randomTrainDB(rng, 20+rng.Intn(150), 4+rng.Intn(14), 0.3+rng.Float64()*0.6)
		if len(db.BSSIDs) == 0 {
			continue
		}
		mlF := NewMaxLikelihood(db)
		mlQ := NewMaxLikelihood(db)
		mlQ.Quantize = true
		knnF := NewKNN(db, 3)
		knnQ := NewKNN(db, 3)
		knnQ.Quantize = true

		for trial := 0; trial < 10; trial++ {
			obs := randomObs(rng, db, 0.2+rng.Float64()*0.7)
			if len(obs) == 0 {
				continue
			}
			tag := fmt.Sprintf("seed %d trial %d", seed, trial)

			refEst, refErr := mlF.Locate(obs)
			qEst, qErr := mlQ.Locate(obs)
			if (refErr == nil) != (qErr == nil) {
				t.Fatalf("%s ml: err %v vs %v", tag, qErr, refErr)
			}
			if refErr == nil {
				compareQuantParity(t, tag+" ml", refEst, qEst, quantRelTol, 0)
			}

			refEst, refErr = knnF.Locate(obs)
			qEst, qErr = knnQ.Locate(obs)
			if (refErr == nil) != (qErr == nil) {
				t.Fatalf("%s knn: err %v vs %v", tag, qErr, refErr)
			}
			if refErr == nil {
				compareQuantParity(t, tag+" knn", refEst, qEst, 0, quantAbsTol)
			}
		}
	}
}

// TestQuantizedTopKConsistent pins that quantization and bounded
// selection compose: the quantized TopK prefix equals the quantized
// full ranking's prefix exactly (both score over the same codes).
func TestQuantizedTopKConsistent(t *testing.T) {
	rng := rand.New(rand.NewSource(50))
	db := randomTrainDB(rng, 120, 10, 0.5)
	full := NewMaxLikelihood(db)
	full.Quantize = true
	top := NewMaxLikelihood(db)
	top.Quantize = true
	top.TopK = 6
	for trial := 0; trial < 8; trial++ {
		obs := randomObs(rng, db, 0.6)
		if len(obs) == 0 {
			continue
		}
		fe, ferr := full.Locate(obs)
		te, terr := top.Locate(obs)
		if ferr != nil || terr != nil {
			t.Fatalf("trial %d: errs %v / %v", trial, ferr, terr)
		}
		for i, c := range te.Candidates {
			if c != fe.Candidates[i] {
				t.Fatalf("trial %d candidate %d: %+v vs %+v", trial, i, c, fe.Candidates[i])
			}
		}
	}
}

// simHouseDB builds a training database from a simulated scenario, the
// way the end-to-end tests and examples do.
func simHouseDB(t *testing.T, scen sim.Scenario, seed int64, sweeps int) *trainingdb.DB {
	t.Helper()
	env, err := scen.Environment()
	if err != nil {
		t.Fatal(err)
	}
	grid, err := scen.TrainingPoints()
	if err != nil {
		t.Fatal(err)
	}
	coll := sim.NewScanner(env, seed).CaptureCollection(grid, sweeps)
	db, _, err := trainingdb.Generate(coll, grid, trainingdb.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// TestQuantizedParitySimulated runs the parity property on the paper's
// simulated house and the larger office wing: working-phase captures
// at every training point must localize to the same top-1 through the
// quantized matrices as through float64 (sim observations are never
// near-tied — distinct rooms differ by whole dB).
func TestQuantizedParitySimulated(t *testing.T) {
	for _, scen := range []sim.Scenario{sim.PaperHouse(), sim.OfficeWing()} {
		db := simHouseDB(t, scen, 9, 15)
		env, err := scen.Environment()
		if err != nil {
			t.Fatal(err)
		}
		grid, err := scen.TrainingPoints()
		if err != nil {
			t.Fatal(err)
		}
		mlF := NewMaxLikelihood(db)
		mlQ := NewMaxLikelihood(db)
		mlQ.Quantize = true
		sc := sim.NewScanner(env, 77)
		for i, name := range grid.Names() {
			if i%3 != 0 { // every third point keeps OfficeWing's runtime down
				continue
			}
			p, _ := grid.Lookup(name)
			obs := ObservationFromRecords(sc.Capture(p, 5, 0))
			if len(obs) == 0 {
				continue
			}
			refEst, refErr := mlF.Locate(obs)
			qEst, qErr := mlQ.Locate(obs)
			if refErr != nil || qErr != nil {
				t.Fatalf("%s %s: errs %v / %v", scen.Name, name, refErr, qErr)
			}
			compareQuantParity(t, scen.Name+" "+name, refEst, qEst, quantRelTol, 0)
		}
	}
}

// dequantCell returns cell (column j)'s four dequantized statistics.
func dequantCell(q *trainingdb.Quant, cell int, j int32) (mean, sigma, logNorm, floorLL float64) {
	return q.MeanOff[j] + q.MeanScale[j]*float64(q.MeanQ[cell]),
		q.SigmaOff[j] + q.SigmaScale[j]*float64(q.SigmaQ[cell]),
		q.LogNormOff[j] + q.LogNormScale[j]*float64(q.LogNormQ[cell]),
		q.FloorLLOff[j] + q.FloorLLScale[j]*float64(q.FloorLLQ[cell])
}

// denseQuantScores is the int16 maximum-likelihood scan before posting
// lists: every entry × heard column cell, dense codes dequantized in
// float64, Trained branch. It is the reference the posting scan must
// match up to its float32 records and summation order.
func denseQuantScores(c *trainingdb.Compiled, cols []int32, vals, aux []float64) []float64 {
	q := c.Quant
	nAP := c.NumAPs()
	scores := make([]float64, c.NumEntries())
	for i := range scores {
		ll := q.UnheardLL[i]
		for h, j := range cols {
			cell := i*nAP + int(j)
			if !c.Trained[cell] {
				ll += aux[h]
				continue
			}
			mean, sigma, logNorm, floorLL := dequantCell(q, cell, j)
			d := (vals[h] - mean) / sigma
			ll += -d*d/2 + logNorm - floorLL
		}
		scores[i] = ll
	}
	return scores
}

// f32Rel bounds the relative error of rounding a float64 to float32:
// half a float32 ulp, 2⁻²⁴ of the value (normal range).
const f32Rel = 1.0 / (1 << 24)

// float32ScoreBound is the guaranteed per-entry score error the
// posting records' float32 rounding adds over the dequantized float64
// cells. A record rounds three values, each by at most ½ ulp₃₂:
// Center within f32Rel·|mean|, HalfPrec = 1/(σ√2) within f32Rel
// relative, and Const = logNorm − floorLL within f32Rel·|Const|. With
// a = |v − mean| and h = 1/(σ√2), the kernel's d = (v−Center)·HalfPrec
// then lies in [(a − f32Rel·|mean|)·h·(1−f32Rel),
// (a + f32Rel·|mean|)·h·(1+f32Rel)], so d² moves by at most the width
// of that interval's square; the constant adds its own rounding. Only
// heard trained cells have records in play.
func float32ScoreBound(c *trainingdb.Compiled, obs map[int32]float64, i int) float64 {
	q, nAP := c.Quant, c.NumAPs()
	var b float64
	for j, v := range obs {
		cell := i*nAP + int(j)
		if !c.Trained[cell] {
			continue
		}
		mean, sigma, logNorm, floorLL := dequantCell(q, cell, j)
		a, dc, h := math.Abs(v-mean), f32Rel*math.Abs(mean), 1/(sigma*math.Sqrt2)
		hi := (a + dc) * h * (1 + f32Rel)
		lo := math.Max(0, a-dc) * h * (1 - f32Rel)
		b += f32Rel*math.Abs(logNorm-floorLL) + hi*hi - lo*lo
	}
	return b
}

// heardColumns maps each interned heard column to its observed level.
func heardColumns(c *trainingdb.Compiled, obs Observation) map[int32]float64 {
	cols, vals := c.Intern(obs, nil, nil)
	heard := make(map[int32]float64, len(cols))
	for h, j := range cols {
		heard[j] = vals[h]
	}
	return heard
}

// TestPostingScanMatchesDenseScan pins that the posting scan differs
// from the dense float64-dequantized scan only by its records' float32
// rounding and the summation order: over sparse and dense random
// venues every entry's score stays within float32ScoreBound, plus
// 1e-12 relative for the order, of the dense cell-by-cell scan.
func TestPostingScanMatchesDenseScan(t *testing.T) {
	for seed := int64(60); seed < 68; seed++ {
		rng := rand.New(rand.NewSource(seed))
		hear := 0.05 + 0.25*rng.Float64() // sparse
		if seed%2 == 1 {
			hear = 0.85 + 0.15*rng.Float64() // dense
		}
		db := randomTrainDB(rng, 30+rng.Intn(200), 6+rng.Intn(24), hear)
		if len(db.BSSIDs) == 0 {
			continue
		}
		c := db.Compile(-95, 4)
		c.Quantize()
		for trial := 0; trial < 10; trial++ {
			obs := randomObs(rng, db, 0.2+0.7*rng.Float64())
			cols, vals := c.Intern(obs, nil, nil)
			aux := make([]float64, len(vals))
			for h, v := range vals {
				aux[h] = stats.LogGaussianPDF(v, c.FloorRSSI, c.FloorSigma)
			}
			want := denseQuantScores(c, cols, vals, aux)
			got := make([]float64, len(want))
			scorePostings(c.Quant, cols, vals, aux, got)
			heard := heardColumns(c, obs)
			for i := range want {
				bound := float32ScoreBound(c, heard, i) + 1e-12*math.Max(1, math.Abs(want[i]))
				if d := math.Abs(got[i] - want[i]); d > bound {
					t.Fatalf("seed %d trial %d entry %d: posting scan %v, dense scan %v: error %v over the float32 bound %v",
						seed, trial, i, got[i], want[i], d, bound)
				}
			}
		}
	}
}

// int16ScoreBound is the guaranteed per-entry score error of int16
// maximum-likelihood scoring against exact statistics: the int16 term
// below plus float32ScoreBound for the posting records. Every
// dequantized cell lies within half its column's code step (Scale/2)
// of its float64 value (TestQuantizeRoundTripBound). A heard trained
// cell's floor term cancels against the baseline, so it contributes
// the log-norm error plus the widest swing of d²/2 over the mean and σ
// intervals; an unheard trained cell contributes its floor term's
// error. The bound is per column, not relative: one entry whose σ is
// clamped to stats.MinSigma far from the floor stretches its column's
// floor-term range to thousands of nats, and every entry of that
// column then carries up to half that step.
func int16ScoreBound(c *trainingdb.Compiled, obs map[int32]float64, i int) float64 {
	q, nAP := c.Quant, c.NumAPs()
	var b float64
	for j := 0; j < nAP; j++ {
		cell := i*nAP + j
		if !c.Trained[cell] {
			continue
		}
		v, heard := obs[int32(j)]
		if !heard {
			b += math.Abs(q.FloorLLScale[j]) / 2
			continue
		}
		mean, sigma, _, _ := dequantCell(q, cell, int32(j))
		dm, ds := math.Abs(q.MeanScale[j])/2, math.Abs(q.SigmaScale[j])/2
		dMax := (math.Abs(v-mean) + dm) / (sigma - ds)
		dMin := math.Max(0, math.Abs(v-mean)-dm) / (sigma + ds)
		b += math.Abs(q.LogNormScale[j])/2 + (dMax*dMax-dMin*dMin)/2
	}
	return b + float32ScoreBound(c, obs, i)
}

// TestQuantizedMatchesOracle is the int16 oracle property: over random
// sparse and dense venues, every posting-scan MaxLikelihood score lies
// within int16ScoreBound of the uncompiled map-walking reference, and
// the argmax is the reference's unless the reference's own top-2 gap
// is inside 2·quantRelTol.
func TestQuantizedMatchesOracle(t *testing.T) {
	for seed := int64(70); seed < 78; seed++ {
		rng := rand.New(rand.NewSource(seed))
		hear := 0.05 + 0.25*rng.Float64() // sparse
		if seed%2 == 1 {
			hear = 0.85 + 0.15*rng.Float64() // dense
		}
		db := randomTrainDB(rng, 20+rng.Intn(150), 4+rng.Intn(20), hear)
		if len(db.BSSIDs) == 0 {
			continue
		}
		ref := NewMaxLikelihood(db)
		mlQ := NewMaxLikelihood(db)
		mlQ.Quantize = true
		c := mlQ.CompiledView()
		entry := make(map[string]int, len(c.Names))
		for i, name := range c.Names {
			entry[name] = i
		}
		for trial := 0; trial < 10; trial++ {
			obs := randomObs(rng, db, 0.2+0.7*rng.Float64())
			tag := fmt.Sprintf("seed %d trial %d", seed, trial)
			refEst, refErr := refMaxLikelihood(ref, obs)
			qEst, qErr := mlQ.Locate(obs)
			if (refErr == nil) != (qErr == nil) {
				t.Fatalf("%s: err %v vs reference %v", tag, qErr, refErr)
			}
			if refErr != nil {
				continue
			}
			heard := heardColumns(c, obs)
			refScore := make(map[string]float64, len(refEst.Candidates))
			for _, cand := range refEst.Candidates {
				refScore[cand.Name] = cand.Score
			}
			for _, cand := range qEst.Candidates {
				r := refScore[cand.Name]
				bound := int16ScoreBound(c, heard, entry[cand.Name]) + 1e-9*math.Max(1, math.Abs(r))
				if d := math.Abs(cand.Score - r); d > bound {
					t.Fatalf("%s: %q score %v, reference %v: error %v over the int16 bound %v",
						tag, cand.Name, cand.Score, r, d, bound)
				}
			}
			if qEst.Name != refEst.Name {
				gap := refEst.Candidates[0].Score - refEst.Candidates[1].Score
				if lim := 2 * quantRelTol * math.Max(1, math.Abs(refEst.Candidates[0].Score)); gap > lim {
					t.Fatalf("%s: argmax %q, reference %q with gap %v (tolerance %v)",
						tag, qEst.Name, refEst.Name, gap, lim)
				}
			}
		}
	}
}

// TestQuantizedKNNMatchesOracle is the int16 kNN oracle property: over
// random sparse and dense venues, every posting-scan NNSS distance lies
// within quantAbsTol of the float64 kNN's, and the nearest neighbour is
// the float64 one unless the reference's top-2 is a near-tie.
func TestQuantizedKNNMatchesOracle(t *testing.T) {
	for seed := int64(80); seed < 88; seed++ {
		rng := rand.New(rand.NewSource(seed))
		hear := 0.05 + 0.25*rng.Float64() // sparse
		if seed%2 == 1 {
			hear = 0.85 + 0.15*rng.Float64() // dense
		}
		db := randomTrainDB(rng, 20+rng.Intn(150), 4+rng.Intn(20), hear)
		if len(db.BSSIDs) == 0 {
			continue
		}
		ref := NewKNN(db, 1)
		knnQ := NewKNN(db, 1)
		knnQ.Quantize = true
		for trial := 0; trial < 10; trial++ {
			obs := randomObs(rng, db, 0.2+0.7*rng.Float64())
			tag := fmt.Sprintf("seed %d trial %d knn", seed, trial)
			refEst, refErr := ref.Locate(obs)
			qEst, qErr := knnQ.Locate(obs)
			if (refErr == nil) != (qErr == nil) {
				t.Fatalf("%s: err %v vs reference %v", tag, qErr, refErr)
			}
			if refErr == nil {
				compareQuantParity(t, tag, refEst, qEst, 0, quantAbsTol)
			}
		}
	}
}
