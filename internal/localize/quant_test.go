package localize

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"indoorloc/internal/geom"
	"indoorloc/internal/sim"
	"indoorloc/internal/stats"
	"indoorloc/internal/trainingdb"
)

// Oracle bounds for the posting scans. Compile rounds each record
// field once from the database's float64 statistics to float32; the
// baselines and every accumulator stay float64. So a compiled score
// differs from the uncompiled map-walking reference (refMaxLikelihood,
// signalDistance) by the records' float32 rounding, derived per
// entry below, plus float64 rounding of the sums. The bounds are
// computed from the records themselves, so they hold for any view
// whose records round float64 cells: a fresh Compile, a patched view
// or a decoded artifact.

// f32Rel bounds the relative error of rounding a float64 to float32:
// half a float32 ulp, 2⁻²⁴ of the value (normal range).
const f32Rel = 1.0 / (1 << 24)

// sumRel bounds the relative float64 rounding of a scan's sums against
// the reference's differently ordered sums: a few hundred terms at
// 2⁻⁵³ each, taken of the terms' total magnitude.
const sumRel = 1e-12

// postingOf returns entry i's record in column j's list.
func postingOf(c *trainingdb.Compiled, i int, j int32) (trainingdb.Posting, bool) {
	list := c.Post[c.PostStart[j]:c.PostStart[j+1]]
	k := sort.Search(len(list), func(k int) bool { return int(list[k].Entry) >= i })
	if k < len(list) && int(list[k].Entry) == i {
		return list[k], true
	}
	return trainingdb.Posting{}, false
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

// float32ScoreBound is the guaranteed error of entry i's compiled
// maximum-likelihood score against exact statistics. Only heard
// trained cells differ: unheard trained cells contribute the same
// float64 floor term on both sides, and heard untrained cells the same
// observation-side floor term. A record rounds three values, each by
// at most ½ ulp₃₂: Center = mean, HalfPrec = h = 1/(σ√2) and
// Const = logNorm − floorLL. Read back from the record, the mean lies
// within δ = f32Rel·|Center|/(1−f32Rel) of Center and h in
// [HalfPrec/(1+f32Rel), HalfPrec/(1−f32Rel)], so with a = |v − Center|
// both the kernel's d = (v−Center)·HalfPrec and the exact (v−mean)·h
// lie in [max(0, a−δ)·HalfPrec/(1+f32Rel), (a+δ)·HalfPrec/(1−f32Rel)],
// and d² moves by at most the width of that interval's square; the
// constant adds f32Rel·|Const|/(1−f32Rel). The sums add sumRel of
// their magnitude.
func float32ScoreBound(c *trainingdb.Compiled, heard map[int32]float64, i int) float64 {
	var b, mag float64
	mag = math.Abs(c.UnheardLL[i])
	for j, v := range heard {
		mag += math.Abs(stats.LogGaussianPDF(v, c.FloorRSSI, c.FloorSigma))
		p, ok := postingOf(c, i, j)
		if !ok {
			continue
		}
		center, hp, k := float64(p.Center), float64(p.HalfPrec), float64(p.Const)
		a, dc := math.Abs(v-center), f32Rel*math.Abs(center)/(1-f32Rel)
		hi := (a + dc) * hp / (1 - f32Rel)
		lo := math.Max(0, a-dc) * hp / (1 + f32Rel)
		b += f32Rel*math.Abs(k)/(1-f32Rel) + hi*hi - lo*lo
		mag += math.Abs(k) + hi*hi
	}
	return b + sumRel*mag
}

// float32DistBound is the guaranteed error of entry i's compiled kNN
// distance against signalDistance, given the compiled distance
// dist. Each heard trained cell adds 2(v−F)(F−Center) where the exact
// sum adds 2(v−F)(F−mean), so the squared distance moves by at most
// Σ 2|v−F|·δ with δ the Center rounding of float32ScoreBound, plus
// sumRel of the sums' magnitude; call that E. Then the distance moves
// by at most min(√E, E/dist).
func float32DistBound(c *trainingdb.Compiled, heard map[int32]float64, i int, dist float64) float64 {
	floor := c.FloorRSSI
	e, mag := 0.0, c.SignalBase[i]
	for j, v := range heard {
		mag += (v - floor) * (v - floor)
		if p, ok := postingOf(c, i, j); ok {
			w := 2 * math.Abs(v-floor)
			e += w * f32Rel * math.Abs(float64(p.Center)) / (1 - f32Rel)
			mag += w * math.Abs(floor-float64(p.Center))
		}
	}
	e += sumRel * mag
	if dist > 0 {
		return math.Min(math.Sqrt(e), e/dist)
	}
	return math.Sqrt(e)
}

// checkBoundedRanking checks a compiled estimate's candidates against
// the reference's: the same candidates, each score within its bound
// (matched by name), and a ranking that departs from the reference's
// only on near-ties — any pair ranked against the reference order must
// lie within their summed bounds. It returns the reference scores by
// name.
func checkBoundedRanking(t *testing.T, tag string, got, want Estimate, bound map[string]float64) map[string]float64 {
	t.Helper()
	if len(got.Candidates) != len(want.Candidates) {
		t.Fatalf("%s: %d candidates, reference %d", tag, len(got.Candidates), len(want.Candidates))
	}
	ref := make(map[string]float64, len(want.Candidates))
	for _, c := range want.Candidates {
		ref[c.Name] = c.Score
	}
	for _, c := range got.Candidates {
		r, ok := ref[c.Name]
		if !ok {
			t.Fatalf("%s: compiled ranking invented candidate %q", tag, c.Name)
		}
		if d := math.Abs(c.Score - r); d > bound[c.Name] {
			t.Fatalf("%s: %q score %v, reference %v: error %v over the float32 bound %v",
				tag, c.Name, c.Score, r, d, bound[c.Name])
		}
	}
	for a := range got.Candidates {
		for b := a + 1; b < len(got.Candidates); b++ {
			x, y := got.Candidates[a].Name, got.Candidates[b].Name
			if ref[y]-ref[x] > bound[x]+bound[y] {
				t.Fatalf("%s: %q ranked above %q, reference scores %v < %v beyond their bounds",
					tag, x, y, ref[x], ref[y])
			}
		}
	}
	return ref
}

// reweightedPosBound bounds how far a weighted mean of positions moves
// when each weight is scaled by a factor within [e^−ε, e^ε]: the
// normalized weights move by at most (e^{2ε}−1) of themselves, so the
// mean moves by at most (e^{2ε}−1)·max|p − mean|.
func reweightedPosBound(cands []Candidate, mean geom.Point, eps float64) float64 {
	var r float64
	for _, c := range cands {
		r = math.Max(r, c.Pos.Dist(mean))
	}
	return math.Expm1(2*eps)*r + 1e-9
}

// checkML compares a MaxLikelihood Locate against refMaxLikelihood
// under float32ScoreBound.
func checkML(t *testing.T, tag string, db *trainingdb.DB, m *MaxLikelihood, obs Observation) {
	t.Helper()
	got, gotErr := m.Locate(obs)
	want, wantErr := refMaxLikelihood(db, m, obs)
	if (gotErr == nil) != (wantErr == nil) || (wantErr != nil && gotErr != wantErr) {
		t.Fatalf("%s: error mismatch: compiled %v, reference %v", tag, gotErr, wantErr)
	}
	if wantErr != nil {
		return
	}
	c := m.compiled
	heard := heardColumns(c, obs)
	bound := make(map[string]float64, len(c.Names))
	eps := 0.0
	for i, name := range c.Names {
		bound[name] = float32ScoreBound(c, heard, i)
		eps = math.Max(eps, bound[name])
	}
	checkBoundedRanking(t, tag, got, want, bound)
	if m.ExpectedPosition {
		if d := got.Pos.Dist(want.Pos); d > reweightedPosBound(want.Candidates, want.Pos, eps) {
			t.Fatalf("%s: expected position %v, reference %v (%v apart)", tag, got.Pos, want.Pos, d)
		}
	} else if got.Name == want.Name && got.Pos != want.Pos {
		t.Fatalf("%s: position %v, reference %v", tag, got.Pos, want.Pos)
	}
}

// checkKNN compares a KNN Locate against refKNN (signalDistance)
// under float32DistBound.
func checkKNN(t *testing.T, tag string, db *trainingdb.DB, k *KNN, obs Observation) {
	t.Helper()
	got, gotErr := k.Locate(obs)
	want, wantErr := refKNN(db, k, obs)
	if (gotErr == nil) != (wantErr == nil) || (wantErr != nil && gotErr != wantErr) {
		t.Fatalf("%s: error mismatch: compiled %v, reference %v", tag, gotErr, wantErr)
	}
	if wantErr != nil {
		return
	}
	c := k.compiled
	heard := heardColumns(c, obs)
	entry := make(map[string]int, len(c.Names))
	for i, name := range c.Names {
		entry[name] = i
	}
	bound := make(map[string]float64, len(got.Candidates))
	for _, cand := range got.Candidates {
		bound[cand.Name] = float32DistBound(c, heard, entry[cand.Name], -cand.Score)
	}
	checkBoundedRanking(t, tag, got, want, bound)
	kk := min(k.kVal(), len(want.Candidates))
	same := true
	for i := 0; i < kk; i++ {
		found := false
		for _, w := range want.Candidates[:kk] {
			found = found || w.Name == got.Candidates[i].Name
		}
		same = same && found
	}
	if !same {
		return // a near-tie at the K-th place, allowed by the ranking check
	}
	if got.Name != want.Name {
		t.Fatalf("%s: Name = %q, reference %q", tag, got.Name, want.Name)
	}
	tol := 1e-9
	if k.Weighted {
		// Weight 1/(10⁻⁶+d) scales by at most (10⁻⁶+d)/(10⁻⁶+d−b).
		eps := 0.0
		for _, w := range want.Candidates[:kk] {
			d := 1e-6 - w.Score
			eps = math.Max(eps, math.Log(d/(d-bound[w.Name])))
		}
		tol = reweightedPosBound(want.Candidates[:kk], want.Pos, eps)
	}
	if d := got.Pos.Dist(want.Pos); d > tol {
		t.Fatalf("%s: Pos = %v, reference %v (%v apart, tolerance %v)", tag, got.Pos, want.Pos, d, tol)
	}
}

// TestQuantizedScoringParity is the randomized property over sparse
// random radio maps: MaxLikelihood and KNN scoring over the float32
// posting records stay within the derived bounds of the uncompiled
// oracles and pick the same top-1 outside near-ties.
func TestQuantizedScoringParity(t *testing.T) {
	for seed := int64(40); seed < 46; seed++ {
		rng := rand.New(rand.NewSource(seed))
		db := randomTrainDB(rng, 20+rng.Intn(150), 4+rng.Intn(14), 0.3+rng.Float64()*0.6)
		if len(db.BSSIDs) == 0 {
			continue
		}
		ml := NewMaxLikelihood(view(db))
		knn := NewKNN(view(db), 3)
		for trial := 0; trial < 10; trial++ {
			obs := randomObs(rng, db, 0.2+rng.Float64()*0.7)
			if len(obs) == 0 {
				continue
			}
			tag := fmt.Sprintf("seed %d trial %d", seed, trial)
			checkML(t, tag+" ml", db, ml, obs)
			checkKNN(t, tag+" knn", db, knn, obs)
		}
	}
}

// TestQuantizedTopKConsistent pins that the record scan and bounded
// selection compose: the TopK prefix equals the full ranking's prefix
// exactly (both score over the same records).
func TestQuantizedTopKConsistent(t *testing.T) {
	rng := rand.New(rand.NewSource(50))
	db := randomTrainDB(rng, 120, 10, 0.5)
	full := NewMaxLikelihood(view(db))
	top := NewMaxLikelihood(view(db))
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

// TestQuantizedParitySimulated runs the oracle property on the paper's
// simulated house and the larger office wing: working-phase captures
// at every third training point localize within float32ScoreBound of
// the uncompiled reference, to the same top-1 outside near-ties.
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
		ml := NewMaxLikelihood(view(db))
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
			checkML(t, scen.Name+" "+name, db, ml, obs)
		}
	}
}

// denseScores is the maximum-likelihood score of every entry walked
// cell by cell over the database's exact float64 statistics — the
// reference the posting kernel must match up to its records' float32
// rounding and the summation order.
func denseScores(db *trainingdb.DB, c *trainingdb.Compiled, obs Observation) []float64 {
	scores := make([]float64, c.NumEntries())
	for i, name := range c.Names {
		e := db.Entries[name]
		for _, b := range c.BSSIDs {
			s, trained := e.PerAP[b]
			v, heard := obs[b]
			switch {
			case trained && heard:
				scores[i] += stats.LogGaussianPDF(v, s.Mean, s.StdDev)
			case trained:
				scores[i] += stats.LogGaussianPDF(c.FloorRSSI, s.Mean, s.StdDev)
			case heard:
				scores[i] += stats.LogGaussianPDF(v, c.FloorRSSI, c.FloorSigma)
			}
		}
	}
	return scores
}

// TestPostingScanMatchesDenseScan pins the kernel itself: over sparse
// and dense random venues, every entry's posting-scan score — not only
// the ranked candidates — stays within float32ScoreBound of the dense
// cell-by-cell scan over exact statistics.
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
		for trial := 0; trial < 10; trial++ {
			obs := randomObs(rng, db, 0.2+0.7*rng.Float64())
			cols, vals := c.Intern(obs, nil, nil)
			aux := make([]float64, len(vals))
			for h, v := range vals {
				aux[h] = stats.LogGaussianPDF(v, c.FloorRSSI, c.FloorSigma)
			}
			want := denseScores(db, c, obs)
			got := make([]float64, len(want))
			scorePostings(c, cols, vals, aux, got)
			heard := heardColumns(c, obs)
			for i := range want {
				if d, bound := math.Abs(got[i]-want[i]), float32ScoreBound(c, heard, i); d > bound {
					t.Fatalf("seed %d trial %d entry %d: posting scan %v, dense scan %v: error %v over the float32 bound %v",
						seed, trial, i, got[i], want[i], d, bound)
				}
			}
		}
	}
}

// TestQuantizedMatchesOracle is the maximum-likelihood oracle property
// over random sparse and dense venues: every candidate score lies
// within float32ScoreBound of the uncompiled map-walking reference,
// and the argmax is the reference's unless its top-2 is a near-tie
// inside those bounds.
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
		ml := NewMaxLikelihood(view(db))
		for trial := 0; trial < 10; trial++ {
			checkML(t, fmt.Sprintf("seed %d trial %d", seed, trial), db, ml, randomObs(rng, db, 0.2+0.7*rng.Float64()))
		}
	}
}

// TestQuantizedKNNMatchesOracle is the kNN oracle property over random
// sparse and dense venues: every NNSS distance lies within
// float32DistBound of signalDistance, and the nearest neighbour is
// the reference's unless its top-2 is a near-tie inside those bounds.
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
		knn := NewKNN(view(db), 1)
		for trial := 0; trial < 10; trial++ {
			checkKNN(t, fmt.Sprintf("seed %d trial %d knn", seed, trial), db, knn, randomObs(rng, db, 0.2+0.7*rng.Float64()))
		}
	}
}
