package localize

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"testing"

	"indoorloc/internal/geom"
	"indoorloc/internal/stats"
	"indoorloc/internal/trainingdb"
)

// This file is the compiled-vs-map equivalence property suite: the
// scoring loops now run against trainingdb.Compiled matrices, and the
// reference implementations below preserve the original string-keyed
// map walks verbatim. Randomized databases (sparse AP coverage,
// constant-sample sigmas, unknown observation BSSIDs) must produce
// identical names, positions and candidate orderings through both
// paths for every algorithm.

// randomTrainDB builds a database with nEntries locations over at most
// nAPs access points; each location hears each AP with probability
// hearProb, so coverage is sparse like a real survey.
func randomTrainDB(rng *rand.Rand, nEntries, nAPs int, hearProb float64) *trainingdb.DB {
	db := &trainingdb.DB{Entries: make(map[string]*trainingdb.Entry)}
	universe := make(map[string]bool)
	for i := 0; i < nEntries; i++ {
		name := fmt.Sprintf("loc-%03d", i)
		e := &trainingdb.Entry{
			Name:  name,
			Pos:   geom.Pt(rng.Float64()*120, rng.Float64()*90),
			PerAP: make(map[string]*trainingdb.APStats),
		}
		for j := 0; j < nAPs; j++ {
			if rng.Float64() >= hearProb {
				continue
			}
			bssid := fmt.Sprintf("ap:%02d", j)
			mean := -35 - rng.Float64()*55
			spread := rng.Float64() * 6
			if rng.Float64() < 0.15 {
				spread = 0 // constant samples: exercises the MinSigma clamp
			}
			n := 3 + rng.Intn(12)
			var run stats.Running
			samples := make([]float64, n)
			for s := range samples {
				samples[s] = mean + spread*rng.NormFloat64()
				run.Add(samples[s])
			}
			e.PerAP[bssid] = &trainingdb.APStats{
				BSSID: bssid, N: n,
				Mean: run.Mean(), StdDev: run.StdDev(),
				Min: run.Min(), Max: run.Max(),
				Samples: samples,
			}
			universe[bssid] = true
		}
		db.Entries[name] = e
	}
	for b := range universe {
		db.BSSIDs = append(db.BSSIDs, b)
	}
	sort.Strings(db.BSSIDs)
	return db
}

// randomObs draws an observation hearing each universe AP with
// probability hearProb, plus the occasional BSSID the training phase
// never saw (which every scorer must ignore).
func randomObs(rng *rand.Rand, db *trainingdb.DB, hearProb float64) Observation {
	obs := Observation{}
	for _, b := range db.BSSIDs {
		if rng.Float64() < hearProb {
			obs[b] = -25 - rng.Float64()*70
		}
	}
	if rng.Float64() < 0.5 {
		obs[fmt.Sprintf("ghost:%02d", rng.Intn(8))] = -60 - rng.Float64()*20
	}
	return obs
}

// --- reference implementations: the original map-walking scorers ---

func refMaxLikelihood(m *MaxLikelihood, obs Observation) (Estimate, error) {
	if err := validateObservation(obs); err != nil {
		return Estimate{}, err
	}
	minOverlap := m.MinOverlap
	if minOverlap <= 0 {
		minOverlap = 1
	}
	overlap := 0
	known := make(map[string]bool, len(m.DB.BSSIDs))
	for _, b := range m.DB.BSSIDs {
		known[b] = true
	}
	for b := range obs {
		if known[b] {
			overlap++
		}
	}
	if overlap < minOverlap {
		return Estimate{}, ErrNoOverlap
	}
	floorSigma := m.FloorSigma
	if floorSigma < stats.MinSigma {
		floorSigma = stats.MinSigma
	}
	candidates := make([]Candidate, 0, m.DB.Len())
	for _, name := range m.DB.Names() {
		e := m.DB.Entries[name]
		ll := 0.0
		for _, b := range m.DB.BSSIDs {
			s, trained := e.PerAP[b]
			o, heard := obs[b]
			switch {
			case trained && heard:
				ll += stats.LogGaussianPDF(o, s.Mean, s.StdDev)
			case trained && !heard:
				ll += stats.LogGaussianPDF(m.FloorRSSI, s.Mean, s.StdDev)
			case !trained && heard:
				ll += stats.LogGaussianPDF(o, m.FloorRSSI, floorSigma)
			}
		}
		candidates = append(candidates, Candidate{Name: name, Pos: e.Pos, Score: ll})
	}
	rankCandidates(candidates)
	best := candidates[0]
	est := Estimate{Pos: best.Pos, Name: best.Name, Score: best.Score, Candidates: candidates}
	if m.ExpectedPosition {
		est.Pos = posteriorMean(candidates)
	}
	return est, nil
}

func refHistogram(h *Histogram, obs Observation) (Estimate, error) {
	if err := validateObservation(obs); err != nil {
		return Estimate{}, err
	}
	bins := h.Bins
	lo, hi := h.RangeLo, h.RangeHi
	if bins <= 0 {
		bins = 70
		lo, hi = -100, -30
	}
	if hi <= lo {
		lo, hi = -100, -30
	}
	overlap := false
	for _, b := range h.DB.BSSIDs {
		if _, ok := obs[b]; ok {
			overlap = true
			break
		}
	}
	if !overlap {
		return Estimate{}, ErrNoOverlap
	}
	hists := make(map[string]map[string]*stats.Histogram, h.DB.Len())
	for name, e := range h.DB.Entries {
		m := make(map[string]*stats.Histogram, len(e.PerAP))
		for bssid, s := range e.PerAP {
			hist, err := stats.NewHistogram(lo, hi, bins)
			if err != nil {
				return Estimate{}, err
			}
			for _, v := range s.Samples {
				hist.Add(v)
			}
			m[bssid] = hist
		}
		hists[name] = m
	}
	uniform := logf(1 / float64(bins))
	candidates := make([]Candidate, 0, h.DB.Len())
	for _, name := range h.DB.Names() {
		ll := 0.0
		for _, b := range h.DB.BSSIDs {
			hist, trained := hists[name][b]
			o, heard := obs[b]
			switch {
			case trained && heard:
				ll += logf(hist.Prob(o))
			case trained && !heard:
				ll += logf(hist.Prob(h.FloorRSSI))
			case !trained && heard:
				ll += uniform
			}
		}
		candidates = append(candidates, Candidate{Name: name, Pos: h.DB.Entries[name].Pos, Score: ll})
	}
	rankCandidates(candidates)
	normalizePosterior(candidates)
	best := candidates[0]
	return Estimate{Pos: best.Pos, Name: best.Name, Score: best.Score, Candidates: candidates}, nil
}

func refKNN(k *KNN, obs Observation) (Estimate, error) {
	if err := validateObservation(obs); err != nil {
		return Estimate{}, err
	}
	overlap := false
	for _, b := range k.DB.BSSIDs {
		if _, ok := obs[b]; ok {
			overlap = true
			break
		}
	}
	if !overlap {
		return Estimate{}, ErrNoOverlap
	}
	candidates := make([]Candidate, 0, k.DB.Len())
	for _, name := range k.DB.Names() {
		e := k.DB.Entries[name]
		d := k.SignalDistance(obs, e)
		candidates = append(candidates, Candidate{Name: name, Pos: e.Pos, Score: -d})
	}
	rankCandidates(candidates)
	kk := k.kVal()
	if kk > len(candidates) {
		kk = len(candidates)
	}
	top := candidates[:kk]
	var pos geom.Point
	if k.Weighted {
		var wsum float64
		for _, c := range top {
			w := 1 / (1e-6 - c.Score)
			pos = pos.Add(c.Pos.Scale(w))
			wsum += w
		}
		pos = pos.Scale(1 / wsum)
	} else {
		pts := make([]geom.Point, len(top))
		for i, c := range top {
			pts[i] = c.Pos
		}
		pos = geom.Centroid(pts)
	}
	name := ""
	if kk == 1 {
		name = top[0].Name
	}
	return Estimate{Pos: pos, Name: name, Score: top[0].Score, Candidates: candidates}, nil
}

func refSector(s *Sector, obs Observation) (Estimate, error) {
	if err := validateObservation(obs); err != nil {
		return Estimate{}, err
	}
	overlap := false
	for _, b := range s.DB.BSSIDs {
		if _, ok := obs[b]; ok {
			overlap = true
			break
		}
	}
	if !overlap {
		return Estimate{}, ErrNoOverlap
	}
	frac := s.AudibleFraction
	if frac <= 0 {
		frac = 0.5
	}
	codes := make(map[string]uint64, s.DB.Len())
	for name, e := range s.DB.Entries {
		maxN := 0
		for _, st := range e.PerAP {
			if st.N > maxN {
				maxN = st.N
			}
		}
		var code uint64
		for i, b := range s.DB.BSSIDs {
			if i >= 64 {
				break
			}
			st, ok := e.PerAP[b]
			if !ok {
				continue
			}
			if maxN == 0 || float64(st.N) >= frac*float64(maxN) {
				code |= 1 << uint(i)
			}
		}
		codes[name] = code
	}
	var observed uint64
	for i, b := range s.DB.BSSIDs {
		if i >= 64 {
			break
		}
		if _, ok := obs[b]; ok {
			observed |= 1 << uint(i)
		}
	}
	candidates := make([]Candidate, 0, s.DB.Len())
	best := 1 << 30
	for _, name := range s.DB.Names() {
		d := hamming(observed, codes[name])
		if d < best {
			best = d
		}
		candidates = append(candidates, Candidate{
			Name: name, Pos: s.DB.Entries[name].Pos, Score: -float64(d),
		})
	}
	rankCandidates(candidates)
	var winners []Candidate
	for _, c := range candidates {
		if int(-c.Score) == best {
			winners = append(winners, c)
		}
	}
	sort.Slice(winners, func(i, j int) bool { return winners[i].Name < winners[j].Name })
	var x, y float64
	for _, c := range winners {
		x += c.Pos.X
		y += c.Pos.Y
	}
	n := float64(len(winners))
	est := Estimate{Score: -float64(best), Candidates: candidates}
	est.Pos.X, est.Pos.Y = x/n, y/n
	if len(winners) == 1 {
		est.Name = winners[0].Name
		est.Pos = winners[0].Pos
	}
	return est, nil
}

// --- comparison helpers ---

// scoreClose allows last-ulp drift: the compiled path accumulates the
// same terms from a precomputed baseline, so sums differ only by
// floating-point association.
func scoreClose(a, b float64) bool {
	diff := math.Abs(a - b)
	scale := math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
	return diff <= 1e-9*scale
}

func compareEstimates(t *testing.T, tag string, got Estimate, gotErr error, want Estimate, wantErr error) {
	t.Helper()
	if (gotErr == nil) != (wantErr == nil) || (wantErr != nil && gotErr != wantErr) {
		t.Fatalf("%s: error mismatch: compiled %v, reference %v", tag, gotErr, wantErr)
	}
	if wantErr != nil {
		return
	}
	if got.Name != want.Name {
		t.Fatalf("%s: Name = %q, reference %q", tag, got.Name, want.Name)
	}
	if got.Pos.Dist(want.Pos) > 1e-9 {
		t.Fatalf("%s: Pos = %v, reference %v", tag, got.Pos, want.Pos)
	}
	if !scoreClose(got.Score, want.Score) {
		t.Fatalf("%s: Score = %v, reference %v", tag, got.Score, want.Score)
	}
	if len(got.Candidates) != len(want.Candidates) {
		t.Fatalf("%s: %d candidates, reference %d", tag, len(got.Candidates), len(want.Candidates))
	}
	for i := range got.Candidates {
		g, w := got.Candidates[i], want.Candidates[i]
		if g.Name != w.Name {
			t.Fatalf("%s: candidate %d = %q, reference %q", tag, i, g.Name, w.Name)
		}
		if g.Pos != w.Pos {
			t.Fatalf("%s: candidate %d pos = %v, reference %v", tag, i, g.Pos, w.Pos)
		}
		if !scoreClose(g.Score, w.Score) {
			t.Fatalf("%s: candidate %d score = %v, reference %v", tag, i, g.Score, w.Score)
		}
	}
}

// TestCompiledMatchesMapBased is the equivalence property: over
// randomized databases and observations, every algorithm must return
// identical estimates through the compiled matrices and through the
// original map walk.
func TestCompiledMatchesMapBased(t *testing.T) {
	for seed := int64(0); seed < 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		nEntries := 4 + rng.Intn(36)
		nAPs := 3 + rng.Intn(18)
		db := randomTrainDB(rng, nEntries, nAPs, 0.4+rng.Float64()*0.5)
		if len(db.BSSIDs) == 0 {
			continue
		}

		ml := NewMaxLikelihood(db)
		mlExp := NewMaxLikelihood(db)
		mlExp.ExpectedPosition = true
		mlStrict := NewMaxLikelihood(db)
		mlStrict.MinOverlap = 2
		hist := NewHistogram(db)
		histCoarse := &Histogram{DB: db, Bins: 10, RangeLo: -110, RangeHi: -20, FloorRSSI: -92}
		nnss := NewKNN(db, 1)
		knn := NewKNN(db, 4)
		wknn := &KNN{DB: db, K: 3, Weighted: true, FloorRSSI: -95}
		sec := NewSector(db)
		secLoose := &Sector{DB: db, AudibleFraction: 0.1}

		for trial := 0; trial < 12; trial++ {
			obs := randomObs(rng, db, 0.1+rng.Float64()*0.8)
			if len(obs) == 0 {
				continue
			}
			tag := func(algo string) string {
				return fmt.Sprintf("seed %d trial %d %s", seed, trial, algo)
			}

			est, err := ml.Locate(obs)
			want, wantErr := refMaxLikelihood(ml, obs)
			compareEstimates(t, tag("ml"), est, err, want, wantErr)

			est, err = mlExp.Locate(obs)
			want, wantErr = refMaxLikelihood(mlExp, obs)
			compareEstimates(t, tag("ml-expected"), est, err, want, wantErr)

			est, err = mlStrict.Locate(obs)
			want, wantErr = refMaxLikelihood(mlStrict, obs)
			compareEstimates(t, tag("ml-minoverlap"), est, err, want, wantErr)

			est, err = hist.Locate(obs)
			want, wantErr = refHistogram(hist, obs)
			compareEstimates(t, tag("histogram"), est, err, want, wantErr)

			est, err = histCoarse.Locate(obs)
			want, wantErr = refHistogram(histCoarse, obs)
			compareEstimates(t, tag("histogram-coarse"), est, err, want, wantErr)

			est, err = nnss.Locate(obs)
			want, wantErr = refKNN(nnss, obs)
			compareEstimates(t, tag("nnss"), est, err, want, wantErr)

			est, err = knn.Locate(obs)
			want, wantErr = refKNN(knn, obs)
			compareEstimates(t, tag("knn"), est, err, want, wantErr)

			est, err = wknn.Locate(obs)
			want, wantErr = refKNN(wknn, obs)
			compareEstimates(t, tag("wknn"), est, err, want, wantErr)

			est, err = sec.Locate(obs)
			want, wantErr = refSector(sec, obs)
			compareEstimates(t, tag("sector"), est, err, want, wantErr)

			est, err = secLoose.Locate(obs)
			want, wantErr = refSector(secLoose, obs)
			compareEstimates(t, tag("sector-loose"), est, err, want, wantErr)
		}
	}
}

// TestConcurrentLocates hammers one locator from many goroutines — the
// serving shape, where concurrent requests and BatchInto share it — and
// checks every answer against a separately built locator queried
// serially. Run under -race in CI.
func TestConcurrentLocates(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	db := randomTrainDB(rng, 120, 10, 0.6)
	ml := NewMaxLikelihood(db)
	serial := NewMaxLikelihood(db)

	type job struct {
		obs  Observation
		want Estimate
	}
	var jobs []job
	for len(jobs) < 24 {
		obs := randomObs(rng, db, 0.7)
		if len(obs) == 0 {
			continue
		}
		want, err := serial.Locate(obs)
		if err != nil {
			continue
		}
		jobs = append(jobs, job{obs, want})
	}
	done := make(chan error, 16)
	for g := 0; g < 16; g++ {
		go func(g int) {
			for rep := 0; rep < 8; rep++ {
				j := jobs[(g+rep)%len(jobs)]
				got, err := ml.Locate(j.obs)
				if err != nil {
					done <- err
					return
				}
				if got.Name != j.want.Name || got.Score != j.want.Score {
					done <- fmt.Errorf("goroutine %d: (%q, %v) want (%q, %v)",
						g, got.Name, got.Score, j.want.Name, j.want.Score)
					return
				}
			}
			done <- nil
		}(g)
	}
	for g := 0; g < 16; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

// TestLocateAllocsIndependentOfMapSize pins one scan per locate: with
// TopK set, a locate on a 320-entry map allocates exactly as much as
// one on a 30-entry map. testing.AllocsPerRun pins GOMAXPROCS to 1,
// which would hide a per-locate fan-out sized to the CPU count, so
// this test counts mallocs itself with at least two Ps.
func TestLocateAllocsIndependentOfMapSize(t *testing.T) {
	if raceEnabled {
		t.Skip("race-runtime allocations make per-call counts nondeterministic")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(max(2, runtime.GOMAXPROCS(0))))
	allocs := func(loc Locator, obs Observation) uint64 {
		if _, err := loc.Locate(obs); err != nil { // warm the scratch pool
			t.Fatalf("%s: %v", loc.Name(), err)
		}
		const runs = 200
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			loc.Locate(obs)
		}
		runtime.ReadMemStats(&after)
		return (after.Mallocs - before.Mallocs) / runs
	}
	perKind := func(entries int) (ml, knn uint64) {
		rng := rand.New(rand.NewSource(int64(entries)))
		db := randomTrainDB(rng, entries, 12, 0.6)
		obs := randomObs(rng, db, 0.7)
		for len(obs) == 0 {
			obs = randomObs(rng, db, 0.7)
		}
		m := NewMaxLikelihood(db)
		m.TopK = 5
		k := NewKNN(db, 3)
		k.TopK = 5
		return allocs(m, obs), allocs(k, obs)
	}
	smallML, smallKNN := perKind(30)
	largeML, largeKNN := perKind(320)
	if largeML != smallML {
		t.Errorf("MaxLikelihood: %d allocs per locate at 320 entries, %d at 30", largeML, smallML)
	}
	if largeKNN != smallKNN {
		t.Errorf("KNN: %d allocs per locate at 320 entries, %d at 30", largeKNN, smallKNN)
	}
}

// TestCompiledNoOverlapParity pins the error paths: observations with
// only unknown BSSIDs fail identically through both paths.
func TestCompiledNoOverlapParity(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	db := randomTrainDB(rng, 8, 6, 0.8)
	obs := Observation{"gh:os:t1": -50, "gh:os:t2": -60}
	for _, loc := range []Locator{NewMaxLikelihood(db), NewHistogram(db), NewKNN(db, 3), NewSector(db)} {
		if _, err := loc.Locate(obs); err != ErrNoOverlap {
			t.Errorf("%s: err = %v, want ErrNoOverlap", loc.Name(), err)
		}
	}
}

// TestWarmIsIdempotentAndConcurrent drives Warm and Locate from many
// goroutines at once; under -race this proves the sync.Once caches
// replaced the old "prime single-threaded first" contract.
func TestWarmIsIdempotentAndConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	db := randomTrainDB(rng, 12, 8, 0.7)
	obs := randomObs(rng, db, 0.9)
	for _, loc := range []Locator{NewMaxLikelihood(db), NewHistogram(db), NewKNN(db, 3), NewSector(db)} {
		w := loc.(Warmer)
		done := make(chan error, 16)
		for g := 0; g < 16; g++ {
			go func() {
				if err := w.Warm(); err != nil {
					done <- err
					return
				}
				_, err := loc.Locate(obs)
				done <- err
			}()
		}
		for g := 0; g < 16; g++ {
			if err := <-done; err != nil {
				t.Fatalf("%s: %v", loc.Name(), err)
			}
		}
	}
}
