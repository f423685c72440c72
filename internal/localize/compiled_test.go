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
// scoring loops now run against trainingdb.Compiled views, and the
// reference implementations below preserve the original string-keyed
// map walks verbatim. Randomized databases (sparse AP coverage,
// constant-sample sigmas, unknown observation BSSIDs) must produce
// identical names, positions and candidate orderings through both
// paths for the histogram and sector algorithms, and answers within
// the derived float32 record bounds (quant_test.go) for the
// maximum-likelihood and kNN families.

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

// view compiles db at the standard floor parameters.
func view(db *trainingdb.DB) *trainingdb.Compiled { return db.Compile(-95, 4) }

// overlaps reports whether obs hears any AP of db's universe.
func overlaps(db *trainingdb.DB, obs Observation) bool {
	for _, b := range db.BSSIDs {
		if _, ok := obs[b]; ok {
			return true
		}
	}
	return false
}

// --- reference implementations: the original map-walking scorers ---
//
// Each walks db, the database the locator's view was compiled from,
// taking the floor parameters from that view.

func refMaxLikelihood(db *trainingdb.DB, m *MaxLikelihood, obs Observation) (Estimate, error) {
	if err := validateObservation(obs); err != nil {
		return Estimate{}, err
	}
	if !overlaps(db, obs) {
		return Estimate{}, ErrNoOverlap
	}
	floorRSSI := m.compiled.FloorRSSI
	floorSigma := max(m.compiled.FloorSigma, stats.MinSigma)
	candidates := make([]Candidate, 0, db.Len())
	for _, name := range db.Names() {
		e := db.Entries[name]
		ll := 0.0
		for _, b := range db.BSSIDs {
			s, trained := e.PerAP[b]
			o, heard := obs[b]
			switch {
			case trained && heard:
				ll += stats.LogGaussianPDF(o, s.Mean, s.StdDev)
			case trained && !heard:
				ll += stats.LogGaussianPDF(floorRSSI, s.Mean, s.StdDev)
			case !trained && heard:
				ll += stats.LogGaussianPDF(o, floorRSSI, floorSigma)
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

func refHistogram(db *trainingdb.DB, h *Histogram, obs Observation) (Estimate, error) {
	if err := validateObservation(obs); err != nil {
		return Estimate{}, err
	}
	if !overlaps(db, obs) {
		return Estimate{}, ErrNoOverlap
	}
	const bins = 70
	floorRSSI := h.compiled.FloorRSSI
	hists := make(map[string]map[string]*stats.Histogram, db.Len())
	for name, e := range db.Entries {
		m := make(map[string]*stats.Histogram, len(e.PerAP))
		for bssid, s := range e.PerAP {
			hist, err := stats.NewHistogram(-100, -30, bins)
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
	candidates := make([]Candidate, 0, db.Len())
	for _, name := range db.Names() {
		ll := 0.0
		for _, b := range db.BSSIDs {
			hist, trained := hists[name][b]
			o, heard := obs[b]
			switch {
			case trained && heard:
				ll += logf(hist.Prob(o))
			case trained && !heard:
				ll += logf(hist.Prob(floorRSSI))
			case !trained && heard:
				ll += uniform
			}
		}
		candidates = append(candidates, Candidate{Name: name, Pos: db.Entries[name].Pos, Score: ll})
	}
	rankCandidates(candidates)
	normalizePosterior(candidates)
	best := candidates[0]
	return Estimate{Pos: best.Pos, Name: best.Name, Score: best.Score, Candidates: candidates}, nil
}

// signalDistance returns the Euclidean distance in dB between an
// observation and a training entry over db's AP universe, substituting
// floor for missing readings — the map-walking definition the kNN
// scan computes against the compiled radio map.
func signalDistance(db *trainingdb.DB, floor float64, obs Observation, e *trainingdb.Entry) float64 {
	sum := 0.0
	for _, b := range db.BSSIDs {
		var trainVal, obsVal float64
		if s, ok := e.PerAP[b]; ok {
			trainVal = s.Mean
		} else {
			trainVal = floor
		}
		if v, ok := obs[b]; ok {
			obsVal = v
		} else {
			obsVal = floor
		}
		d := obsVal - trainVal
		sum += d * d
	}
	return math.Sqrt(sum)
}

func refKNN(db *trainingdb.DB, k *KNN, obs Observation) (Estimate, error) {
	if err := validateObservation(obs); err != nil {
		return Estimate{}, err
	}
	if !overlaps(db, obs) {
		return Estimate{}, ErrNoOverlap
	}
	candidates := make([]Candidate, 0, db.Len())
	for _, name := range db.Names() {
		e := db.Entries[name]
		d := signalDistance(db, k.compiled.FloorRSSI, obs, e)
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

func refSector(db *trainingdb.DB, obs Observation) (Estimate, error) {
	if err := validateObservation(obs); err != nil {
		return Estimate{}, err
	}
	if !overlaps(db, obs) {
		return Estimate{}, ErrNoOverlap
	}
	const frac = 0.5
	codes := make(map[string]uint64, db.Len())
	for name, e := range db.Entries {
		maxN := 0
		for _, st := range e.PerAP {
			if st.N > maxN {
				maxN = st.N
			}
		}
		var code uint64
		for i, b := range db.BSSIDs {
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
	for i, b := range db.BSSIDs {
		if i >= 64 {
			break
		}
		if _, ok := obs[b]; ok {
			observed |= 1 << uint(i)
		}
	}
	candidates := make([]Candidate, 0, db.Len())
	best := 1 << 30
	for _, name := range db.Names() {
		d := hamming(observed, codes[name])
		if d < best {
			best = d
		}
		candidates = append(candidates, Candidate{
			Name: name, Pos: db.Entries[name].Pos, Score: -float64(d),
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
// randomized databases and observations, every algorithm must answer
// through the compiled view as through the original map walk —
// identically for histogram and sector, within float32ScoreBound and
// float32DistBound for the posting scans.
func TestCompiledMatchesMapBased(t *testing.T) {
	for seed := int64(0); seed < 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		nEntries := 4 + rng.Intn(36)
		nAPs := 3 + rng.Intn(18)
		db := randomTrainDB(rng, nEntries, nAPs, 0.4+rng.Float64()*0.5)
		if len(db.BSSIDs) == 0 {
			continue
		}

		c := view(db)
		ml := NewMaxLikelihood(c)
		mlExp := NewMaxLikelihood(c)
		mlExp.ExpectedPosition = true
		hist := NewHistogram(db, c)
		// The floor bin comes from the view's floor level.
		histFloor := NewHistogram(db, db.Compile(-92, 4))
		nnss := NewKNN(c, 1)
		knn := NewKNN(c, 4)
		wknn := NewKNN(c, 3)
		wknn.Weighted = true
		sec := NewSector(c)

		for trial := 0; trial < 12; trial++ {
			obs := randomObs(rng, db, 0.1+rng.Float64()*0.8)
			if len(obs) == 0 {
				continue
			}
			tag := func(algo string) string {
				return fmt.Sprintf("seed %d trial %d %s", seed, trial, algo)
			}

			checkML(t, tag("ml"), db, ml, obs)
			checkML(t, tag("ml-expected"), db, mlExp, obs)

			est, err := hist.Locate(obs)
			want, wantErr := refHistogram(db, hist, obs)
			compareEstimates(t, tag("histogram"), est, err, want, wantErr)

			est, err = histFloor.Locate(obs)
			want, wantErr = refHistogram(db, histFloor, obs)
			compareEstimates(t, tag("histogram-floor"), est, err, want, wantErr)

			checkKNN(t, tag("nnss"), db, nnss, obs)
			checkKNN(t, tag("knn"), db, knn, obs)
			checkKNN(t, tag("wknn"), db, wknn, obs)

			est, err = sec.Locate(obs)
			want, wantErr = refSector(db, obs)
			compareEstimates(t, tag("sector"), est, err, want, wantErr)
		}
		// The histogram keeps one row of bins per posting, not per cell.
		if got, want := len(hist.tables.logProb), len(c.Post)*histBins; got != want {
			t.Errorf("seed %d: histogram table holds %d log-probabilities, want %d", seed, got, want)
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
	ml := NewMaxLikelihood(view(db))
	serial := NewMaxLikelihood(view(db))

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

// TestLocateScratchSurvivesGC pins that the locate scratch outlives
// garbage collection: with two collections before every locate (a
// sync.Pool is emptied by the second), a warm ML locate on a large map
// still allocates at most its returned candidate slice.
func TestLocateScratchSurvivesGC(t *testing.T) {
	if raceEnabled {
		t.Skip("race-runtime allocations make per-call counts nondeterministic")
	}
	rng := rand.New(rand.NewSource(3))
	db := randomTrainDB(rng, 4000, 16, 0.5)
	obs := randomObs(rng, db, 0.6)
	for len(obs) == 0 {
		obs = randomObs(rng, db, 0.6)
	}
	m := NewMaxLikelihood(view(db))
	m.TopK = 5
	var err error
	if n := testing.AllocsPerRun(20, func() {
		runtime.GC()
		runtime.GC()
		_, err = m.Locate(obs)
	}); n > 1 {
		t.Errorf("%v allocs per locate after two GCs, want at most 1", n)
	}
	if err != nil {
		t.Fatal(err)
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
		c := view(db)
		m := NewMaxLikelihood(c)
		m.TopK = 5
		k := NewKNN(c, 3)
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
	// The centroid is summed in place: kNN allocates nothing beyond the
	// candidate slice ML also returns.
	if largeKNN > largeML {
		t.Errorf("KNN: %d allocs per locate, MaxLikelihood %d at the same TopK", largeKNN, largeML)
	}
}

// TestCompiledNoOverlapParity pins the error paths: observations with
// only unknown BSSIDs fail identically through both paths.
func TestCompiledNoOverlapParity(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	db := randomTrainDB(rng, 8, 6, 0.8)
	obs := Observation{"gh:os:t1": -50, "gh:os:t2": -60}
	c := view(db)
	for _, loc := range []Locator{NewMaxLikelihood(c), NewHistogram(db, c), NewKNN(c, 3), NewSector(c)} {
		if _, err := loc.Locate(obs); err != ErrNoOverlap {
			t.Errorf("%s: err = %v, want ErrNoOverlap", loc.Name(), err)
		}
	}
}

// TestAllLocatorsConcurrentLocates drives Locate on each of the four
// compiled locators from many goroutines at once; under -race this
// proves a constructed locator is safe to share with no further setup.
func TestAllLocatorsConcurrentLocates(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	db := randomTrainDB(rng, 12, 8, 0.7)
	obs := randomObs(rng, db, 0.9)
	c := view(db)
	for _, loc := range []Locator{NewMaxLikelihood(c), NewHistogram(db, c), NewKNN(c, 3), NewSector(c)} {
		want, err := loc.Locate(obs)
		if err != nil {
			t.Fatalf("%s: %v", loc.Name(), err)
		}
		done := make(chan error, 16)
		for g := 0; g < 16; g++ {
			go func() {
				got, err := loc.Locate(obs)
				if err == nil && (got.Name != want.Name || got.Score != want.Score || got.Pos != want.Pos) {
					err = fmt.Errorf("answered (%q, %v, %v), serially (%q, %v, %v)",
						got.Name, got.Score, got.Pos, want.Name, want.Score, want.Pos)
				}
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
