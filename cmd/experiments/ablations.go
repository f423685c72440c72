package main

import (
	"fmt"
	"io"
	"math"
	"math/rand"

	"indoorloc/internal/core"
	"indoorloc/internal/eval"
	"indoorloc/internal/filter"
	"indoorloc/internal/geom"
	"indoorloc/internal/localize"
	"indoorloc/internal/rf"
	"indoorloc/internal/sim"
	"indoorloc/internal/uwb"
)

// runA1 sweeps the kNN neighbour count against the paper's ML pick.
func runA1(w io.Writer, _ string) error {
	d, err := buildDataset(sim.PaperHouse(), 90, 1)
	if err != nil {
		return err
	}
	ml, err := buildLocator(core.AlgoProbabilistic, d.db, core.BuildConfig{})
	if err != nil {
		return err
	}
	printReport(w, "probabilistic ML", evaluate(d, ml, 30, 2))
	view := d.db.Compile(-95, 4)
	for k := 1; k <= 6; k++ {
		knn := localize.NewKNN(view, k)
		printReport(w, fmt.Sprintf("knn k=%d", k), evaluate(d, knn, 30, 2))
		wk := localize.NewKNN(view, k)
		wk.Weighted = true
		printReport(w, fmt.Sprintf("wknn k=%d", k), evaluate(d, wk, 30, 2))
	}
	return nil
}

// runA2 sweeps the training-grid spacing: finer grids cost more
// training walk but localize tighter.
func runA2(w io.Writer, _ string) error {
	for _, spacing := range []float64{5, 10, 20} {
		scen := sim.PaperHouse()
		scen.GridSpacing = spacing
		d, err := buildDataset(scen, 90, 1)
		if err != nil {
			return err
		}
		ml, err := buildLocator(core.AlgoProbabilistic, d.db, core.BuildConfig{})
		if err != nil {
			return err
		}
		label := fmt.Sprintf("spacing %2.0f ft (%d pts)", spacing, d.db.Len())
		printReport(w, label, evaluate(d, ml, 30, 2))
	}
	fmt.Fprintln(w, "note: valid%% compares against each grid's own nearest point;")
	fmt.Fprintln(w, "mean error in feet is the comparable column across rows")
	return nil
}

// runA3 sweeps RSSI noise — the paper's "largest barrier" — for both
// headline algorithms.
func runA3(w io.Writer, _ string) error {
	for _, fast := range []float64{0.5, 1.5, 2.5, 4, 6} {
		scen := sim.PaperHouse()
		scen.Radio = rf.Config{FastSigma: fast}
		d, err := buildDataset(scen, 90, 1)
		if err != nil {
			return err
		}
		ml, err := buildLocator(core.AlgoProbabilistic, d.db, core.BuildConfig{})
		if err != nil {
			return err
		}
		printReport(w, fmt.Sprintf("prob  σfast=%.1f dB", fast), evaluate(d, ml, 30, 2))
		g, err := buildLocator(core.AlgoGeometric, d.db,
			core.BuildConfig{APPositions: scen.APPositions()})
		if err != nil {
			return err
		}
		printReport(w, fmt.Sprintf("geom  σfast=%.1f dB", fast), evaluate(d, g, 30, 2))
	}
	return nil
}

// runA4 sweeps the AP count from 3 to 8.
func runA4(w io.Writer, _ string) error {
	extras := extraAPs()
	for n := 3; n <= 8; n++ {
		scen := sim.PaperHouse()
		if n < len(scen.APs) {
			scen.APs = scen.APs[:n]
		} else {
			scen.APs = append(scen.APs, extras[:n-4]...)
		}
		d, err := buildDataset(scen, 90, 1)
		if err != nil {
			return err
		}
		ml, err := buildLocator(core.AlgoProbabilistic, d.db, core.BuildConfig{})
		if err != nil {
			return err
		}
		printReport(w, fmt.Sprintf("prob  %d APs", n), evaluate(d, ml, 30, 2))
		g, err := buildLocator(core.AlgoGeometric, d.db,
			core.BuildConfig{APPositions: scen.APPositions()})
		if err != nil {
			return err
		}
		printReport(w, fmt.Sprintf("geom  %d APs", n), evaluate(d, g, 30, 2))
	}
	return nil
}

// runA5 evaluates the future-work §6.2 tracking filters on a walk
// through the house.
func runA5(w io.Writer, _ string) error {
	d, err := buildDataset(sim.PaperHouse(), 90, 1)
	if err != nil {
		return err
	}
	ml, err := buildLocator(core.AlgoProbabilistic, d.db, core.BuildConfig{})
	if err != nil {
		return err
	}
	// A walk: a lap around the house interior at ~2 ft per observation
	// window.
	var path []geom.Point
	waypoints := []geom.Point{
		geom.Pt(5, 5), geom.Pt(45, 5), geom.Pt(45, 35), geom.Pt(5, 35), geom.Pt(5, 5),
	}
	for i := 0; i+1 < len(waypoints); i++ {
		a, b := waypoints[i], waypoints[i+1]
		steps := int(a.Dist(b) / 2)
		for s := 0; s < steps; s++ {
			path = append(path, a.Lerp(b, float64(s)/float64(steps)))
		}
	}
	// Raw per-step estimates.
	sc := sim.NewScanner(d.env, 9)
	raw := make([]geom.Point, len(path))
	for i, p := range path {
		est, err := ml.Locate(localize.ObservationFromRecords(sc.Capture(p, 5, 0)))
		if err != nil {
			return err
		}
		raw[i] = est.Pos
	}
	filters := []filter.PositionFilter{
		filter.Raw{},
		&filter.EWMA{Alpha: 0.35},
		&filter.Kalman{Dt: 1, ProcessNoise: 0.6, MeasurementNoise: 7},
		&filter.Particle{N: 600, MotionSigma: 2.5, MeasurementSigma: 7,
			Bounds: d.scen.Outline, Rng: rand.New(rand.NewSource(4))},
	}
	for _, f := range filters {
		report := &eval.Report{}
		for i, meas := range raw {
			report.Add(eval.Trial{True: path[i], Est: f.Update(meas)})
		}
		printReport(w, "filter "+f.Name(), report)
	}
	// The RTS smoother sees the whole track at once — the offline
	// ceiling for what history can buy.
	smoothed := filter.SmoothPath(raw, 1, 0.6, 7)
	smoothReport := &eval.Report{}
	for i := range smoothed {
		smoothReport.Add(eval.Trial{True: path[i], Est: smoothed[i]})
	}
	printReport(w, "filter rts-smoother", smoothReport)

	// The grid Bayes filter consumes posteriors, not positions.
	gb := filter.NewGridBayes(pointsOf(d))
	report := &eval.Report{}
	for i, p := range path {
		est, err := ml.Locate(localize.ObservationFromRecords(sc.Capture(p, 5, 0)))
		if err != nil {
			return err
		}
		// Shift the log-likelihood scores by their max before
		// exponentiating so the linear likelihoods stay representable.
		lik := make(map[string]float64, len(est.Candidates))
		maxScore := est.Candidates[0].Score
		for _, c := range est.Candidates {
			lik[c.Name] = math.Exp(c.Score - maxScore)
		}
		_, _, mean := gb.UpdateLikelihood(lik)
		report.Add(eval.Trial{True: path[i], Est: mean})
	}
	printReport(w, "filter grid-bayes", report)
	return nil
}

// pointsOf extracts the training positions by name.
func pointsOf(d *dataset) map[string]geom.Point {
	out := make(map[string]geom.Point, d.db.Len())
	for name, e := range d.db.Entries {
		out[name] = e.Pos
	}
	return out
}

// runA6 contrasts UWB ToA ranging with RSSI-based geometric ranging,
// the paper's future-work §6.3 motivation.
func runA6(w io.Writer, _ string) error {
	scen := sim.PaperHouse()
	d, err := buildDataset(scen, 90, 1)
	if err != nil {
		return err
	}
	g, err := buildLocator(core.AlgoGeometric, d.db,
		core.BuildConfig{APPositions: scen.APPositions()})
	if err != nil {
		return err
	}
	printReport(w, "RSSI geometric", evaluate(d, g, 30, 2))

	anchors := make([]uwb.Anchor, len(scen.APs))
	for i, ap := range scen.APs {
		anchors[i] = uwb.Anchor{ID: ap.BSSID, Pos: ap.Pos}
	}
	sys, err := uwb.NewSystem(anchors, scen.Walls, uwb.Channel{})
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(5))
	report := &eval.Report{}
	for _, p := range scen.TestPoints {
		est, ok := sys.Locate(p, rng)
		trial := eval.Trial{True: p}
		if !ok {
			trial.Err = fmt.Errorf("uwb locate failed")
		} else {
			trial.Est = est
		}
		report.Add(trial)
	}
	printReport(w, "UWB time-of-arrival", report)
	fmt.Fprintf(w, "UWB mean error %.2f ft vs RSSI %.1f ft — the discrete-arrival\n",
		report.MeanError(), evaluate(d, g, 30, 2).MeanError())
	fmt.Fprintln(w, "leading edge dodges the fading that limits RSSI ranging")
	return nil
}

// runA7 runs the §6.1 one-factor-at-a-time environment experiments:
// train clean, observe under each factor.
func runA7(w io.Writer, _ string) error {
	d, err := buildDataset(sim.PaperHouse(), 90, 1)
	if err != nil {
		return err
	}
	ml, err := buildLocator(core.AlgoProbabilistic, d.db, core.BuildConfig{})
	if err != nil {
		return err
	}
	printReport(w, "baseline (no factor)", evaluate(d, ml, 30, 2))
	factors := []struct {
		label string
		f     func(rf.AP, geom.Point) float64
	}{
		{"people ×3 in rooms", sim.PeopleFactor([]geom.Point{
			geom.Pt(12, 12), geom.Pt(35, 18), geom.Pt(25, 32),
		}, 2, 3.5)},
		{"high humidity", sim.HumidityFactor(0.06)},
		{"furniture rearranged", sim.FurnitureFactor([]sim.FurnitureBlob{
			{Center: geom.Pt(15, 25), Radius: 3, LossDB: 5},
			{Center: geom.Pt(40, 10), Radius: 4, LossDB: 4},
		})},
		{"hot hardware (-2 dB)", sim.TemperatureFactor(2)},
	}
	for _, fac := range factors {
		d.env.SetExtraLoss(fac.f)
		printReport(w, fac.label, evaluate(d, ml, 30, 2))
	}
	d.env.SetExtraLoss(nil)
	fmt.Fprintln(w, "factors perturb the working phase only: the training map goes stale,")
	fmt.Fprintln(w, "which is exactly the sensitivity §6.1 proposes to study")
	return nil
}

// runA8 sweeps the samples-per-training-point budget: the paper used
// 1.5 minutes (~90 sweeps) and averaged.
func runA8(w io.Writer, _ string) error {
	for _, sweeps := range []int{3, 10, 30, 90, 180} {
		d, err := buildDataset(sim.PaperHouse(), sweeps, 1)
		if err != nil {
			return err
		}
		ml, err := buildLocator(core.AlgoProbabilistic, d.db, core.BuildConfig{})
		if err != nil {
			return err
		}
		label := fmt.Sprintf("%3d sweeps/pt (%.1f min)", sweeps, float64(sweeps)/60)
		printReport(w, label, evaluate(d, ml, 30, 2))
	}
	return nil
}
