package main

import (
	"bytes"
	"math"
	"slices"
	"strings"
	"testing"

	"indoorloc/internal/core"
)

// The paper's results are the specification: a change that moves any
// of these numbers must update the golden value and say why. The
// experiments already run at test size (the whole suite takes seconds),
// so the goldens pin the full-size figures that EXPERIMENTS.md reports.

// goldenR51Valid is R5.1's probabilistic valid-estimation count out of
// 13 per house seed (seedReports(core.AlgoProbabilistic)).
var goldenR51Valid = [20]int{
	11, // seed 1
	7,  // seed 2
	9,  // seed 3
	7,  // seed 4
	10, // seed 5
	7,  // seed 6
	5,  // seed 7
	7,  // seed 8
	5,  // seed 9
	9,  // seed 10
	7,  // seed 11
	5,  // seed 12
	6,  // seed 13
	6,  // seed 14
	6,  // seed 15
	9,  // seed 16
	5,  // seed 17
	5,  // seed 18
	7,  // seed 19
	8,  // seed 20
}

// goldenR52Mean is R5.2's geometric mean deviation in feet per house
// seed (seedReports(core.AlgoGeometric): median combiner,
// inverse-square basis).
var goldenR52Mean = [20]float64{
	12.986386419247546, // seed 1
	15.454261660995288, // seed 2
	12.995341064379069, // seed 3
	16.827066724705677, // seed 4
	15.350578063322171, // seed 5
	14.942601966733974, // seed 6
	14.060457971499488, // seed 7
	17.995196135728463, // seed 8
	17.904678398270743, // seed 9
	13.9612043013801,   // seed 10
	14.98997433487606,  // seed 11
	15.972262995293288, // seed 12
	20.398553302878447, // seed 13
	14.194773829332966, // seed 14
	14.627051302954584, // seed 15
	20.725144621047228, // seed 16
	11.821577983811757, // seed 17
	10.248529641471997, // seed 18
	12.460838295970497, // seed 19
	13.047637040412859, // seed 20
}

func TestGoldenHeadlineResults(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-seed experiment sweep")
	}
	prob, err := seedReports(core.AlgoProbabilistic)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range prob {
		if got, want := r.ValidRate(), float64(goldenR51Valid[i])/13; math.Abs(got-want) > 1e-12 {
			t.Errorf("R5.1 seed %d: valid rate %v, golden %d/13", i+1, got, goldenR51Valid[i])
		}
	}
	geom, err := seedReports(core.AlgoGeometric)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range geom {
		if got, want := r.MeanError(), goldenR52Mean[i]; math.Abs(got-want) > 1e-12*want {
			t.Errorf("R5.2 seed %d: mean deviation %v ft, golden %v", i+1, got, want)
		}
	}
}

// goldenAblations pins one headline line of each ablation's output;
// it must appear verbatim in that ablation's block.
var goldenAblations = []struct{ exp, line string }{
	// A1: RADAR kNN at k=3 on the paper house, seed 1.
	{"a1", "knn k=3                    valid=  0.0%  mean=  6.3 ft  median=  5.5 ft  p90= 12.6 ft  within10= 76.9%"},
	// A2: probabilistic ML on the densest (5 ft) training grid.
	{"a2", "spacing  5 ft (99 pts)     valid= 61.5%  mean=  3.4 ft  median=  2.8 ft  p90=  6.5 ft  within10= 92.3%"},
	// A3: probabilistic ML at 2.5 dB fast-fading noise.
	{"a3", "prob  σfast=2.5 dB         valid= 30.8%  mean=  9.3 ft  median=  8.2 ft  p90= 14.8 ft  within10= 76.9%"},
	// A4: probabilistic ML with the paper's four APs plus two extras.
	{"a4", "prob  6 APs                valid= 76.9%  mean=  4.3 ft  median=  4.2 ft  p90=  6.3 ft  within10=100.0%"},
	// A5: RTS smoother over the probabilistic walk estimates.
	{"a5", "filter rts-smoother        valid=  0.0%  mean=  4.1 ft  median=  4.3 ft  p90=  6.0 ft  within10=100.0%"},
	// A6: UWB time-of-arrival ranging through the geometric solver.
	{"a6", "UWB time-of-arrival        valid=  0.0%  mean=  0.1 ft  median=  0.1 ft  p90=  0.1 ft  within10=100.0%"},
	// A7: probabilistic ML observed under high humidity.
	{"a7", "high humidity              valid= 53.8%  mean=  8.1 ft  median=  6.4 ft  p90= 19.4 ft  within10= 76.9%"},
	// A8: probabilistic ML trained on 30 sweeps per point.
	{"a8", " 30 sweeps/pt (0.5 min)    valid= 69.2%  mean=  5.6 ft  median=  4.2 ft  p90=  6.7 ft  within10= 92.3%"},
	// A9: geometric approach with the log-distance (RADAR) basis.
	{"a9", "log-distance (RADAR)       valid=  0.0%  mean= 10.4 ft  median= 10.5 ft  p90= 16.4 ft  within10= 46.2%"},
	// A10: sector baseline with a -62 dBm audibility floor.
	{"a10", "sector, -62 dBm floor      valid=  0.0%  mean= 13.7 ft  median= 14.5 ft  p90= 21.9 ft  within10= 46.2%"},
	// A11: probabilistic ML observed 3 h after training under TxPower drift.
	{"a11", "observe 3.0 h after training valid= 46.2%  mean=  9.6 ft  median=  6.7 ft  p90= 19.4 ft  within10= 61.5%"},
	// A12: posterior-mean position instead of the argmax.
	{"a12", "posterior mean             valid= 76.9%  mean=  4.9 ft  median=  4.3 ft  p90=  6.6 ft  within10= 92.3%"},
	// A13: greedy-coverage AP placement.
	{"a13", "greedy coverage            valid= 76.9%  mean=  5.7 ft  median=  5.0 ft  p90=  8.0 ft  within10= 92.3%"},
	// A14: KS drift alarm on the first AP at the 3 h antinode.
	{"a14", "  t=3.0 h: 00:02:2d:00:00:0a drifted (KS 0.53 > 0.23, mean shift -3.1 dB)"},
	// A15: hybrid blend's mean error over 8 seeds.
	{"a15", "  hybrid           6.8 ft"},
	// A16: probabilistic room-level accuracy via polygons.
	{"a16", "probabilistic  room-level accuracy 11/13 (85%)"},
}

func TestGoldenAblations(t *testing.T) {
	if testing.Short() {
		t.Skip("full ablation sweep")
	}
	args := []string{"-out", t.TempDir()}
	for _, g := range goldenAblations {
		args = append(args, "-exp", g.exp)
	}
	var out bytes.Buffer
	if err := run(args, &out); err != nil {
		t.Fatal(err)
	}
	// Split the output per experiment so each golden line is looked up
	// only in its own ablation's block.
	blocks := map[string][]string{}
	var cur string
	for _, line := range strings.Split(out.String(), "\n") {
		if rest, ok := strings.CutPrefix(line, "=== "); ok {
			cur, _, _ = strings.Cut(rest, ":")
			continue
		}
		blocks[cur] = append(blocks[cur], line)
	}
	for _, g := range goldenAblations {
		if !slices.Contains(blocks[g.exp], g.line) {
			t.Errorf("%s: golden line missing:\n  want %q\n  in\n%s", g.exp, g.line, strings.Join(blocks[g.exp], "\n"))
		}
	}
}
