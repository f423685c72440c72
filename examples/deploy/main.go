// Deploy: plan a brand-new installation end to end — choose AP
// positions with the placement optimizer, render the predicted
// coverage, then survey, train and evaluate the resulting location
// service, all before touching a screwdriver.
//
// The scenario is a long, wall-divided 80×30 ft clinic corridor where
// naive corner placement leaves dead fingerprints.
//
//	go run ./examples/deploy
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"

	"indoorloc"
	"indoorloc/internal/compositor"
	"indoorloc/internal/eval"
	"indoorloc/internal/geom"
	"indoorloc/internal/localize"
	"indoorloc/internal/place"
	"indoorloc/internal/rf"
	"indoorloc/internal/sim"
	"indoorloc/internal/units"
)

func main() {
	outline := geom.RectWH(0, 0, 80, 30)
	walls := []geom.Segment{
		geom.Seg(geom.Pt(20, 0), geom.Pt(20, 20)),
		geom.Seg(geom.Pt(40, 10), geom.Pt(40, 30)),
		geom.Seg(geom.Pt(60, 0), geom.Pt(60, 20)),
	}

	// 1. Choose 4 AP positions for fingerprint distinguishability over
	//    the survey grid the clinic will train on.
	samples := place.GridCandidates(outline, 10)
	prob := &place.Problem{
		Candidates: place.GridCandidates(outline, 5),
		Samples:    samples,
		Walls:      walls,
		Objective:  place.Distinguishability,
	}
	pick, err := place.Greedy(prob, 4)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("placement:", pick.Describe())
	cornerScore, err := place.Evaluate(prob, []geom.Point{
		geom.Pt(0, 0), geom.Pt(80, 0), geom.Pt(80, 30), geom.Pt(0, 30),
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("corner layout would score %.1f vs optimizer's %.1f\n", cornerScore, pick.Score)

	// 2. Render predicted coverage for the first chosen AP.
	plan, err := compositor.Blueprint("clinic corridor", compositor.BlueprintSpec{
		Outline: outline, Walls: walls, Title: "CLINIC",
	})
	if err != nil {
		log.Fatal(err)
	}
	for i, pos := range pick.Positions {
		px, err := plan.ToPixel(pos)
		if err != nil {
			log.Fatal(err)
		}
		plan.AddAP(fmt.Sprintf("ap%d", i), px)
	}
	model := rf.DefaultLogDistance()
	ap0 := pick.Positions[0]
	canvas, err := compositor.RenderHeatmap(plan, compositor.Heatmap{
		Field: func(p geom.Point) float64 {
			w := geom.CrossingCount(ap0, p, walls)
			return float64(model.MeanRSSI(units.DBm(-30), ap0.Dist(p), w))
		},
		Lo: -95, Hi: -40, CellFeet: 1, Area: outline,
	})
	if err != nil {
		log.Fatal(err)
	}
	dir, err := os.MkdirTemp("", "deploy-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	heatPath := filepath.Join(dir, "coverage-ap0.gif")
	if err := canvas.SaveGIF(heatPath); err != nil {
		log.Fatal(err)
	}
	fmt.Println("coverage heatmap:", heatPath)

	// 3. Survey and train on the planned deployment.
	scen := sim.Scenario{
		Name:        "clinic corridor",
		Outline:     outline,
		Walls:       walls,
		GridSpacing: 10,
		Radio:       rf.Config{ShadowSigma: 4, ShadowCell: 12, Seed: 17},
	}
	for i, pos := range pick.Positions {
		scen.APs = append(scen.APs, rf.AP{
			BSSID:   fmt.Sprintf("0a:00:00:00:00:%02x", i),
			SSID:    "clinic",
			Pos:     pos,
			TxPower: -30,
			Channel: 1 + 5*(i%3),
		})
	}
	env, err := scen.Environment()
	if err != nil {
		log.Fatal(err)
	}
	grid, err := scen.TrainingPoints()
	if err != nil {
		log.Fatal(err)
	}
	scanner := sim.NewScanner(env, 55)
	service, _, err := (&indoorloc.Pipeline{
		Collection: scanner.CaptureCollection(grid, 60),
		LocMap:     grid,
	}).Train()
	if err != nil {
		log.Fatal(err)
	}

	// 4. Acceptance test: localize at spots the clinic cares about,
	// scored against the nearest training point's name.
	gridIndex := grid.Index()
	report := &eval.Report{}
	for _, spot := range []geom.Point{
		geom.Pt(10, 15), geom.Pt(30, 8), geom.Pt(50, 22), geom.Pt(70, 12), geom.Pt(44, 28),
	} {
		obs := localize.ObservationFromRecords(scanner.Capture(spot, 20, 0))
		trial := eval.Trial{True: spot}
		if want, _, ok := gridIndex.Nearest(spot); ok {
			trial.WantName = want
		}
		res, err := service.Locate(obs)
		if err != nil {
			trial.Err = err
		} else {
			trial.Est = res.Estimate.Pos
			trial.EstName = res.Estimate.Name
			radius := localize.ConfidenceRadius(res.Estimate, 0.9)
			fmt.Printf("  %v → %q %v (90%% confidence within %.0f ft)\n",
				spot, res.NearestName, res.Estimate.Pos, radius)
		}
		report.Add(trial)
	}
	fmt.Printf("acceptance: %s\n", report.String())
}
