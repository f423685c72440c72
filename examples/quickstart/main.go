// Quickstart: train the toolkit on the paper's experiment house and
// locate a user, end to end, in about fifty lines.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"indoorloc"
	"indoorloc/internal/sim"
)

func main() {
	// Phase 1 — training. The simulator stands in for walking a real
	// house with a scanning laptop: the paper's 50×40 ft floor, four
	// corner APs, and 90 scan sweeps (~1.5 minutes) at every
	// training-grid point.
	scen := sim.PaperHouse()
	env, err := scen.Environment()
	if err != nil {
		log.Fatal(err)
	}
	grid, err := scen.TrainingPoints()
	if err != nil {
		log.Fatal(err)
	}
	scanner := sim.NewScanner(env, 42)
	collection := scanner.CaptureCollection(grid, 90)

	pipeline := &indoorloc.Pipeline{
		Collection:  collection,
		LocMap:      grid,
		Algorithm:   indoorloc.AlgoProbabilistic,
		APPositions: scen.APPositions(),
	}
	service, trace, err := pipeline.Train()
	if err != nil {
		log.Fatal(err)
	}
	for _, step := range trace {
		fmt.Println(step)
	}

	// Phase 2 — working. Observe for a few seconds somewhere in the
	// house and ask where we are.
	here := scen.TestPoints[5] // (25, 20): the centre of the house
	window := scanner.Capture(here, 30, 0)
	res, err := service.LocateRecords(window)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ntrue position      %v\n", here)
	fmt.Printf("estimated position %v\n", res.Estimate.Pos)
	fmt.Printf("resolved name      %q\n", res.NearestName)
	fmt.Printf("error              %.1f ft\n", res.Estimate.Pos.Dist(here))

	// The same observation through the paper's geometric approach,
	// trained from the same captures.
	pipeline.Algorithm = indoorloc.AlgoGeometric
	geo, _, err := pipeline.Train()
	if err != nil {
		log.Fatal(err)
	}
	est, err := geo.Locator.Locate(indoorloc.ObservationFromRecords(window))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ngeometric estimate %v (error %.1f ft)\n", est.Pos, est.Pos.Dist(here))
}
