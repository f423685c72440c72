// Roomfinder: the paper's motivating scenario — "a conference attender
// can download the corresponding material based on the meeting room he
// or she is located" — over a custom office floor with named rooms.
//
// The example builds its own scenario (not the paper house): a
// 90×60 ft office wing with six APs and room-level training, then
// resolves a visitor's observation to a room name and "serves" the
// right agenda.
//
//	go run ./examples/roomfinder
package main

import (
	"fmt"
	"log"

	"indoorloc"
	"indoorloc/internal/geom"
	"indoorloc/internal/locmap"
	"indoorloc/internal/rf"
	"indoorloc/internal/sim"
)

// agenda maps rooms to the material a location-aware app would serve.
var agenda = map[string]string{
	"meeting room A": "09:00 Toolkit architectures for localization",
	"meeting room B": "09:00 RF propagation for the working engineer",
	"lecture hall":   "10:30 Keynote: the pervasive computing vision",
	"lounge":         "coffee, unstructured hallway track",
	"lab 1":          "hands-on: wardriving your own building",
	"lab 2":          "hands-on: training database surgery",
}

func main() {
	scen := sim.Scenario{
		Name:    "office wing",
		Outline: geom.RectWH(0, 0, 90, 60),
		APs: []rf.AP{
			{BSSID: "00:30:ab:00:00:01", SSID: "office", Pos: geom.Pt(0, 0), TxPower: -30, Channel: 1},
			{BSSID: "00:30:ab:00:00:02", SSID: "office", Pos: geom.Pt(90, 0), TxPower: -30, Channel: 6},
			{BSSID: "00:30:ab:00:00:03", SSID: "office", Pos: geom.Pt(90, 60), TxPower: -30, Channel: 11},
			{BSSID: "00:30:ab:00:00:04", SSID: "office", Pos: geom.Pt(0, 60), TxPower: -30, Channel: 1},
			{BSSID: "00:30:ab:00:00:05", SSID: "office", Pos: geom.Pt(45, 0), TxPower: -30, Channel: 6},
			{BSSID: "00:30:ab:00:00:06", SSID: "office", Pos: geom.Pt(45, 60), TxPower: -30, Channel: 11},
		},
		Walls: []geom.Segment{
			geom.Seg(geom.Pt(30, 0), geom.Pt(30, 40)),
			geom.Seg(geom.Pt(60, 20), geom.Pt(60, 60)),
			geom.Seg(geom.Pt(0, 40), geom.Pt(20, 40)),
		},
		GridSpacing: 10,
		Radio:       rf.Config{ShadowSigma: 4, ShadowCell: 12, Seed: 7},
	}
	env, err := scen.Environment()
	if err != nil {
		log.Fatal(err)
	}

	// Room-level training: one named location at each room's centre,
	// the way the Floor Plan Processor's "add location names" is meant
	// to be used — the application wants rooms, not coordinates.
	rooms := locmap.New()
	for name, centre := range map[string]geom.Point{
		"meeting room A": geom.Pt(15, 20),
		"meeting room B": geom.Pt(15, 50),
		"lecture hall":   geom.Pt(45, 30),
		"lounge":         geom.Pt(45, 50),
		"lab 1":          geom.Pt(75, 10),
		"lab 2":          geom.Pt(75, 45),
	} {
		if err := rooms.Add(name, centre); err != nil {
			log.Fatal(err)
		}
	}
	scanner := sim.NewScanner(env, 99)
	service, _, err := (&indoorloc.Pipeline{
		Collection: scanner.CaptureCollection(rooms, 60),
		LocMap:     rooms,
	}).Train()
	if err != nil {
		log.Fatal(err)
	}

	// Visitors wander in; the app resolves each to a room and serves
	// the room's material.
	visitors := []struct {
		who string
		at  geom.Point
	}{
		{"alice", geom.Pt(13, 23)}, // meeting room A
		{"bob", geom.Pt(48, 33)},   // lecture hall
		{"carol", geom.Pt(72, 42)}, // lab 2
		{"dave", geom.Pt(44, 53)},  // lounge
		{"erin", geom.Pt(78, 8)},   // lab 1
		{"frank", geom.Pt(16, 47)}, // meeting room B
	}
	// The room index answers "which room centre is closest" — the
	// ground truth each visitor's answer is scored against.
	roomIndex := rooms.Index()
	correct := 0
	for _, v := range visitors {
		res, err := service.LocateRecords(scanner.Capture(v.at, 15, 0))
		if err != nil {
			log.Fatal(err)
		}
		room := res.Estimate.Name
		fmt.Printf("%-6s at %v → %q: %s\n", v.who, v.at, room, agenda[room])
		if want, _, _ := roomIndex.Nearest(v.at); want == room {
			correct++
		}
	}
	fmt.Printf("\n%d/%d visitors resolved to the right room\n", correct, len(visitors))
}
