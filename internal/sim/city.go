package sim

import (
	"fmt"
	"os"
	"path/filepath"

	"indoorloc/internal/geom"
	"indoorloc/internal/rf"
	"indoorloc/internal/trainingdb"
)

// CityConfig sizes a synthetic city: Campuses buildings of Floors
// floors each, every floor an independent venue with its own radio
// map. The city is the scale fixture for multi-venue serving — a
// thousand small venues stress the registry's lazy load, LRU budget
// and eviction machinery the way one big venue never could.
type CityConfig struct {
	// Campuses × Floors venues are generated.
	Campuses int
	Floors   int
	// Seed makes the city reproducible; venue i's scanner derives its
	// stream from Seed and i.
	Seed int64
	// Sweeps per training point (default 3 — enough for stable means,
	// cheap enough that generating 1000 venues stays in seconds).
	Sweeps int
}

func (c CityConfig) withDefaults() CityConfig {
	if c.Campuses <= 0 {
		c.Campuses = 1
	}
	if c.Floors <= 0 {
		c.Floors = 1
	}
	if c.Sweeps <= 0 {
		c.Sweeps = 3
	}
	return c
}

// Venues returns the venue count, Campuses × Floors.
func (c CityConfig) Venues() int {
	c = c.withDefaults()
	return c.Campuses * c.Floors
}

// VenueID names campus ca, floor fl: "campus-007-floor-2". The ids
// satisfy venue.ValidID and sort lexically in campus/floor order.
func VenueID(campus, floor int) string {
	return fmt.Sprintf("campus-%03d-floor-%d", campus, floor)
}

// VenueIDs lists every venue id in the city, campus-major.
func (c CityConfig) VenueIDs() []string {
	c = c.withDefaults()
	out := make([]string, 0, c.Campuses*c.Floors)
	for ca := 0; ca < c.Campuses; ca++ {
		for fl := 0; fl < c.Floors; fl++ {
			out = append(out, VenueID(ca, fl))
		}
	}
	return out
}

// CityScenario builds the deterministic per-venue scenario: a small
// floor (the footprint varies with the campus so artifacts differ in
// size), four corner APs whose BSSIDs encode campus and floor (no two
// venues share a BSSID — a capture from one venue is meaningless in
// another, as in reality), and mild shadowing so the maps stay
// distinguishable at 3 sweeps.
func CityScenario(campus, floor int) Scenario {
	w := 40 + float64(campus%3)*10 // 40, 50 or 60 ft wide
	h := 30.0
	bs := func(last byte) string {
		return fmt.Sprintf("02:%02x:%02x:00:00:%02x", byte(campus), byte(floor), last)
	}
	return Scenario{
		Name:    VenueID(campus, floor),
		Outline: geom.RectWH(0, 0, w, h),
		APs: []rf.AP{
			{BSSID: bs(0x0a), SSID: "city", Pos: geom.Pt(0, 0), TxPower: -30, Channel: 1},
			{BSSID: bs(0x0b), SSID: "city", Pos: geom.Pt(w, 0), TxPower: -30, Channel: 6},
			{BSSID: bs(0x0c), SSID: "city", Pos: geom.Pt(w, h), TxPower: -30, Channel: 11},
			{BSSID: bs(0x0d), SSID: "city", Pos: geom.Pt(0, h), TxPower: -30, Channel: 1},
		},
		GridSpacing: 10,
		Radio:       rf.Config{ShadowSigma: 3, ShadowCell: 10},
	}
}

// BuildVenueDB trains one venue's database: capture cfg.Sweeps sweeps
// at every grid point of the venue's scenario and generate the DB.
func (c CityConfig) BuildVenueDB(campus, floor int) (*trainingdb.DB, error) {
	c = c.withDefaults()
	s := CityScenario(campus, floor)
	env, err := s.Environment()
	if err != nil {
		return nil, fmt.Errorf("sim: city venue %s: %w", s.Name, err)
	}
	pts, err := s.TrainingPoints()
	if err != nil {
		return nil, fmt.Errorf("sim: city venue %s: %w", s.Name, err)
	}
	idx := int64(campus*1000 + floor)
	sc := NewScanner(env, c.Seed+idx)
	col := sc.CaptureCollection(pts, c.Sweeps)
	db, _, err := trainingdb.Generate(col, pts, trainingdb.Options{})
	if err != nil {
		return nil, fmt.Errorf("sim: city venue %s: %w", s.Name, err)
	}
	return db, nil
}

// WriteArtifacts emits the whole city into dir as v2
// artifacts (<venue-id>.ilr), the layout venue.Registry serves from,
// and returns the venue ids written. Floor-model parameters match
// tdbtool compile's defaults (-95 dBm floor, σ 4).
func WriteArtifacts(dir string, cfg CityConfig) ([]string, error) {
	cfg = cfg.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("sim: city dir: %w", err)
	}
	ids := make([]string, 0, cfg.Campuses*cfg.Floors)
	for ca := 0; ca < cfg.Campuses; ca++ {
		for fl := 0; fl < cfg.Floors; fl++ {
			db, err := cfg.BuildVenueDB(ca, fl)
			if err != nil {
				return nil, err
			}
			comp := db.Compile(-95, 4)
			id := VenueID(ca, fl)
			if err := trainingdb.WriteCompiledFile(filepath.Join(dir, id+".ilr"), comp); err != nil {
				return nil, fmt.Errorf("sim: city venue %s: %w", id, err)
			}
			ids = append(ids, id)
		}
	}
	return ids, nil
}
