package sim

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"indoorloc/internal/trainingdb"
)

func TestCityVenueIDs(t *testing.T) {
	cfg := CityConfig{Campuses: 3, Floors: 2}
	if n := cfg.Venues(); n != 6 {
		t.Fatalf("Venues() = %d, want 6", n)
	}
	ids := cfg.VenueIDs()
	if len(ids) != 6 {
		t.Fatalf("%d ids, want 6", len(ids))
	}
	seen := map[string]bool{}
	for _, id := range ids {
		if seen[id] {
			t.Errorf("duplicate id %s", id)
		}
		seen[id] = true
	}
	if ids[0] != "campus-000-floor-0" || ids[5] != "campus-002-floor-1" {
		t.Errorf("id order: %v", ids)
	}
	// Defaults: the zero config is one venue.
	if (CityConfig{}).Venues() != 1 {
		t.Error("zero config is not one venue")
	}
}

// TestCityBSSIDsDisjoint checks the realism property the soak relies
// on: no two venues share an AP, so an observation captured in one
// venue carries no signal about another.
func TestCityBSSIDsDisjoint(t *testing.T) {
	seen := map[string]string{}
	for ca := 0; ca < 3; ca++ {
		for fl := 0; fl < 3; fl++ {
			s := CityScenario(ca, fl)
			for _, ap := range s.APs {
				if prev, dup := seen[ap.BSSID]; dup {
					t.Fatalf("BSSID %s appears in both %s and %s", ap.BSSID, prev, s.Name)
				}
				seen[ap.BSSID] = s.Name
			}
		}
	}
}

// TestCityDeterministic: same seed, same city — byte-identical
// artifacts, so a regenerated fixture never silently changes a
// benchmark's workload.
func TestCityDeterministic(t *testing.T) {
	cfg := CityConfig{Campuses: 2, Floors: 1, Seed: 42}
	dirA, dirB := filepath.Join(t.TempDir(), "a"), filepath.Join(t.TempDir(), "b")
	idsA, err := WriteArtifacts(dirA, cfg)
	if err != nil {
		t.Fatal(err)
	}
	idsB, err := WriteArtifacts(dirB, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(idsA) != 2 || len(idsB) != 2 {
		t.Fatalf("wrote %d and %d venues, want 2", len(idsA), len(idsB))
	}
	for _, id := range idsA {
		a, err := os.ReadFile(filepath.Join(dirA, id+".ilr"))
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(filepath.Join(dirB, id+".ilr"))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Errorf("venue %s: two runs with seed %d differ", id, cfg.Seed)
		}
		// The artifact decodes as a serving map.
		c, err := trainingdb.DecodeCompiled(a, trainingdb.DecodeOptions{VerifyCRC: true})
		if err != nil {
			t.Fatalf("venue %s: %v", id, err)
		}
		if c.NumEntries() == 0 || len(c.Post) == 0 {
			t.Errorf("venue %s shape: %d entries, %d postings", id, c.NumEntries(), len(c.Post))
		}
	}
	// Different campuses get different footprints, hence different
	// artifact sizes — the property the LRU budget tests lean on.
	a0, _ := os.Stat(filepath.Join(dirA, idsA[0]+".ilr"))
	a1, _ := os.Stat(filepath.Join(dirA, idsA[1]+".ilr"))
	if a0.Size() == a1.Size() {
		t.Errorf("campus 0 and 1 artifacts are both %d bytes; footprints should differ", a0.Size())
	}
}
