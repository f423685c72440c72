package trainingdb

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"indoorloc/internal/geom"
)

// patchDB draws a small random database: up to 8 entries over up to 6
// APs, each entry trained on a random subset of them.
func patchDB(rng *rand.Rand) *DB {
	db := &DB{Entries: map[string]*Entry{}}
	nAP := 1 + rng.Intn(6)
	for j := 0; j < nAP; j++ {
		db.BSSIDs = append(db.BSSIDs, fmt.Sprintf("ap:%02d", j))
	}
	for i, nE := 0, 1+rng.Intn(8); i < nE; i++ {
		name := fmt.Sprintf("loc-%02d", i)
		db.Fold(name, geom.Pt(float64(i), 0), nil)
		for _, b := range db.BSSIDs {
			if rng.Intn(3) > 0 {
				for n := 1 + rng.Intn(3); n > 0; n-- {
					db.Fold(name, geom.Point{}, map[string]float64{b: -40 - rng.Float64()*50})
				}
			}
		}
	}
	return db
}

// checkPatchScript folds a byte script into a random database,
// publishing where the script says, the way the ingest compactor does:
// each publish patches the previous view with the entries folded since.
// Every patched view must encode to the bytes of a fresh Compile, and
// Patch must decline exactly the publishes after a structural change —
// a new entry, a new BSSID, a new trained cell or a new floor level.
func checkPatchScript(t *testing.T, seed int64, script []byte) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	db := patchDB(rng)
	floor := -95.0
	prev := db.Compile(floor, 4)
	touched := map[string]struct{}{}
	structural := false
	publish := func(step int) {
		t.Helper()
		want, err := EncodeCompiled(db.Compile(floor, 4))
		if err != nil {
			t.Fatal(err)
		}
		c := db.Patch(prev, touched, floor, 4)
		switch {
		case c == nil && !structural:
			t.Fatalf("seed %d step %d: patch declined a fold-only publish", seed, step)
		case c != nil && structural:
			t.Fatalf("seed %d step %d: patch accepted a structural change", seed, step)
		case c == nil:
			c = db.Compile(floor, 4)
		}
		got, err := EncodeCompiled(c)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("seed %d step %d: patched view encodes differently from Compile", seed, step)
		}
		prev, structural = c, false
		clear(touched)
	}
	fold := func(name string, pos geom.Point, obs map[string]float64) {
		db.Fold(name, pos, obs)
		touched[name] = struct{}{}
	}
	for step := 0; len(script) >= 2; step++ {
		op, arg := script[0], int(script[1])
		script = script[2:]
		names := db.Names()
		e := db.Entries[names[arg%len(names)]]
		v := -30 - float64(arg%60) - rng.Float64()
		switch op % 6 {
		case 0, 1: // reinforce up to three of an entry's trained cells
			var heard []string
			for b := range e.PerAP {
				heard = append(heard, b)
			}
			sort.Strings(heard)
			obs := map[string]float64{}
			for k := 0; k < len(heard) && k <= arg%3; k++ {
				obs[heard[(arg+k)%len(heard)]] = v - float64(k)
			}
			if len(obs) > 0 {
				fold(e.Name, geom.Point{}, obs)
			}
		case 2: // a new trained cell on an existing entry
			for _, b := range db.BSSIDs {
				if e.PerAP[b] == nil {
					fold(e.Name, geom.Point{}, map[string]float64{b: v})
					structural = true
					break
				}
			}
		case 3: // a new entry
			name := fmt.Sprintf("new-%03d", step)
			fold(name, geom.Pt(float64(arg), 1), map[string]float64{db.BSSIDs[arg%len(db.BSSIDs)]: v})
			structural = true
		case 4: // a new BSSID heard at an existing entry
			fold(e.Name, geom.Point{}, map[string]float64{fmt.Sprintf("ap:new-%03d", step): v})
			structural = true
		case 5: // publish, one in four at a new floor level
			if arg%4 == 0 {
				next := -90 - float64(arg%10)
				if math.Float64bits(next) != math.Float64bits(floor) {
					floor, structural = next, true
				}
			}
			publish(step)
		}
	}
	publish(-1)
}

// TestPatchMatchesCompile runs random fold scripts through
// checkPatchScript.
func TestPatchMatchesCompile(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for seed := int64(0); seed < 300; seed++ {
		script := make([]byte, 2*(1+rng.Intn(40)))
		rng.Read(script)
		checkPatchScript(t, seed, script)
	}
}

// TestPatchFromDecodedView patches a view decoded from an artifact, as
// a replication follower does after its bootstrap: the patched view
// shares the decoded names, so it must keep the decode buffer pinned
// and still encode to Compile's bytes.
func TestPatchFromDecodedView(t *testing.T) {
	db := patchDB(rand.New(rand.NewSource(7)))
	buf, err := EncodeCompiled(db.Compile(-95, 4))
	if err != nil {
		t.Fatal(err)
	}
	prev, err := DecodeCompiled(buf, DecodeOptions{VerifyCRC: true})
	if err != nil {
		t.Fatal(err)
	}
	name := db.Names()[0]
	touched := map[string]struct{}{name: {}}
	for b := range db.Entries[name].PerAP {
		db.Fold(name, geom.Point{}, map[string]float64{b: -61.5})
	}
	c := db.Patch(prev, touched, -95, 4)
	if c == nil {
		t.Fatal("patch declined a fold-only change")
	}
	if &c.backing[0] != &buf[0] {
		t.Error("patched view does not pin the decode buffer its names alias")
	}
	got, _ := EncodeCompiled(c)
	want, _ := EncodeCompiled(db.Compile(-95, 4))
	if !bytes.Equal(got, want) {
		t.Error("patched decoded view encodes differently from Compile")
	}
}

// FuzzPatchMatchesCompile drives checkPatchScript with fuzzed seeds
// and scripts.
func FuzzPatchMatchesCompile(f *testing.F) {
	f.Add(int64(1), []byte{0, 1, 5, 1, 1, 2, 5, 3})
	f.Add(int64(2), []byte{2, 0, 5, 1, 0, 7, 5, 4})                   // new cell, then a fold-only publish
	f.Add(int64(3), []byte{3, 9, 0, 2, 5, 1, 4, 1, 5, 2})             // new entry, new BSSID
	f.Add(int64(4), []byte{0, 3, 5, 0, 1, 3, 5, 5, 0, 3, 5, 8, 0, 1}) // floor changes
	f.Fuzz(func(t *testing.T, seed int64, script []byte) {
		if len(script) > 512 {
			script = script[:512]
		}
		checkPatchScript(t, seed, script)
	})
}
