package repl

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"testing"

	"indoorloc/internal/geom"
	"indoorloc/internal/trainingdb"
)

// replTestDB builds a synthetic training database with the awkward
// cases the resume blob exists for: σ=0 cells (every sample equal,
// which Compile clamps), single-sample cells, and entries that miss
// some APs entirely.
func replTestDB() *trainingdb.DB {
	db := &trainingdb.DB{Entries: make(map[string]*trainingdb.Entry)}
	for i := 0; i < 9; i++ {
		name := fmt.Sprintf("g%d", i)
		pos := geom.Point{X: float64(i%3) * 20, Y: float64(i/3) * 20}
		e := &trainingdb.Entry{Name: name, Pos: pos, PerAP: make(map[string]*trainingdb.APStats)}
		for ap := 0; ap < 3; ap++ {
			if (i+ap)%4 == 3 {
				continue // untrained cell
			}
			s := &trainingdb.APStats{BSSID: fmt.Sprintf("ap%d", ap)}
			samples := 1 + (i+ap)%5
			for k := 0; k < samples; k++ {
				v := -48 - float64(i) - 3*float64(ap)
				if i%3 != 0 { // i%3==0 entries stay σ=0
					v -= float64(k % 2)
				}
				s.AddSample(v)
			}
			e.PerAP[s.BSSID] = s
		}
		db.Entries[name] = e
	}
	db.BSSIDs = []string{"ap0", "ap1", "ap2"}
	return db
}

// compiledEqual asserts two compiled views are byte-identical in every
// field a locator or a fold can observe. Float comparisons go through
// Float64bits: the property is bit equality, not approximation.
func compiledEqual(t *testing.T, label string, a, b *trainingdb.Compiled) {
	t.Helper()
	if a.Generation != b.Generation {
		t.Errorf("%s: generation %d != %d", label, a.Generation, b.Generation)
	}
	if a.FloorRSSI != b.FloorRSSI || a.FloorSigma != b.FloorSigma {
		t.Errorf("%s: floor (%v,%v) != (%v,%v)", label, a.FloorRSSI, a.FloorSigma, b.FloorRSSI, b.FloorSigma)
	}
	if len(a.Names) != len(b.Names) || len(a.BSSIDs) != len(b.BSSIDs) {
		t.Fatalf("%s: dimensions %dx%d != %dx%d", label, len(a.Names), len(a.BSSIDs), len(b.Names), len(b.BSSIDs))
	}
	for i := range a.Names {
		if a.Names[i] != b.Names[i] {
			t.Fatalf("%s: name[%d] %q != %q", label, i, a.Names[i], b.Names[i])
		}
		if a.Pos[i] != b.Pos[i] {
			t.Errorf("%s: pos[%d] %v != %v", label, i, a.Pos[i], b.Pos[i])
		}
	}
	for j := range a.BSSIDs {
		if a.BSSIDs[j] != b.BSSIDs[j] {
			t.Fatalf("%s: bssid[%d] %q != %q", label, j, a.BSSIDs[j], b.BSSIDs[j])
		}
	}
	mats := []struct {
		name string
		a, b []float64
	}{
		{"UnheardLL", a.UnheardLL, b.UnheardLL},
		{"SignalBase", a.SignalBase, b.SignalBase},
	}
	for _, m := range mats {
		if len(m.a) != len(m.b) {
			t.Fatalf("%s: %s length %d != %d", label, m.name, len(m.a), len(m.b))
		}
		for i := range m.a {
			if math.Float64bits(m.a[i]) != math.Float64bits(m.b[i]) {
				t.Fatalf("%s: %s[%d] bits %x != %x (%v vs %v)",
					label, m.name, i, math.Float64bits(m.a[i]), math.Float64bits(m.b[i]), m.a[i], m.b[i])
			}
		}
	}
	if !slices.Equal(a.PostN, b.PostN) {
		t.Fatalf("%s: posting counts %v != %v", label, a.PostN, b.PostN)
	}
	if !slices.Equal(a.PostStart, b.PostStart) || len(a.Post) != len(b.Post) {
		t.Fatalf("%s: posting starts %v != %v", label, a.PostStart, b.PostStart)
	}
	for i, p := range a.Post {
		q := b.Post[i]
		if p.Entry != q.Entry || math.Float32bits(p.Center) != math.Float32bits(q.Center) ||
			math.Float32bits(p.HalfPrec) != math.Float32bits(q.HalfPrec) || math.Float32bits(p.Const) != math.Float32bits(q.Const) {
			t.Fatalf("%s: posting %d %+v != %+v", label, i, p, q)
		}
	}
}

// TestResumeRoundTrip bootstraps a replica the way a follower does —
// from the encoded artifact plus the resume blob — and checks it
// compiles back to the trainer's view bit for bit.
func TestResumeRoundTrip(t *testing.T) {
	db := replTestDB()
	master := db.Compile(-95, 2)
	artifact, err := trainingdb.EncodeCompiled(master)
	if err != nil {
		t.Fatal(err)
	}
	c, err := trainingdb.DecodeCompiled(artifact, trainingdb.DecodeOptions{VerifyCRC: true})
	if err != nil {
		t.Fatal(err)
	}
	blob, err := EncodeResume(master, db)
	if err != nil {
		t.Fatal(err)
	}
	cells, err := DecodeResume(blob, c)
	if err != nil {
		t.Fatal(err)
	}
	replica, err := BuildReplica(c, cells)
	if err != nil {
		t.Fatal(err)
	}
	compiledEqual(t, "bootstrap", c, replica.Compile(-95, 2))
}

func TestDecodeResumeValidation(t *testing.T) {
	db := replTestDB()
	c := db.Compile(-95, 2)
	blob, err := EncodeResume(c, db)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		mutate func([]byte) []byte
		want   error
	}{
		{"bad magic", func(b []byte) []byte { b[0] ^= 0xFF; return b }, ErrResumeMagic},
		{"short header", func(b []byte) []byte { return b[:12] }, ErrResumeMagic},
		{"retired σ-only format", func(b []byte) []byte { copy(b, "ILRSIGM1"); return b }, ErrResumeRetired},
		{"retired entry-major format", func(b []byte) []byte { copy(b, "ILRCELL2"); return b }, ErrResumeRetired},
		{"truncated", func(b []byte) []byte { return b[:len(b)-4] }, ErrResumeShape},
		{"one cell short", func(b []byte) []byte { return b[:len(b)-16] }, ErrResumeShape},
		{"extra bytes", func(b []byte) []byte { return append(b, 0, 0, 0, 0, 0, 0, 0, 0) }, ErrResumeShape},
		{"wrong dims", func(b []byte) []byte { b[8]++; return b }, ErrResumeShape},
		{"wrong count", func(b []byte) []byte { b[16]++; return b }, ErrResumeShape},
	} {
		bad := tc.mutate(append([]byte(nil), blob...))
		if _, err := DecodeResume(bad, c); !errors.Is(err, tc.want) {
			t.Errorf("%s: err %v, want %v", tc.name, err, tc.want)
		}
	}
}

// TestReplicaFoldsBitIdentical is the core replication property at the
// unit level: a replica reconstructed from artifact + resume blob,
// folding the same reports in the same order as the master, compiles
// to byte-identical matrices after every single fold — σ=0 clamp
// cases, brand-new entries, and brand-new APs included.
func TestReplicaFoldsBitIdentical(t *testing.T) {
	master := replTestDB()
	c := master.Compile(-95, 2)
	blob, err := EncodeResume(c, master)
	if err != nil {
		t.Fatal(err)
	}
	cells, err := DecodeResume(blob, c)
	if err != nil {
		t.Fatal(err)
	}
	replica, err := BuildReplica(c, cells)
	if err != nil {
		t.Fatal(err)
	}

	folds := []struct {
		name string
		pos  geom.Point
		obs  map[string]float64
	}{
		{"g0", geom.Point{}, map[string]float64{"ap0": -48}},   // σ=0 cell gains an equal sample: stays σ=0
		{"g0", geom.Point{}, map[string]float64{"ap0": -50.5}}, // σ=0 cell diverges
		{"g4", geom.Point{X: 20, Y: 20}, map[string]float64{"ap1": -61.25, "ap2": -70}},
		{"g2", geom.Point{X: 40}, map[string]float64{"ap2": -80}},                         // possibly untrained cell founds stats
		{"annex", geom.Point{X: 99, Y: 99}, map[string]float64{"ap0": -77, "apNEW": -81}}, // new entry + new AP
		{"annex", geom.Point{X: 99, Y: 99}, map[string]float64{"apNEW": -81}},             // reinforce, σ=0 path again
	}
	for i, f := range folds {
		master.Fold(f.name, f.pos, f.obs)
		replica.Fold(f.name, f.pos, f.obs)
		compiledEqual(t, fmt.Sprintf("after fold %d", i),
			master.Compile(-95, 2), replica.Compile(-95, 2))
	}
}

func TestEncodeResumeMissingCell(t *testing.T) {
	db := replTestDB()
	c := db.Compile(-95, 2)
	delete(db.Entries["g0"].PerAP, "ap0")
	if _, err := EncodeResume(c, db); err == nil {
		t.Error("missing cell not detected")
	}
	delete(db.Entries, "g1")
	if _, err := EncodeResume(c, db); err == nil {
		t.Error("missing entry not detected")
	}
}
