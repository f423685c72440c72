package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"indoorloc/internal/ingest"
	"indoorloc/internal/trainingdb"
)

func TestCompileInspectVerify(t *testing.T) {
	dbPath := makeDB(t)
	artifact := filepath.Join(t.TempDir(), "map.ilr")
	var out bytes.Buffer
	if err := run([]string{"compile", "-db", dbPath, "-out", artifact}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "120 postings") {
		t.Errorf("compile output: %q", out.String())
	}

	// The default artifact serves: decode and check the shape.
	c, closeMap, err := trainingdb.OpenCompiledFile(artifact)
	if err != nil {
		t.Fatal(err)
	}
	if c.NumEntries() != 30 || len(c.Post) != 30*c.NumAPs() {
		t.Errorf("artifact shape: %d entries, %d postings", c.NumEntries(), len(c.Post))
	}
	if err := closeMap(); err != nil {
		t.Fatal(err)
	}

	out.Reset()
	if err := run([]string{"inspect", artifact}, &out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"ILRMAPv2", "locations: 30", "post-start", "postings", "post-n"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("inspect output missing %q:\n%s", want, out.String())
		}
	}
	for _, retired := range []string{"mean-q", "quant-factors", "floor-ll", "trained"} {
		if strings.Contains(out.String(), retired) {
			t.Errorf("inspect output lists retired section %q:\n%s", retired, out.String())
		}
	}

	out.Reset()
	if err := run([]string{"verify", artifact}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "OK: 30 locations") {
		t.Errorf("verify output: %q", out.String())
	}

	// Corrupt one payload byte: inspect (header only) still works,
	// verify must fail.
	data, err := os.ReadFile(artifact)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xff
	bad := filepath.Join(t.TempDir(), "bad.ilr")
	if err := os.WriteFile(bad, data, 0o644); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	if err := run([]string{"inspect", bad}, &out); err != nil {
		t.Fatalf("inspect rejected payload corruption it should not read: %v", err)
	}
	if err := run([]string{"verify", bad}, &out); err == nil {
		t.Error("verify accepted a corrupt artifact")
	}
}

// TestInspectStaleManifest pins that inspect prints a manifest
// sidecar's WAL watermark only when the sidecar describes the
// artifact's generation: a sidecar left behind by an older generation
// is named stale instead.
func TestInspectStaleManifest(t *testing.T) {
	db, err := trainingdb.LoadFile(makeDB(t))
	if err != nil {
		t.Fatal(err)
	}
	c := db.Compile(-95, 4)
	c.Generation = 5
	artifact := filepath.Join(t.TempDir(), "map.ilr")
	if err := trainingdb.WriteCompiledFile(artifact, c); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		gen  uint64
		want string
		not  string
	}{
		{4, "wal watermark: stale (manifest is generation 4, artifact generation 5)", "wal watermark: 77"},
		{5, "wal watermark: 77 (epoch", "stale"},
	} {
		raw, err := json.Marshal(ingest.ArtifactManifest{Generation: tc.gen, Watermark: 77, Epoch: 9})
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(artifact+".manifest", raw, 0o644); err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		if err := run([]string{"inspect", artifact}, &out); err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(out.String(), tc.want) || strings.Contains(out.String(), tc.not) {
			t.Errorf("manifest generation %d: inspect output\n%s\nwant %q, not %q", tc.gen, out.String(), tc.want, tc.not)
		}
	}
}

// TestCompileVariants pins compile's floor-model flags: they reach
// the artifact header and the records, over the same trained cells.
func TestCompileVariants(t *testing.T) {
	dbPath := makeDB(t)
	var out bytes.Buffer
	open := func(args ...string) *trainingdb.Compiled {
		t.Helper()
		path := filepath.Join(t.TempDir(), "map.ilr")
		if err := run(append([]string{"compile", "-db", dbPath, "-out", path}, args...), &out); err != nil {
			t.Fatal(err)
		}
		c, closeMap, err := trainingdb.OpenCompiledFile(path)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { closeMap() })
		return c
	}
	def := open()
	tuned := open("-floor", "-90", "-floor-sigma", "6")
	if def.FloorRSSI != -95 || def.FloorSigma != 4 || tuned.FloorRSSI != -90 || tuned.FloorSigma != 6 {
		t.Errorf("floor models (%v, %v) and (%v, %v)", def.FloorRSSI, def.FloorSigma, tuned.FloorRSSI, tuned.FloorSigma)
	}
	if !slices.Equal(def.PostStart, tuned.PostStart) {
		t.Fatalf("posting starts %v and %v", def.PostStart, tuned.PostStart)
	}
	for i, p := range def.Post {
		if q := tuned.Post[i]; p.Center != q.Center || p.HalfPrec != q.HalfPrec || p.Const == q.Const {
			t.Fatalf("posting %d: %+v and %+v — the floor must move only the constant", i, p, q)
		}
	}
}

// retiredDir holds house artifacts in the layouts written before the
// posting lists carried their counts, and the house.tdb they were
// compiled from.
var retiredDir = filepath.Join("..", "..", "internal", "trainingdb", "testdata", "legacy")

// TestRetiredArtifactUpgrade pins the upgrade path for an artifact in
// a retired layout: verify refuses it by name and points at compile,
// inspect still prints its table, and compiling its house.tdb writes
// an artifact that verifies with the posting lists and counts of
// Compile(-95, 4).
func TestRetiredArtifactUpgrade(t *testing.T) {
	var out bytes.Buffer
	retired, _ := filepath.Glob(filepath.Join(retiredDir, "*.ilr"))
	if len(retired) != 4 {
		t.Fatalf("%d retired artifacts, want 4", len(retired))
	}
	for _, path := range retired {
		err := run([]string{"verify", path}, &out)
		if !errors.Is(err, trainingdb.ErrRetiredArtifact) || !strings.Contains(err.Error(), "tdbtool compile") {
			t.Errorf("verify %s: %v, want ErrRetiredArtifact naming tdbtool compile", path, err)
		}
		out.Reset()
		if err := run([]string{"inspect", path}, &out); err != nil || !strings.Contains(out.String(), "trained") {
			t.Errorf("inspect %s: %v\n%s", path, err, out.String())
		}
	}

	dbPath := filepath.Join(retiredDir, "house.tdb")
	artifact := filepath.Join(t.TempDir(), "house.ilr")
	if err := run([]string{"compile", "-db", dbPath, "-out", artifact}, &out); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	if err := run([]string{"verify", artifact}, &out); err != nil {
		t.Fatal(err)
	}
	c, closeMap, err := trainingdb.OpenCompiledFile(artifact)
	if err != nil {
		t.Fatal(err)
	}
	defer closeMap()
	db, err := trainingdb.LoadFile(dbPath)
	if err != nil {
		t.Fatal(err)
	}
	want := db.Compile(-95, 4)
	if len(c.Post) == 0 || !slices.Equal(c.PostStart, want.PostStart) ||
		!slices.Equal(c.Post, want.Post) || !slices.Equal(c.PostN, want.PostN) {
		t.Fatal("recompiled artifact's posting lists differ from Compile(-95, 4)")
	}
}

func TestSubcommandErrors(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"compile"}, &out); err == nil {
		t.Error("compile without -db/-out accepted")
	}
	if err := run([]string{"compile", "-db", "/nope", "-out", "x.ilr"}, &out); err == nil {
		t.Error("compile of a missing db accepted")
	}
	dbPath := makeDB(t)
	for _, retired := range []string{"-quantize", "-keep-float64"} {
		if err := run([]string{"compile", "-db", dbPath, "-out", "x.ilr", retired}, &out); err == nil {
			t.Errorf("retired flag %s accepted", retired)
		}
	}
	if err := run([]string{"inspect"}, &out); err == nil {
		t.Error("inspect without a file accepted")
	}
	if err := run([]string{"inspect", "/nope"}, &out); err == nil {
		t.Error("inspect of a missing file accepted")
	}
	if err := run([]string{"verify", "/nope"}, &out); err == nil {
		t.Error("verify of a missing file accepted")
	}
	if err := run([]string{"inspect", dbPath}, &out); err == nil {
		t.Error("inspect accepted a gob database as an artifact")
	}
}

// TestCityGenerate drives `tdbtool city` end to end: a 2×2 city comes
// out as four verifiable artifacts named in venue.Registry's layout.
func TestCityGenerate(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "city")
	var out bytes.Buffer
	if err := run([]string{"city", "-out", dir, "-campuses", "2", "-floors", "2", "-seed", "9"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "wrote 4 venues") {
		t.Errorf("city output: %q", out.String())
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 4 {
		t.Fatalf("city dir holds %d files, want 4", len(ents))
	}
	for _, e := range ents {
		if !strings.HasPrefix(e.Name(), "campus-00") || !strings.HasSuffix(e.Name(), ".ilr") {
			t.Errorf("unexpected artifact name %q", e.Name())
		}
	}
	// Every artifact passes the full CRC verify, proving the generator
	// writes the same format `tdbtool compile` does.
	out.Reset()
	if err := run([]string{"verify", filepath.Join(dir, "campus-001-floor-1.ilr")}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "OK") {
		t.Errorf("verify output: %q", out.String())
	}

	for _, bad := range [][]string{
		{"city"},                                // no -out
		{"city", "-out", dir, "-campuses", "0"}, // zero campuses
		{"city", "-out", dir, "-floors", "-1"},  // negative floors
	} {
		if err := run(bad, &out); err == nil {
			t.Errorf("args %v accepted", bad)
		}
	}
}
