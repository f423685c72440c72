package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"indoorloc/internal/trainingdb"
)

func TestCompileInspectVerify(t *testing.T) {
	dbPath := makeDB(t)
	artifact := filepath.Join(t.TempDir(), "map.ilr")
	var out bytes.Buffer
	if err := run([]string{"compile", "-db", dbPath, "-out", artifact}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "quantized=true float64=false") {
		t.Errorf("compile output: %q", out.String())
	}

	// The default artifact serves: decode and check the shape.
	c, closeMap, err := trainingdb.OpenCompiledFile(artifact)
	if err != nil {
		t.Fatal(err)
	}
	if c.NumEntries() != 30 || c.Quant == nil || c.Mean != nil {
		t.Errorf("artifact shape: %d entries quant=%v float64=%v",
			c.NumEntries(), c.Quant != nil, c.Mean != nil)
	}
	if err := closeMap(); err != nil {
		t.Fatal(err)
	}

	out.Reset()
	if err := run([]string{"inspect", artifact}, &out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"ILRMAPv2", "locations: 30", "quantized=true", "mean-q", "postings"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("inspect output missing %q:\n%s", want, out.String())
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

func TestCompileVariants(t *testing.T) {
	dbPath := makeDB(t)
	var out bytes.Buffer

	both := filepath.Join(t.TempDir(), "both.ilr")
	if err := run([]string{"compile", "-db", dbPath, "-out", both, "-keep-float64"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "quantized=true float64=true") {
		t.Errorf("keep-float64 output: %q", out.String())
	}

	out.Reset()
	floats := filepath.Join(t.TempDir(), "f64.ilr")
	if err := run([]string{"compile", "-db", dbPath, "-out", floats, "-quantize=false"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "quantized=false float64=true") {
		t.Errorf("float64-only output: %q", out.String())
	}

	// The quantized matrices are a fraction of the float64 footprint.
	// (File sizes on a toy 30×4 map are dominated by page-alignment
	// padding, so compare the matrix payloads, not the files.)
	quant := filepath.Join(t.TempDir(), "q.ilr")
	if err := run([]string{"compile", "-db", dbPath, "-out", quant}, &out); err != nil {
		t.Fatal(err)
	}
	qc, closeQ, err := trainingdb.OpenCompiledFile(quant)
	if err != nil {
		t.Fatal(err)
	}
	defer closeQ()
	fc, closeF, err := trainingdb.OpenCompiledFile(floats)
	if err != nil {
		t.Fatal(err)
	}
	defer closeF()
	// MatrixBytes includes the shared Trained/N overhead, so the total
	// ratio is a bit above the 4× of the matrices alone. It also counts
	// the posting lists (16 B per trained cell — every cell of this
	// house), which only a quantized view carries; leave them out here.
	if qb, fb := qc.MatrixBytes()-qc.Quant.PostingBytes(), fc.MatrixBytes(); qb*2 >= fb {
		t.Errorf("quantized matrices %d B vs float64 %d B — expected < ½", qb, fb)
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
	if err := run([]string{"compile", "-db", dbPath, "-out", "x.ilr",
		"-quantize=false", "-keep-float64"}, &out); err == nil {
		t.Error("contradictory -quantize=false -keep-float64 accepted")
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
