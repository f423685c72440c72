package localize

import (
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"indoorloc/internal/sim"
	"indoorloc/internal/stats"
	"indoorloc/internal/trainingdb"
)

// legacyDir holds the house artifacts written by the retired dense
// encoders and the database they were compiled from (provenance in
// trainingdb's postings_test.go).
var legacyDir = filepath.Join("..", "trainingdb", "testdata", "legacy")

// int16Factors reads a legacy int16 artifact's per-AP dequantization
// factors: {scale, off} × {mean, sigma, lognorm, floorll}, each nAP
// long, in that order.
func int16Factors(t *testing.T, buf []byte) []float64 {
	t.Helper()
	info, err := trainingdb.ReadFileInfo(buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range info.Sections {
		if s.Name != "quant-factors" {
			continue
		}
		p := buf[s.Offset : s.Offset+s.Length]
		f := make([]float64, len(p)/8)
		for i := range f {
			f[i] = math.Float64frombits(binary.LittleEndian.Uint64(p[8*i:]))
		}
		return f
	}
	t.Fatal("artifact has no quant-factors section")
	return nil
}

// int16ScoreBound is the guaranteed error, against exact statistics,
// that a legacy int16 artifact's dequantized cells add to entry i's
// maximum-likelihood score; float32ScoreBound adds the records'
// rounding on top. Every dequantized cell lies within half its
// column's code step (Scale/2) of its float64 value
// (trainingdb's TestQuantizeRoundTripBound). A heard trained cell's
// floor term cancels between the baseline and the record constant, so
// it contributes the log-norm error plus the widest swing of d²/2 over
// the mean and σ intervals; an unheard trained cell contributes its
// floor term's error.
func int16ScoreBound(db *trainingdb.DB, c *trainingdb.Compiled, factors []float64, heard map[int32]float64, i int) float64 {
	nAP := c.NumAPs()
	step := func(k, j int) float64 { return math.Abs(factors[2*k*nAP+j]) / 2 }
	e := db.Entries[c.Names[i]]
	var b float64
	for j, bssid := range c.BSSIDs {
		s, trained := e.PerAP[bssid]
		if !trained {
			continue
		}
		v, ok := heard[int32(j)]
		if !ok {
			b += step(3, j)
			continue
		}
		sigma := max(s.StdDev, stats.MinSigma)
		dm, ds := step(0, j), step(1, j)
		dMax := (math.Abs(v-s.Mean) + dm) / (sigma - ds)
		dMin := math.Max(0, math.Abs(v-s.Mean)-dm) / (sigma + ds)
		b += step(2, j) + (dMax*dMax-dMin*dMin)/2
	}
	return b
}

// TestLegacyArtifactsServe pins that artifacts written by the retired
// dense encoders keep serving: each legacy house artifact, decoded
// with and without VerifyCRC, answers 30 house observations with every
// candidate within the derived bound of the uncompiled oracle over the
// database it was compiled from, and with the oracle's argmax. The
// float64 artifact's records and those stored beside the dense trained
// and n matrices round exact cells, so float32ScoreBound covers them;
// the int16 artifacts add their codes' int16ScoreBound.
func TestLegacyArtifactsServe(t *testing.T) {
	db, err := trainingdb.LoadFile(filepath.Join(legacyDir, "house.tdb"))
	if err != nil {
		t.Fatal(err)
	}
	ref := NewMaxLikelihood(view(db))
	scen := sim.PaperHouse()
	env, err := scen.Environment()
	if err != nil {
		t.Fatal(err)
	}
	grid, err := scen.TrainingPoints()
	if err != nil {
		t.Fatal(err)
	}
	sc := sim.NewScanner(env, 101)
	var observations []Observation
	for _, name := range grid.Names() {
		p, _ := grid.Lookup(name)
		observations = append(observations, ObservationFromRecords(sc.Capture(p, 5, 0)))
	}
	if len(observations) != 30 {
		t.Fatalf("%d house observations, want 30", len(observations))
	}
	for _, name := range []string{"house-float64.ilr", "house-int16.ilr", "house-int16-postings.ilr", "house-postings.ilr"} {
		buf, err := os.ReadFile(filepath.Join(legacyDir, name))
		if err != nil {
			t.Fatal(err)
		}
		var factors []float64
		if strings.HasPrefix(name, "house-int16") {
			factors = int16Factors(t, buf)
		}
		for _, verify := range []bool{false, true} {
			c, err := trainingdb.DecodeCompiled(buf, trainingdb.DecodeOptions{VerifyCRC: verify})
			if err != nil {
				t.Fatalf("%s (verify=%v): %v", name, verify, err)
			}
			ml := NewMaxLikelihood(c)
			entry := make(map[string]int, len(c.Names))
			for i, n := range c.Names {
				entry[n] = i
			}
			for k, obs := range observations {
				tag := fmt.Sprintf("%s verify=%v obs %d", name, verify, k)
				got, err := ml.Locate(obs)
				if err != nil {
					t.Fatalf("%s: %v", tag, err)
				}
				want, err := refMaxLikelihood(db, ref, obs)
				if err != nil {
					t.Fatalf("%s: reference: %v", tag, err)
				}
				heard := heardColumns(c, obs)
				bound := make(map[string]float64, len(c.Names))
				for n, i := range entry {
					bound[n] = float32ScoreBound(c, heard, i)
					if factors != nil {
						bound[n] += int16ScoreBound(db, c, factors, heard, i)
					}
				}
				checkBoundedRanking(t, tag, got, want, bound)
				if got.Name != want.Name {
					t.Fatalf("%s: argmax %q, oracle %q", tag, got.Name, want.Name)
				}
			}
		}
	}
}
