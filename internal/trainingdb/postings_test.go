package trainingdb

import (
	"crypto/sha256"
	"encoding/hex"
	"math"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"indoorloc/internal/stats"
)

// The house artifacts in testdata/legacy are in the retired layouts
// decode refuses with ErrRetiredArtifact. They were written by the
// encoder of commit e16e6a5, the last to emit dense matrices, from the
// paper's simulated house (sim.PaperHouse, scanner seed 3, 20 sweeps
// per training point, generation 5), saved beside them as house.tdb:
//
//	house-float64.ilr         float64 matrices only: locserved -train-artifact
//	house-int16.ilr           int16 codes, no posting lists: tdbtool compile before posting lists
//	house-int16-postings.ilr  int16 codes plus 16-byte posting records: tdbtool compile
//
// house-postings.ilr was written by the encoder of commit b668f5c, the
// last to emit the dense trained and n matrices, from the same
// house.tdb at floor −95 dBm, σ 4 dB: the 16-byte posting records
// beside trained and n, with no post-n section. house.tdb also seeds
// the record tests below; recompiling it is the upgrade for all four.
var retiredArtifacts = []string{"house-float64.ilr", "house-int16.ilr", "house-int16-postings.ilr", "house-postings.ilr"}

func legacyFixture(t *testing.T, name string) []byte {
	t.Helper()
	buf, err := os.ReadFile(filepath.Join("testdata", "legacy", name))
	if err != nil {
		t.Fatal(err)
	}
	return buf
}

func legacyHouseDB(t *testing.T) *DB {
	t.Helper()
	db, err := LoadFile(filepath.Join("testdata", "legacy", "house.tdb"))
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// denseCells returns the four dense per-cell matrices an encoder of
// the retired formats stored for db: mean, σ (clamped), log-norm and
// floor term for trained cells; the floor model, 0 and 0 for untrained
// ones.
func denseCells(db *DB, floorRSSI, floorSigma float64) (names []string, m [4][]float64) {
	names = db.Names()
	nAP := len(db.BSSIDs)
	for k := range m {
		m[k] = make([]float64, len(names)*nAP)
	}
	for i, name := range names {
		for j, b := range db.BSSIDs {
			cell := i*nAP + j
			s, ok := db.Entries[name].PerAP[b]
			if !ok {
				m[0][cell], m[1][cell] = floorRSSI, floorSigma
				continue
			}
			sigma := max(s.StdDev, stats.MinSigma)
			m[0][cell], m[1][cell] = s.Mean, sigma
			m[2][cell] = -math.Log(sigma) - 0.5*math.Log(2*math.Pi)
			m[3][cell] = stats.LogGaussianPDF(floorRSSI, s.Mean, s.StdDev)
		}
	}
	return names, m
}

// TestCompiledQuantize pins the one rounding Compile does: each record
// field is its cell's float64 statistic rounded once to float32, and
// the per-entry baselines are the float64 sums over the trained cells
// in column order.
func TestCompiledQuantize(t *testing.T) {
	db := legacyHouseDB(t)
	c := db.Compile(-95, 4)
	_, dense := denseCells(db, -95, 4)
	nE, nAP := c.NumEntries(), c.NumAPs()
	const half = 1.0 / (1 << 24) // ½ ulp₃₂, relative
	seen := 0
	for j := 0; j < nAP; j++ {
		for _, p := range c.Post[c.PostStart[j]:c.PostStart[j+1]] {
			cell := int(p.Entry)*nAP + j
			mean, sigma, k := dense[0][cell], dense[1][cell], dense[2][cell]-dense[3][cell]
			if want := newPosting(int(p.Entry), mean, sigma, dense[2][cell], dense[3][cell]); p != want {
				t.Fatalf("cell %d: record %+v, want %+v", cell, p, want)
			}
			for _, f := range [][2]float64{
				{float64(p.Center), mean},
				{float64(p.HalfPrec), 1 / (sigma * math.Sqrt2)},
				{float64(p.Const), k},
			} {
				if math.Abs(f[0]-f[1]) > half*math.Abs(f[1]) {
					t.Fatalf("cell %d: %v rounds %v by more than ½ ulp₃₂", cell, f[0], f[1])
				}
			}
			seen++
		}
	}
	for i := 0; i < nE; i++ {
		var unheard, base float64
		for j := 0; j < nAP; j++ {
			if _, ok := db.Entries[c.Names[i]].PerAP[c.BSSIDs[j]]; ok {
				cell := i*nAP + j
				unheard += dense[3][cell]
				d := -95 - dense[0][cell]
				base += d * d
			}
		}
		if c.UnheardLL[i] != unheard || c.SignalBase[i] != base {
			t.Fatalf("entry %d baselines (%v, %v), want (%v, %v)", i, c.UnheardLL[i], c.SignalBase[i], unheard, base)
		}
	}
	if seen == 0 {
		t.Fatal("no postings")
	}
}

// TestReleaseFloat64 pins that the deprecated ReleaseFloat64 and
// Quantize shims leave a compiled view alone, and that the view keeps
// no per-cell matrix — only the lists and their counts.
func TestReleaseFloat64(t *testing.T) {
	c := legacyHouseDB(t).Compile(-95, 4)
	post := append([]Posting(nil), c.Post...)
	c.Quantize()
	c.ReleaseFloat64()
	if !slices.Equal(c.Post, post) {
		t.Fatal("shims changed the posting records")
	}
	if want := (c.NumAPs()+1)*4 + len(c.Post)*(16+4); c.PostingBytes() != want {
		t.Errorf("PostingBytes = %d, want %d", c.PostingBytes(), want)
	}
}

// TestPostingBytesPinned pins the posting bytes Compile builds from
// one fixed seeded database. The digest moves if any record's rounding
// changes — a fused multiply-add (arm64 FMADD) in Compile or the floor
// term, or a change to how a record is derived — so artifacts written
// on different CPUs or by different builds stay comparable byte for
// byte.
func TestPostingBytesPinned(t *testing.T) {
	if !hostLittle {
		t.Skip("digest pinned for little-endian payloads")
	}
	c := randomCompiled(t, 17, 64, 9)
	h := sha256.New()
	h.Write(byteView(c.PostStart))
	h.Write(byteView(c.Post))
	const want = "d31d8b86a2532451db1911a89b7ba99c117312a86307346b5446febbe4c80388"
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Errorf("posting bytes sha256 %s, want %s", got, want)
	}
}

// TestBaselinesPinned pins the per-entry baselines and the per-posting
// sample counts Compile builds from the same seeded database as
// TestPostingBytesPinned. The digest was taken from the Compile that
// still built the dense N matrix, with each posting's count read from
// N at its ⟨entry, column⟩ cell, so it moves if building the lists
// straight from the entries changes a count, or the order a baseline's
// terms are summed in.
func TestBaselinesPinned(t *testing.T) {
	if !hostLittle {
		t.Skip("digest pinned for little-endian payloads")
	}
	c := randomCompiled(t, 17, 64, 9)
	h := sha256.New()
	h.Write(byteView(c.UnheardLL))
	h.Write(byteView(c.SignalBase))
	h.Write(byteView(c.PostN))
	const want = "55baaca1c2f639f4d5aabaa436040e07cb301c7b5d5842577f8be67d55be3d79"
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Errorf("baselines and counts sha256 %s, want %s", got, want)
	}
}
