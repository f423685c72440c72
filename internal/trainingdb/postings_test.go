package trainingdb

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"math"
	"os"
	"path/filepath"
	"testing"

	"indoorloc/internal/stats"
)

// The legacy house artifacts in testdata/legacy were written by the
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
// beside trained and n, with no post-n section.

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

// legacySection returns the payload of a section of a legacy artifact.
func legacySection(t *testing.T, buf []byte, id uint32) []byte {
	t.Helper()
	_, _, _, _, _, secs, err := parseHeader(buf)
	if err != nil {
		t.Fatal(err)
	}
	s, ok := secs[id]
	if !ok {
		t.Fatalf("artifact has no %s section", sectionNames[id])
	}
	return buf[s.off : s.off+s.length]
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

// TestQuantizeRoundTripBound pins what the int16 oracle bound relies
// on: every dequantized cell of the legacy int16 artifact lies within
// half its column's code step of the float64 value it was quantized
// from.
func TestQuantizeRoundTripBound(t *testing.T) {
	buf := legacyFixture(t, "house-int16.ilr")
	db := legacyHouseDB(t)
	_, exact := denseCells(db, -95, 4)
	nAP := len(db.BSSIDs)
	factors := castSlice[float64](legacySection(t, buf, secQuantFactors), 8*nAP)
	for k, id := range []uint32{secMeanQ, secSigmaQ, secLogNormQ, secFloorLLQ} {
		p := legacySection(t, buf, id)
		codes := castSlice[int16](p, len(p)/2)
		for cell, code := range codes {
			j := cell % nAP
			scale, off := factors[2*k*nAP+j], factors[(2*k+1)*nAP+j]
			got, want := dequant(code, scale, off), exact[k][cell]
			if d := math.Abs(got - want); d > math.Abs(scale)/2*(1+1e-9)+1e-12*math.Abs(want) {
				t.Fatalf("%s cell %d: |%v − %v| = %v over half the step %v",
					sectionNames[id], cell, got, want, d, scale)
			}
		}
	}
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

// TestReleaseFloat64 pins the legacy float64 decode: the artifact's
// dense matrices are read once into posting records identical to a
// fresh Compile of the database it came from, and the view keeps no
// per-cell matrix — only the lists and their counts.
func TestReleaseFloat64(t *testing.T) {
	c, err := DecodeCompiled(legacyFixture(t, "house-float64.ilr"), DecodeOptions{VerifyCRC: true})
	if err != nil {
		t.Fatal(err)
	}
	fresh := legacyHouseDB(t).Compile(-95, 4)
	if !bytes.Equal(byteView(c.PostStart), byteView(fresh.PostStart)) ||
		!bytes.Equal(byteView(c.Post), byteView(fresh.Post)) {
		t.Fatal("legacy float64 postings differ from a fresh Compile's")
	}
	sameF64(t, "UnheardLL", c.UnheardLL, fresh.UnheardLL)
	sameF64(t, "SignalBase", c.SignalBase, fresh.SignalBase)
	if want := (c.NumAPs()+1)*4 + len(c.Post)*(16+4); c.PostingBytes() != want {
		t.Errorf("PostingBytes = %d, want %d", c.PostingBytes(), want)
	}
}

// TestQuantizePostings pins the legacy int16 decode: the lists built
// from an int16 artifact's codes are byte for byte the postings the
// encoder that wrote the codes stored beside them, and the baselines
// are the int16 family's.
func TestQuantizePostings(t *testing.T) {
	withLists := legacyFixture(t, "house-int16-postings.ilr")
	built, err := DecodeCompiled(legacyFixture(t, "house-int16.ilr"), DecodeOptions{VerifyCRC: true})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(byteView(built.PostStart), legacySection(t, withLists, secPostStart)) ||
		!bytes.Equal(byteView(built.Post), legacySection(t, withLists, secPostings)) {
		t.Fatal("postings built from the int16 codes differ from the stored ones")
	}
	if !bytes.Equal(byteView(built.UnheardLL), legacySection(t, withLists, secQuantUnheardLL)) ||
		!bytes.Equal(byteView(built.SignalBase), legacySection(t, withLists, secQuantSignalBase)) {
		t.Fatal("int16 artifact baselines are not the quantized family's")
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

// TestLegacyPostN pins the counts a legacy artifact's dense n matrix
// yields: every posting of every legacy house artifact carries the
// sample count house.tdb holds for its cell.
func TestLegacyPostN(t *testing.T) {
	db := legacyHouseDB(t)
	for _, name := range []string{"house-float64.ilr", "house-int16.ilr", "house-int16-postings.ilr", "house-postings.ilr"} {
		c, err := DecodeCompiled(legacyFixture(t, name), DecodeOptions{VerifyCRC: true})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(c.PostN) != len(c.Post) || len(c.Post) == 0 {
			t.Fatalf("%s: %d counts for %d postings", name, len(c.PostN), len(c.Post))
		}
		for j, b := range c.BSSIDs {
			for k := c.PostStart[j]; k < c.PostStart[j+1]; k++ {
				entry := c.Names[c.Post[k].Entry]
				if want := db.Entries[entry].PerAP[b].N; int(c.PostN[k]) != want {
					t.Fatalf("%s: ⟨%s, %s⟩ count %d, want %d", name, entry, b, c.PostN[k], want)
				}
			}
		}
	}
}
