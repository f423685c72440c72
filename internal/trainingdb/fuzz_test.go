package trainingdb

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"indoorloc/internal/geom"
)

// fuzzFixture builds a small two-entry view, quantized with both
// matrix families present so every section id appears in the artifact.
func fuzzFixture() *Compiled {
	db := &DB{
		Entries: map[string]*Entry{
			"hall": {Name: "hall", Pos: geom.Pt(3, 4), PerAP: map[string]*APStats{
				"apA": {BSSID: "apA", N: 5, Mean: -58, StdDev: 2.5},
				"apB": {BSSID: "apB", N: 3, Mean: -71, StdDev: 4},
			}},
			"porch": {Name: "porch", Pos: geom.Pt(9, 1), PerAP: map[string]*APStats{
				"apB": {BSSID: "apB", N: 6, Mean: -64, StdDev: 1.5},
			}},
		},
		BSSIDs: []string{"apA", "apB"},
	}
	c := db.Compile(-95, 4)
	c.Quantize()
	return c
}

// resealHeader recomputes the header+table CRC after a test edits
// the header or the section table.
func resealHeader(b []byte) []byte {
	tableEnd := mapSectionsStart + int(le32(b[48:]))*mapSectionSize
	putLE32(b[8:], 0)
	putLE32(b[8:], crcOf(b[:tableEnd]))
	return b
}

// patchSection rewrites section id's payload in place through f, which
// may also shorten it, then re-seals the section's CRC and length and
// the header CRC — so only semantic validation can object.
func patchSection(b []byte, id uint32, f func(payload []byte) []byte) []byte {
	for i := 0; i < int(le32(b[48:])); i++ {
		e := b[mapSectionsStart+i*mapSectionSize:]
		if le32(e) != id {
			continue
		}
		off, n := le64(e[8:]), le64(e[16:])
		p := f(b[off : off+n])
		putLE32(e[4:], crcOf(p))
		putLE64(e[16:], uint64(len(p)))
	}
	return resealHeader(b)
}

// stripSections copies an artifact and drops the given sections from
// its table; their payload bytes stay behind unreferenced. Stripping
// post-start and post gives the shape of an artifact written before
// posting lists existed.
func stripSections(buf []byte, ids ...uint32) []byte {
	b := append([]byte(nil), buf...)
	count, kept := int(le32(b[48:])), 0
	for i := 0; i < count; i++ {
		e := b[mapSectionsStart+i*mapSectionSize : mapSectionsStart+(i+1)*mapSectionSize]
		if slices.Contains(ids, le32(e)) {
			continue
		}
		copy(b[mapSectionsStart+kept*mapSectionSize:], e)
		kept++
	}
	clear(b[mapSectionsStart+kept*mapSectionSize : mapSectionsStart+count*mapSectionSize])
	putLE32(b[48:], uint32(kept))
	return resealHeader(b)
}

// fuzzSeeds returns the named seed corpus: a pristine artifact plus
// the corruption classes decode must reject (truncations, corrupt
// CRCs, overlapping sections, hostile dimensions, and posting lists
// that are CRC-clean but break the list invariants).
func fuzzSeeds() map[string][]byte {
	buf, err := EncodeCompiled(fuzzFixture())
	if err != nil {
		panic(err)
	}
	cp := func() []byte { return append([]byte(nil), buf...) }

	seeds := map[string][]byte{
		"valid":            cp(),
		"empty":            {},
		"magic-only":       []byte(MapMagic),
		"truncated-header": cp()[:mapHeaderSize-7],
		"truncated-table":  cp()[:mapHeaderSize+5],
		"short-payload":    cp()[:len(buf)-64],
	}
	b := cp()
	b[len(b)-1] ^= 0xa5 // corrupt last section payload
	seeds["corrupt-crc"] = b

	b = cp()
	putLE64(b[mapSectionsStart+mapSectionSize+8:], le64(b[mapSectionsStart+8:]))
	seeds["overlapping-sections"] = resealHeader(b)

	b = cp()
	putLE32(b[40:], 0x40000000)
	putLE32(b[44:], 0x40000000)
	seeds["hostile-dims"] = resealHeader(b)

	// The fixture's lists: apA → [hall], apB → [hall, porch], so
	// post-start is [0 1 3] and post holds three postings.
	starts := func(f func(s []int32)) []byte {
		return patchSection(cp(), secPostStart, func(p []byte) []byte {
			f(castSlice[int32](p, len(p)/4))
			return p
		})
	}
	posts := func(f func(ps []Posting)) []byte {
		return patchSection(cp(), secPostings, func(p []byte) []byte {
			f(castSlice[Posting](p, len(p)/postingSize))
			return p
		})
	}
	seeds["post-nonmonotone-starts"] = starts(func(s []int32) { s[1] = 4 })
	seeds["post-entry-out-of-range"] = posts(func(ps []Posting) { ps[2].Entry = 2 })
	seeds["post-unsorted-entries"] = posts(func(ps []Posting) { ps[1], ps[2] = ps[2], ps[1] })
	seeds["post-duplicate-entries"] = posts(func(ps []Posting) { ps[2].Entry = ps[1].Entry })
	seeds["post-count-mismatch"] = patchSection(cp(), secPostings, func(p []byte) []byte {
		return p[:len(p)-postingSize]
	})
	seeds["post-without-start"] = stripSections(buf, secPostStart)

	// A well-formed view with APs but no entries: every section is
	// CRC-clean and exactly sized, so only the entry check rejects it.
	empty := &DB{Entries: map[string]*Entry{}, BSSIDs: []string{"apA", "apB"}}
	ec := empty.Compile(-95, 4)
	ec.Quantize()
	if seeds["zero-entries"], err = EncodeCompiled(ec); err != nil {
		panic(err)
	}
	return seeds
}

// legacyPostings returns a copy of the artifact as the encoder of
// 12-byte posting records wrote it: the postings section gives way to
// a post section of {Entry int32; MeanQ, SigmaQ, LogNormQ, FloorLLQ
// int16} records in host order.
func legacyPostings(buf []byte) []byte {
	c, err := DecodeCompiled(buf, DecodeOptions{})
	if err != nil {
		panic(err)
	}
	type legacyPosting struct {
		Entry                             int32
		MeanQ, SigmaQ, LogNormQ, FloorLLQ int16
	}
	q, nAP := c.Quant, c.NumAPs()
	recs := make([]legacyPosting, 0, len(q.Post))
	for j := 0; j < nAP; j++ {
		for _, p := range q.Post[q.PostStart[j]:q.PostStart[j+1]] {
			cell := int(p.Entry)*nAP + j
			recs = append(recs, legacyPosting{p.Entry,
				q.MeanQ[cell], q.SigmaQ[cell], q.LogNormQ[cell], q.FloorLLQ[cell]})
		}
	}
	gen, floorRSSI, floorSigma, nE, _, parsed, err := parseHeader(buf)
	if err != nil {
		panic(err)
	}
	var secs []section
	for id, s := range parsed {
		if id != secPostings {
			secs = append(secs, section{id, buf[s.off : s.off+s.length], 8})
		}
	}
	slices.SortFunc(secs, func(a, b section) int { return int(a.id) - int(b.id) })
	secs = append(secs, section{secPost, byteView(recs), 8})
	return layoutArtifact(gen, floorRSSI, floorSigma, nE, nAP, secs)
}

// TestFuzzSeedsBehave pins the seed corpus semantics outside the fuzz
// engine: the pristine seed decodes, every corruption seed errors.
// The posting and zero-entry seeds are CRC-clean: only the list and
// entry checks may reject them, and those run on the serving path too.
func TestFuzzSeedsBehave(t *testing.T) {
	for name, seed := range fuzzSeeds() {
		_, err := DecodeCompiled(seed, DecodeOptions{VerifyCRC: true})
		switch {
		case name == "valid":
			if err != nil {
				t.Errorf("valid seed failed to decode: %v", err)
			}
		case err == nil:
			t.Errorf("seed %s decoded without error", name)
		case strings.HasPrefix(name, "post-") || name == "zero-entries":
			want := "post"
			if name == "zero-entries" {
				want = "no entries"
			}
			if !strings.Contains(err.Error(), want) {
				t.Errorf("seed %s rejected for another reason: %v", name, err)
			}
			if _, err := DecodeCompiled(seed, DecodeOptions{}); err == nil {
				t.Errorf("seed %s decoded without VerifyCRC", name)
			}
		}
	}
}

// TestWriteFuzzCorpus regenerates the checked-in seed corpus under
// testdata/fuzz/FuzzCompiledDecode. Gated behind an env var: run
//
//	ILR_WRITE_FUZZ_CORPUS=1 go test ./internal/trainingdb -run WriteFuzzCorpus
//
// after a format change, and commit the result.
func TestWriteFuzzCorpus(t *testing.T) {
	if os.Getenv("ILR_WRITE_FUZZ_CORPUS") == "" {
		t.Skip("set ILR_WRITE_FUZZ_CORPUS=1 to regenerate the corpus")
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzCompiledDecode")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for name, seed := range fuzzSeeds() {
		content := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", seed)
		if err := os.WriteFile(filepath.Join(dir, "seed-"+name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
