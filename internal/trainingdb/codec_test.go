package trainingdb

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"indoorloc/internal/geom"
	"indoorloc/internal/stats"
)

func crcOf(b []byte) uint32 { return crc32.ChecksumIEEE(b) }

// randomCompiled builds a compiled view from a randomized DB with
// sparse coverage.
func randomCompiled(t *testing.T, seed int64, nE, nAP int) *Compiled {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	db := &DB{Entries: make(map[string]*Entry)}
	universe := map[string]bool{}
	for i := 0; i < nE; i++ {
		name := fmt.Sprintf("loc-%03d", i)
		e := &Entry{Name: name, Pos: geom.Pt(rng.Float64()*100, rng.Float64()*80),
			PerAP: make(map[string]*APStats)}
		for j := 0; j < nAP; j++ {
			if rng.Float64() < 0.4 {
				continue
			}
			b := fmt.Sprintf("ap:%02d", j)
			var run stats.Running
			n := 2 + rng.Intn(9)
			for s := 0; s < n; s++ {
				run.Add(-40 - rng.Float64()*50)
			}
			e.PerAP[b] = &APStats{BSSID: b, N: n, Mean: run.Mean(), StdDev: run.StdDev()}
			universe[b] = true
		}
		db.Entries[name] = e
	}
	for b := range universe {
		db.BSSIDs = append(db.BSSIDs, b)
	}
	sort.Strings(db.BSSIDs)
	return db.Compile(-95, 4)
}

func sameF64(t *testing.T, what string, a, b []float64) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: len %d != %d", what, len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("%s[%d]: %v != %v", what, i, a[i], b[i])
		}
	}
}

func checkRoundTrip(t *testing.T, c, d *Compiled) {
	t.Helper()
	if d.Generation != c.Generation || d.FloorRSSI != c.FloorRSSI || d.FloorSigma != c.FloorSigma {
		t.Fatalf("header fields: got (%d %v %v) want (%d %v %v)",
			d.Generation, d.FloorRSSI, d.FloorSigma, c.Generation, c.FloorRSSI, c.FloorSigma)
	}
	if len(d.Names) != len(c.Names) || len(d.BSSIDs) != len(c.BSSIDs) {
		t.Fatalf("dims: %d×%d want %d×%d", len(d.Names), len(d.BSSIDs), len(c.Names), len(c.BSSIDs))
	}
	for i := range c.Names {
		if d.Names[i] != c.Names[i] || d.Pos[i] != c.Pos[i] {
			t.Fatalf("entry %d: (%q %v) want (%q %v)", i, d.Names[i], d.Pos[i], c.Names[i], c.Pos[i])
		}
	}
	for j, b := range c.BSSIDs {
		if d.BSSIDs[j] != b {
			t.Fatalf("bssid %d: %q want %q", j, d.BSSIDs[j], b)
		}
		if got, ok := d.APIndex(b); !ok || got != j {
			t.Fatalf("APIndex(%q) = %d %v", b, got, ok)
		}
	}
	sameF64(t, "UnheardLL", d.UnheardLL, c.UnheardLL)
	sameF64(t, "SignalBase", d.SignalBase, c.SignalBase)
	if !bytes.Equal(byteView(d.PostStart), byteView(c.PostStart)) ||
		!bytes.Equal(byteView(d.Post), byteView(c.Post)) ||
		!bytes.Equal(byteView(d.PostN), byteView(c.PostN)) || len(d.PostN) != len(d.Post) {
		t.Fatal("posting lists differ")
	}
}

// TestCodecRoundTrip pins that a view survives encode → decode
// unchanged. "postings" is a fresh Compile. The other cases are the
// upgrade path for each retired house artifact (testdata/legacy,
// refused by TestRetiredArtifactRefused): the view tdbtool compile
// rebuilds from its house.tdb at the retired file's floor model has
// that file's dimensions and round-trips. "quant-only" carries int16
// codes alone, "both" int16 codes and their posting records,
// "dense-counts" the posting records beside the dense trained and n
// matrices.
func TestCodecRoundTrip(t *testing.T) {
	for _, tc := range []struct{ name, fixture string }{
		{"postings", ""},
		{"float64-only", "house-float64.ilr"},
		{"quant-only", "house-int16.ilr"},
		{"both", "house-int16-postings.ilr"},
		{"dense-counts", "house-postings.ilr"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var c *Compiled
			if tc.fixture == "" {
				c = randomCompiled(t, 11, 23, 7)
				c.Generation = 42
			} else {
				info, err := ReadFileInfo(legacyFixture(t, tc.fixture))
				if err != nil {
					t.Fatal(err)
				}
				c = legacyHouseDB(t).Compile(info.FloorRSSI, info.FloorSigma)
				if c.NumEntries() != info.NumEntries || c.NumAPs() != info.NumAPs {
					t.Fatalf("recompiled %d×%d, retired artifact %d×%d",
						c.NumEntries(), c.NumAPs(), info.NumEntries, info.NumAPs)
				}
			}
			buf, err := EncodeCompiled(c)
			if err != nil {
				t.Fatal(err)
			}
			d, err := DecodeCompiled(buf, DecodeOptions{VerifyCRC: true})
			if err != nil {
				t.Fatal(err)
			}
			checkRoundTrip(t, c, d)
		})
	}
}

// TestRetiredArtifactRefused pins that every retired layout is refused
// by name on the serve path and the verify path alike, while its
// header and section table still parse for inspection.
func TestRetiredArtifactRefused(t *testing.T) {
	for _, name := range retiredArtifacts {
		buf := legacyFixture(t, name)
		for _, verify := range []bool{false, true} {
			c, err := DecodeCompiled(buf, DecodeOptions{VerifyCRC: verify})
			if !errors.Is(err, ErrRetiredArtifact) || c != nil {
				t.Errorf("%s (verify=%v): decode = (%v, %v), want ErrRetiredArtifact", name, verify, c, err)
			}
		}
		c, closeMap, err := OpenCompiledFile(filepath.Join("testdata", "legacy", name))
		if !errors.Is(err, ErrRetiredArtifact) || c != nil || closeMap != nil {
			t.Errorf("%s: OpenCompiledFile error %v, want ErrRetiredArtifact", name, err)
		}
		info, err := ReadFileInfo(buf)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, s := range info.Sections {
			if s.Name == "" {
				t.Errorf("%s: section id %d has no name", name, s.ID)
			}
		}
	}
	if !strings.Contains(ErrRetiredArtifact.Error(), "tdbtool compile") {
		t.Errorf("ErrRetiredArtifact %q names no upgrade", ErrRetiredArtifact)
	}
}

func TestCodecEmptyishDims(t *testing.T) {
	// One entry hearing nothing: zero-width matrices must survive.
	db := &DB{
		Entries: map[string]*Entry{"lone": {Name: "lone", Pos: geom.Pt(1, 2),
			PerAP: map[string]*APStats{}}},
	}
	c := db.Compile(-95, 4)
	buf, err := EncodeCompiled(c)
	if err != nil {
		t.Fatal(err)
	}
	d, err := DecodeCompiled(buf, DecodeOptions{VerifyCRC: true})
	if err != nil {
		t.Fatal(err)
	}
	checkRoundTrip(t, c, d)
}

func TestEncodeRejectsMatrixlessView(t *testing.T) {
	c := randomCompiled(t, 3, 4, 3)
	c.PostStart, c.Post = nil, nil
	if _, err := EncodeCompiled(c); err == nil {
		t.Fatal("encoded a view with no posting lists")
	}
}

func TestOpenCompiledFile(t *testing.T) {
	c := randomCompiled(t, 5, 40, 9)
	path := filepath.Join(t.TempDir(), "map.ilr")
	if err := WriteCompiledFile(path, c); err != nil {
		t.Fatal(err)
	}
	d, closeMap, err := OpenCompiledFile(path)
	if err != nil {
		t.Fatal(err)
	}
	checkRoundTrip(t, c, d)
	if err := closeMap(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := OpenCompiledFile(filepath.Join(t.TempDir(), "missing.ilr")); err == nil {
		t.Fatal("opened a missing artifact")
	}
}

func TestReadFileInfo(t *testing.T) {
	c := randomCompiled(t, 6, 12, 5)
	c.Generation = 7
	buf, err := EncodeCompiled(c)
	if err != nil {
		t.Fatal(err)
	}
	info, err := ReadFileInfo(buf)
	if err != nil {
		t.Fatal(err)
	}
	if info.NumEntries != 12 || info.NumAPs != len(c.BSSIDs) || info.Generation != 7 {
		t.Fatalf("info = %+v", info)
	}
	if len(info.Sections) != 8 {
		t.Fatalf("%d sections", len(info.Sections))
	}
	for i := 1; i < len(info.Sections); i++ {
		prev, cur := info.Sections[i-1], info.Sections[i]
		if cur.Offset < prev.Offset+prev.Length {
			t.Fatalf("sections overlap: %+v then %+v", prev, cur)
		}
	}
}

// TestDecodeRejectsCorruption drives the validation paths the fuzz
// target explores: every mutation class must produce an error, never a
// panic.
func TestDecodeRejectsCorruption(t *testing.T) {
	c := randomCompiled(t, 8, 10, 6)
	buf, err := EncodeCompiled(c)
	if err != nil {
		t.Fatal(err)
	}
	opts := DecodeOptions{VerifyCRC: true}

	mutate := func(name string, f func(b []byte) []byte) {
		b := append([]byte(nil), buf...)
		b = f(b)
		if _, err := DecodeCompiled(b, opts); err == nil {
			t.Errorf("%s: decode accepted corrupt artifact", name)
		}
	}
	mutate("empty", func(b []byte) []byte { return nil })
	mutate("truncated-header", func(b []byte) []byte { return b[:20] })
	mutate("truncated-table", func(b []byte) []byte { return b[:mapHeaderSize+3] })
	mutate("bad-magic", func(b []byte) []byte { b[0] ^= 0xff; return b })
	mutate("bad-header-crc", func(b []byte) []byte { b[16] ^= 0xff; return b })
	mutate("truncated-payload", func(b []byte) []byte { return b[:len(b)-100] })
	mutate("flipped-payload-byte", func(b []byte) []byte { b[len(b)-1] ^= 0xff; return b })
	mutate("overlapping-sections", func(b []byte) []byte {
		// Point section 1's offset at section 0's region and re-seal the
		// header CRC so only the overlap check can object.
		entry := b[mapSectionsStart+mapSectionSize:]
		first := le64(b[mapSectionsStart+8:])
		putLE64(entry[8:], first)
		count := int(le32(b[48:]))
		tableEnd := mapSectionsStart + count*mapSectionSize
		putLE32(b[8:], 0)
		putLE32(b[8:], crcOf(b[:tableEnd]))
		return b
	})
	mutate("oversized-dims", func(b []byte) []byte {
		putLE32(b[40:], 1<<30)
		putLE32(b[44:], 1<<30)
		count := int(le32(b[48:]))
		tableEnd := mapSectionsStart + count*mapSectionSize
		putLE32(b[8:], 0)
		putLE32(b[8:], crcOf(b[:tableEnd]))
		return b
	})

	// The untouched buffer still decodes (the mutations copied it).
	if _, err := DecodeCompiled(buf, opts); err != nil {
		t.Fatalf("pristine buffer stopped decoding: %v", err)
	}
}

// TestDecodeMisalignedInput pins the copy fallback: a view decoded
// from a deliberately misaligned byte slice must still round-trip.
func TestDecodeMisalignedInput(t *testing.T) {
	c := randomCompiled(t, 9, 8, 4)
	buf, err := EncodeCompiled(c)
	if err != nil {
		t.Fatal(err)
	}
	shifted := make([]byte, len(buf)+1)
	copy(shifted[1:], buf)
	d, err := DecodeCompiled(shifted[1:], DecodeOptions{VerifyCRC: true})
	if err != nil {
		t.Fatal(err)
	}
	checkRoundTrip(t, c, d)
}
