package trainingdb

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"math/rand"
	"path/filepath"
	"testing"

	"indoorloc/internal/geom"
	"indoorloc/internal/stats"
)

func crcOf(b []byte) uint32 { return crc32.ChecksumIEEE(b) }

// randomCompiled builds a compiled view from a randomized DB with
// sparse coverage, optionally quantized and optionally stripped of the
// float64 matrices.
func randomCompiled(t *testing.T, seed int64, nE, nAP int, quantize, release bool) *Compiled {
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
	c := db.Compile(-95, 4)
	if quantize {
		c.Quantize()
	}
	if release {
		c.ReleaseFloat64()
	}
	return c
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
	for i := range c.Trained {
		if d.Trained[i] != c.Trained[i] || d.N[i] != c.N[i] {
			t.Fatalf("cell %d: trained/N mismatch", i)
		}
	}
	sameF64(t, "UnheardLL", d.UnheardLL, c.UnheardLL)
	sameF64(t, "SignalBase", d.SignalBase, c.SignalBase)
	if (c.Mean == nil) != (d.Mean == nil) {
		t.Fatalf("float64 presence: got %v want %v", d.Mean != nil, c.Mean != nil)
	}
	if c.Mean != nil {
		sameF64(t, "Mean", d.Mean, c.Mean)
		sameF64(t, "Sigma", d.Sigma, c.Sigma)
		sameF64(t, "LogNorm", d.LogNorm, c.LogNorm)
		sameF64(t, "FloorLL", d.FloorLL, c.FloorLL)
	}
	if (c.Quant == nil) != (d.Quant == nil) {
		t.Fatalf("quant presence: got %v want %v", d.Quant != nil, c.Quant != nil)
	}
	if q := c.Quant; q != nil {
		dq := d.Quant
		if !bytes.Equal(byteView(dq.MeanQ), byteView(q.MeanQ)) ||
			!bytes.Equal(byteView(dq.SigmaQ), byteView(q.SigmaQ)) ||
			!bytes.Equal(byteView(dq.LogNormQ), byteView(q.LogNormQ)) ||
			!bytes.Equal(byteView(dq.FloorLLQ), byteView(q.FloorLLQ)) {
			t.Fatal("quant codes mismatch")
		}
		sameF64(t, "MeanScale", dq.MeanScale, q.MeanScale)
		sameF64(t, "MeanOff", dq.MeanOff, q.MeanOff)
		sameF64(t, "SigmaScale", dq.SigmaScale, q.SigmaScale)
		sameF64(t, "SigmaOff", dq.SigmaOff, q.SigmaOff)
		sameF64(t, "LogNormScale", dq.LogNormScale, q.LogNormScale)
		sameF64(t, "LogNormOff", dq.LogNormOff, q.LogNormOff)
		sameF64(t, "FloorLLScale", dq.FloorLLScale, q.FloorLLScale)
		sameF64(t, "FloorLLOff", dq.FloorLLOff, q.FloorLLOff)
		sameF64(t, "q.UnheardLL", dq.UnheardLL, q.UnheardLL)
		sameF64(t, "q.SignalBase", dq.SignalBase, q.SignalBase)
		if !bytes.Equal(byteView(dq.PostStart), byteView(q.PostStart)) ||
			!bytes.Equal(byteView(dq.Post), byteView(q.Post)) {
			t.Fatal("posting lists differ from Quantize's")
		}
	}
}

func TestCodecRoundTrip(t *testing.T) {
	cases := []struct {
		name              string
		quantize, release bool
	}{
		{"float64-only", false, false},
		{"both", true, false},
		{"quant-only", true, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := randomCompiled(t, 11, 23, 7, tc.quantize, tc.release)
			c.Generation = 42
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
	c := randomCompiled(t, 3, 4, 3, false, false)
	c.Mean, c.Sigma, c.LogNorm, c.FloorLL = nil, nil, nil, nil
	if _, err := EncodeCompiled(c); err == nil {
		t.Fatal("encoded a view with no matrices")
	}
}

func TestOpenCompiledFile(t *testing.T) {
	c := randomCompiled(t, 5, 40, 9, true, true)
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
	c := randomCompiled(t, 6, 12, 5, true, false)
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
	if !info.Quantized || !info.HasFloat64 {
		t.Fatalf("matrix presence: %+v", info)
	}
	if len(info.Sections) != 7+4+7+2 {
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
	c := randomCompiled(t, 8, 10, 6, true, false)
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
	c := randomCompiled(t, 9, 8, 4, false, false)
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
