package trainingdb_test

import (
	"os"
	"path/filepath"
	"testing"

	"indoorloc/internal/localize"
	"indoorloc/internal/trainingdb"
)

// FuzzCompiledDecode hammers the v2 artifact decoder: arbitrary bytes
// must either decode into a self-consistent view or return an error —
// never panic, and never allocate matrices beyond what the input's own
// size can justify. Every accepted view must also hold valid posting
// lists and survive scoring one observation through both posting scans.
// The retired house artifacts seed the refusal path.
func FuzzCompiledDecode(f *testing.F) {
	for _, seed := range trainingdb.FuzzSeeds() {
		f.Add(seed)
	}
	for _, name := range trainingdb.RetiredArtifacts {
		f.Add(readLegacy(f, name))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := trainingdb.DecodeCompiled(data, trainingdb.DecodeOptions{VerifyCRC: true})
		if err != nil {
			if c != nil {
				t.Fatal("decode returned both a view and an error")
			}
			return
		}
		// A valid artifact stores at least four bytes per entry, per AP
		// and per posting, so a decode that "succeeded" with more of any
		// than the input has bytes over-allocated.
		nE, nAP := c.NumEntries(), c.NumAPs()
		if nE > len(data) || nAP > len(data) || len(c.Post) > len(data) {
			t.Fatalf("decoded %d entries, %d APs, %d postings from %d input bytes", nE, nAP, len(c.Post), len(data))
		}
		// Touch every decoded surface; corrupt views crash here.
		if len(c.Pos) != nE || len(c.UnheardLL) != nE || len(c.SignalBase) != nE ||
			len(c.PostN) != len(c.Post) {
			t.Fatal("inconsistent decoded dimensions")
		}
		for _, name := range c.Names {
			_ = len(name)
		}
		for j, b := range c.BSSIDs {
			if got, ok := c.APIndex(b); ok && got != j {
				// Duplicate BSSIDs are representable; the index maps to
				// one of the duplicates.
				_ = got
			}
		}
		checkPostingInvariants(t, c)
		// Score one observation over the view: the posting scans must
		// index only what decode validated.
		if nAP > 0 {
			ml := localize.NewMaxLikelihood(c)
			ml.TopK = 1
			knn := localize.NewKNN(c, 1)
			knn.TopK = 1
			obs := localize.Observation{c.BSSIDs[0]: -60}
			for _, loc := range []localize.Locator{ml, knn} {
				if _, err := loc.Locate(obs); err != nil {
					t.Fatalf("%s locate over decoded view: %v", loc.Name(), err)
				}
			}
		}
		// The view must survive re-encoding (it may not be bytewise
		// identical: section order and padding renormalize).
		if _, err := trainingdb.EncodeCompiled(c); err != nil {
			t.Fatalf("re-encode of decoded view failed: %v", err)
		}
	})
}

// checkPostingInvariants asserts what the posting scans rely on: the
// starts rise from 0 to len(Post), and each column's entries strictly
// increase and stay below the entry count.
func checkPostingInvariants(t *testing.T, c *trainingdb.Compiled) {
	t.Helper()
	nE, nAP := c.NumEntries(), c.NumAPs()
	if len(c.PostStart) != nAP+1 || c.PostStart[0] != 0 || int(c.PostStart[nAP]) != len(c.Post) {
		t.Fatalf("posting starts %v over %d postings", c.PostStart, len(c.Post))
	}
	for j := 0; j < nAP; j++ {
		prev := int32(-1)
		for _, p := range c.Post[c.PostStart[j]:c.PostStart[j+1]] {
			if p.Entry <= prev || int(p.Entry) >= nE {
				t.Fatalf("column %d: entry %d after %d (entries %d)", j, p.Entry, prev, nE)
			}
			prev = p.Entry
		}
	}
}

// readLegacy reads one of the retired house artifacts in
// testdata/legacy (see postings_test.go for their provenance).
func readLegacy(tb testing.TB, name string) []byte {
	tb.Helper()
	buf, err := os.ReadFile(filepath.Join("testdata", "legacy", name))
	if err != nil {
		tb.Fatal(err)
	}
	return buf
}
