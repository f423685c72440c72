package trainingdb_test

import (
	"math/rand"
	"reflect"
	"testing"

	"indoorloc/internal/localize"
	"indoorloc/internal/trainingdb"
)

// FuzzCompiledDecode hammers the v2 artifact decoder: arbitrary bytes
// must either decode into a self-consistent view or return an error —
// never panic, and never allocate matrices beyond what the input's own
// size can justify. Every accepted view must also hold valid posting
// lists and survive scoring one observation through both int16 scans.
func FuzzCompiledDecode(f *testing.F) {
	for _, seed := range trainingdb.FuzzSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := trainingdb.DecodeCompiled(data, trainingdb.DecodeOptions{VerifyCRC: true})
		if err != nil {
			if c != nil {
				t.Fatal("decode returned both a view and an error")
			}
			return
		}
		// A valid artifact stores at least one byte per Trained cell, so
		// a decode that "succeeded" with matrices larger than the input
		// over-allocated.
		nE, nAP := c.NumEntries(), c.NumAPs()
		cells := nE * nAP
		if cells > len(data) {
			t.Fatalf("decoded %d cells from %d input bytes", cells, len(data))
		}
		// Touch every decoded surface; corrupt views crash here.
		if len(c.Pos) != nE || len(c.UnheardLL) != nE || len(c.SignalBase) != nE ||
			len(c.Trained) != cells || len(c.N) != cells {
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
		if q := c.Quant; q != nil {
			if len(q.MeanQ) != cells || len(q.MeanScale) != nAP {
				t.Fatal("inconsistent quantized dimensions")
			}
			checkPostingInvariants(t, q, nE, nAP)
		}
		// Score one observation over the view: the posting scans (or
		// the float64 scans) must index only what decode validated.
		if nAP > 0 {
			ml := localize.NewMaxLikelihood(nil)
			ml.Precompiled = c
			ml.TopK = 1
			knn := localize.NewKNN(nil, 1)
			knn.Precompiled = c
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

// checkPostingInvariants asserts what the int16 scan relies on: the
// starts rise from 0 to len(Post), and each column's entries strictly
// increase and stay below nE.
func checkPostingInvariants(t *testing.T, q *trainingdb.Quant, nE, nAP int) {
	t.Helper()
	if len(q.PostStart) != nAP+1 || q.PostStart[0] != 0 || int(q.PostStart[nAP]) != len(q.Post) {
		t.Fatalf("posting starts %v over %d postings", q.PostStart, len(q.Post))
	}
	for j := 0; j < nAP; j++ {
		prev := int32(-1)
		for _, p := range q.Post[q.PostStart[j]:q.PostStart[j+1]] {
			if p.Entry <= prev || int(p.Entry) >= nE {
				t.Fatalf("column %d: entry %d after %d (entries %d)", j, p.Entry, prev, nE)
			}
			prev = p.Entry
		}
	}
}

// TestStrippedArtifactAnswersIdentically pins the decode fallback: an
// artifact without the posting sections, or with only the retired
// 12-byte post section, rebuilds the same lists, and the int16
// locators over it answer exactly as over the full artifact and over
// the in-memory view it was written from.
func TestStrippedArtifactAnswersIdentically(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		c := trainingdb.RandomCompiled(t, seed, 60, 12, true, true)
		buf, err := trainingdb.EncodeCompiled(c)
		if err != nil {
			t.Fatal(err)
		}
		stripped := trainingdb.StripPostings(buf)
		info, err := trainingdb.ReadFileInfo(stripped)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range info.Sections {
			if s.Name == "post-start" || s.Name == "postings" {
				t.Fatalf("seed %d: stripped artifact still lists %s", seed, s.Name)
			}
		}
		full, err := trainingdb.DecodeCompiled(buf, trainingdb.DecodeOptions{VerifyCRC: true})
		if err != nil {
			t.Fatal(err)
		}
		old, err := trainingdb.DecodeCompiled(stripped, trainingdb.DecodeOptions{VerifyCRC: true})
		if err != nil {
			t.Fatal(err)
		}
		legacy, err := trainingdb.DecodeCompiled(trainingdb.LegacyPostings(buf), trainingdb.DecodeOptions{VerifyCRC: true})
		if err != nil {
			t.Fatal(err)
		}
		for _, view := range []*trainingdb.Compiled{old, legacy} {
			if !reflect.DeepEqual(view.Quant.PostStart, c.Quant.PostStart) || !reflect.DeepEqual(view.Quant.Post, c.Quant.Post) {
				t.Fatalf("seed %d: rebuilt postings differ from Quantize's", seed)
			}
		}
		rng := rand.New(rand.NewSource(seed))
		for trial := 0; trial < 10; trial++ {
			obs := localize.Observation{}
			for _, b := range c.BSSIDs {
				if rng.Float64() < 0.6 {
					obs[b] = -30 - 60*rng.Float64()
				}
			}
			if len(obs) == 0 {
				continue
			}
			var want [2]localize.Estimate
			for i, view := range []*trainingdb.Compiled{c, full, old, legacy} {
				ml := localize.NewMaxLikelihood(nil)
				ml.Precompiled = view
				knn := localize.NewKNN(nil, 3)
				knn.Precompiled = view
				for l, loc := range []localize.Locator{ml, knn} {
					est, err := loc.Locate(obs)
					if err != nil {
						t.Fatal(err)
					}
					if i == 0 {
						want[l] = est
					} else if !reflect.DeepEqual(est, want[l]) {
						t.Fatalf("seed %d trial %d %s: decoded view %d answers %q (%v), in-memory view %q (%v)",
							seed, trial, loc.Name(), i, est.Name, est.Score, want[l].Name, want[l].Score)
					}
				}
			}
		}
	}
}
