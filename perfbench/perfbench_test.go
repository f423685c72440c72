package main

import (
	"encoding/json"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// contract is the part of BENCHMARK.json the output must match.
type contract struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	Workload []struct{ Name string }       `json:"workloads"`
}

func readContract(t *testing.T) contract {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var c contract
	if err := json.Unmarshal(b, &c); err != nil {
		t.Fatal(err)
	}
	return c
}

// TestSmokeAllWorkloads runs every workload at smoke size, untraced and
// traced, and checks the correctness gate held and that the metrics
// are exactly BENCHMARK.json's, by name and unit.
func TestSmokeAllWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	c := readContract(t)
	var names []string
	for _, w := range c.Workload {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloads, ",") {
		t.Fatalf("BENCHMARK.json workloads %v, benchmark %v", names, workloads)
	}
	work := t.TempDir()
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			want := c.EndToEnd
			if trace {
				want = c.PerLayer
			}
			cfg := runConfig{workload: w, seed: 3, seconds: 1.5, trace: trace, work: work, sz: smokeSizes, gen: generate}
			res, err := run(cfg, io.Discard)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w, trace, res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json lists %d", w, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s missing", w, trace, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s trace=%v: %s unit %q, want %q", w, trace, m.Name, got.Unit, m.Unit)
				}
			}
		}
	}
}

// TestGateRejectsWrongAnswers checks that the response and reference
// checks fail on a wrong answer.
func TestGateRejectsWrongAnswers(t *testing.T) {
	body := []byte(`{"x":1,"y":2,"location":"a-001-002","nearest_name":"a-001-002","algorithm":"probabilistic-ml"}`)
	if err := checkSingle(200, body, answer{"a-001-002", "a-001-002"}); err != nil {
		t.Fatalf("right answer rejected: %v", err)
	}
	for _, want := range []answer{{"a-001-003", "a-001-002"}, {"a-001-002", "a-009-009"}} {
		if checkSingle(200, body, want) == nil {
			t.Errorf("wrong answer %v accepted", want)
		}
	}
	if checkSingle(429, body, answer{"a-001-002", ""}) == nil {
		t.Error("429 accepted")
	}
	if _, err := batchAnswers([]byte(`{"count":2,"results":[{"location":"a","nearest_name":"a"}]}`), 2); err == nil {
		t.Error("short batch accepted")
	}

	db := gridDB("ab", 12, 10, 3, 6, 5)
	names := db.Names()
	obs := drawObservation(rand.New(rand.NewSource(1)), db.Entries[names[40]])
	best := ""
	bestLL := -1e300
	for _, n := range names {
		if ll := refLogLikelihood(db, db.Entries[n], obs); ll > bestLL {
			best, bestLL = n, ll
		}
	}
	if err := checkReference(db, obs, best); err != nil {
		t.Fatalf("reference argmax rejected: %v", err)
	}
	far := names[len(names)-1]
	if far == best {
		far = names[0]
	}
	if err := checkReference(db, obs, far); err == nil {
		t.Errorf("far location %s accepted (argmax %s)", far, best)
	}
	if err := checkReference(db, obs, "nowhere"); err == nil {
		t.Error("unknown location accepted")
	}
}

// TestCachedInputsStillReferenceChecked checks that the input cache is
// keyed on the code and that a run on cached inputs still checks the
// reference sample: generate rewrites it when nothing else is made.
func TestCachedInputsStillReferenceChecked(t *testing.T) {
	work := t.TempDir()
	if err := generate(work, "house-locate", smokeSizes, 9); err != nil {
		t.Fatal(err)
	}
	p, err := workloadPaths(work, "house-locate", smokeSizes, 9)
	if err != nil {
		t.Fatal(err)
	}
	key, err := codeKey()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(p.serve, key) || !strings.Contains(p.inputs, key) {
		t.Errorf("cache paths %s, %s are not keyed on the code (%s)", p.serve, p.inputs, key)
	}
	if err := os.Remove(p.sample); err != nil {
		t.Fatal(err)
	}
	if err := generate(work, "house-locate", smokeSizes, 9); err != nil {
		t.Fatal(err)
	}
	if !statOK(p.sample) {
		t.Error("a run on cached inputs skipped the reference check")
	}
}
