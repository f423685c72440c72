package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"testing"
	"time"

	"indoorloc/internal/trainingdb"
)

// makeArtifact compiles the simulated house into a v2 artifact — the
// file `tdbtool compile` would produce.
func makeArtifact(t *testing.T) string {
	t.Helper()
	db, err := trainingdb.LoadFile(makeDB(t))
	if err != nil {
		t.Fatal(err)
	}
	c := db.Compile(-95, 4)
	path := filepath.Join(t.TempDir(), "map.ilr")
	if err := trainingdb.WriteCompiledFile(path, c); err != nil {
		t.Fatal(err)
	}
	return path
}

func startServer(t *testing.T, args []string) string {
	t.Helper()
	ready := make(chan string, 1)
	errCh := make(chan error, 1)
	var out bytes.Buffer
	go func() {
		errCh <- run(args, &out, ready)
	}()
	select {
	case addr := <-ready:
		return addr
	case err := <-errCh:
		t.Fatalf("server exited early: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("server never became ready")
	}
	return ""
}

// TestServeFromArtifact boots locserved on a memory-mapped artifact —
// no training database anywhere — and drives the full request surface.
func TestServeFromArtifact(t *testing.T) {
	addr := startServer(t, []string{
		"-map-file", makeArtifact(t), "-listen", "127.0.0.1:0", "-topk", "4",
	})
	resp, err := http.Get("http://" + addr + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health map[string]any
	json.NewDecoder(resp.Body).Decode(&health)
	resp.Body.Close()
	if health["locations"].(float64) != 30 || health["aps"].(float64) != 4 {
		t.Errorf("healthz: %v", health)
	}

	resp, err = http.Get("http://" + addr + "/locations")
	if err != nil {
		t.Fatal(err)
	}
	var locs []map[string]any
	json.NewDecoder(resp.Body).Decode(&locs)
	resp.Body.Close()
	if len(locs) != 30 {
		t.Errorf("/locations returned %d entries", len(locs))
	}

	obsBody := []byte(`{"observation":{"00:02:2d:00:00:0a":-50,"00:02:2d:00:00:0b":-62,"00:02:2d:00:00:0c":-70,"00:02:2d:00:00:0d":-64}}`)
	r2, err := http.Post("http://"+addr+"/locate", "application/json", bytes.NewReader(obsBody))
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Body.Close()
	if r2.StatusCode != 200 {
		t.Fatalf("locate: %d", r2.StatusCode)
	}
	var est map[string]any
	if err := json.NewDecoder(r2.Body).Decode(&est); err != nil {
		t.Fatal(err)
	}
	if est["name"] == "" {
		t.Errorf("estimate has no name: %v", est)
	}
}

// TestTrainArtifactEmission runs live training with -train-artifact
// and checks a valid v2 artifact appears and tracks the swaps.
func TestTrainArtifactEmission(t *testing.T) {
	dbPath := makeDB(t)
	dir := t.TempDir()
	artifact := filepath.Join(dir, "live.ilr")
	addr := startServer(t, []string{
		"-db", dbPath, "-listen", "127.0.0.1:0",
		"-train-wal", filepath.Join(dir, "reports.wal"),
		"-train-flush-count", "1",
		"-train-artifact", artifact,
	})
	// The initial snapshot already emits one.
	if _, err := os.Stat(artifact); err != nil {
		t.Fatalf("no artifact after startup: %v", err)
	}
	body := []byte(`{"pos":{"x":1,"y":1},"observation":{"00:02:2d:00:00:0a":-50}}`)
	resp, err := http.Post("http://"+addr+"/train/report", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("train/report: %d", resp.StatusCode)
	}
	// Wait for the swap to rewrite the artifact at the new generation.
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		data, err := os.ReadFile(artifact)
		if err == nil {
			if info, err := trainingdb.ReadFileInfo(data); err == nil && info.Generation > 0 {
				// The posting lists are the whole radio map.
				names := map[string]bool{}
				for _, s := range info.Sections {
					names[s.Name] = true
				}
				if !names["postings"] || names["mean"] || names["mean-q"] {
					t.Errorf("live artifact sections %v", info.Sections)
				}
				// And it still fully verifies.
				if _, err := trainingdb.DecodeCompiled(data, trainingdb.DecodeOptions{VerifyCRC: true}); err != nil {
					t.Fatalf("emitted artifact does not verify: %v", err)
				}
				return
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("artifact never updated after a swap")
}

func TestMapFileFlagErrors(t *testing.T) {
	var out bytes.Buffer
	dbPath := makeDB(t)
	artifact := makeArtifact(t)
	if err := run([]string{"-db", dbPath, "-map-file", artifact}, &out, nil); err == nil {
		t.Error("-db together with -map-file accepted")
	}
	if err := run([]string{"-map-file", artifact, "-train-wal", "w"}, &out, nil); err == nil {
		t.Error("-map-file with live training accepted")
	}
	if err := run([]string{"-map-file", artifact, "-algo", "histogram"}, &out, nil); err == nil {
		t.Error("histogram over an artifact accepted")
	}
	if err := run([]string{"-map-file", "/nope"}, &out, nil); err == nil {
		t.Error("missing artifact accepted")
	}
	if err := run([]string{"-db", dbPath, "-topk", "-2"}, &out, nil); err == nil {
		t.Error("negative -topk accepted")
	}
	if err := run([]string{"-db", dbPath, "-train-artifact", "a.ilr"}, &out, nil); err == nil {
		t.Error("-train-artifact without -train-wal accepted")
	}
}
