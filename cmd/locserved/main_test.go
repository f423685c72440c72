package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"testing"
	"time"

	"indoorloc/internal/sim"
	"indoorloc/internal/trainingdb"
)

func makeDB(t *testing.T) string {
	t.Helper()
	scen := sim.PaperHouse()
	env, err := scen.Environment()
	if err != nil {
		t.Fatal(err)
	}
	grid, err := scen.TrainingPoints()
	if err != nil {
		t.Fatal(err)
	}
	coll := sim.NewScanner(env, 5).CaptureCollection(grid, 10)
	db, _, err := trainingdb.Generate(coll, grid, trainingdb.Options{})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "train.tdb")
	if err := trainingdb.SaveFile(path, db); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestServeEndToEnd(t *testing.T) {
	dbPath := makeDB(t)
	ready := make(chan string, 1)
	errCh := make(chan error, 1)
	var out bytes.Buffer
	go func() {
		errCh <- run([]string{"-db", dbPath, "-listen", "127.0.0.1:0"}, &out, ready)
	}()
	var addr string
	select {
	case addr = <-ready:
	case err := <-errCh:
		t.Fatalf("server exited early: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("server never became ready")
	}
	resp, err := http.Get("http://" + addr + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("healthz: %d", resp.StatusCode)
	}
	var body map[string]any
	json.NewDecoder(resp.Body).Decode(&body)
	if body["locations"].(float64) != 30 {
		t.Errorf("healthz body: %v", body)
	}
	// One live locate through the real TCP stack.
	obsBody := []byte(`{"observation":{"00:02:2d:00:00:0a":-50,"00:02:2d:00:00:0b":-62,"00:02:2d:00:00:0c":-70,"00:02:2d:00:00:0d":-64}}`)
	r2, err := http.Post("http://"+addr+"/locate", "application/json", bytes.NewReader(obsBody))
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Body.Close()
	if r2.StatusCode != 200 {
		t.Fatalf("locate: %d", r2.StatusCode)
	}
}

// TestServeLiveEndToEnd boots locserved with a WAL, trains it over
// HTTP, then boots a second instance on the same journal and checks
// every accepted report survived the "restart".
func TestServeLiveEndToEnd(t *testing.T) {
	dbPath := makeDB(t)
	walPath := filepath.Join(t.TempDir(), "reports.wal")
	start := func() string {
		t.Helper()
		ready := make(chan string, 1)
		errCh := make(chan error, 1)
		var out bytes.Buffer
		go func() {
			errCh <- run([]string{
				"-db", dbPath, "-listen", "127.0.0.1:0",
				"-train-wal", walPath, "-train-flush-count", "1",
			}, &out, ready)
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
	addr := start()
	reports := []string{
		`{"pos":{"x":1,"y":1},"observation":{"00:02:2d:00:00:0a":-50}}`,
		`{"reports":[{"pos":{"x":30,"y":12},"observation":{"00:02:2d:00:00:0b":-60}},{"pos":{"x":4,"y":20},"observation":{"00:02:2d:00:00:0c":-66}}]}`,
	}
	for _, body := range reports {
		resp, err := http.Post("http://"+addr+"/train/report", "application/json", bytes.NewReader([]byte(body)))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("train/report: %d", resp.StatusCode)
		}
	}
	ingestStats := func(addr string) map[string]any {
		t.Helper()
		resp, err := http.Get("http://" + addr + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var body map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
			t.Fatal(err)
		}
		ing, ok := body["ingest"].(map[string]any)
		if !ok {
			t.Fatalf("healthz has no ingest section: %v", body)
		}
		return ing
	}
	deadline := time.Now().Add(10 * time.Second)
	for ingestStats(addr)["folded"].(float64) < 3 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if got := ingestStats(addr)["folded"].(float64); got != 3 {
		t.Fatalf("folded %v want 3", got)
	}

	// "Restart": a second instance over the same journal must replay
	// every accepted report — zero loss.
	addr2 := start()
	if got := ingestStats(addr2)["replayed"].(float64); got != 3 {
		t.Errorf("replayed %v want 3 after restart", got)
	}
}

func TestRunErrors(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{}, &out, nil); err == nil {
		t.Error("no -db accepted")
	}
	if err := run([]string{"-db", "/nope"}, &out, nil); err == nil {
		t.Error("missing db accepted")
	}
	dbPath := makeDB(t)
	if err := run([]string{"-db", dbPath, "-algo", "bogus"}, &out, nil); err == nil {
		t.Error("bogus algorithm accepted")
	}
	if err := run([]string{"-db", dbPath, "-algo", "geometric"}, &out, nil); err == nil {
		t.Error("geometric without plan accepted")
	}
	if err := run([]string{"-db", dbPath, "-listen", "256.0.0.1:0"}, &out, nil); err == nil {
		t.Error("bad listen address accepted")
	}
	if err := run([]string{"-db", dbPath, "-train-queue", "16"}, &out, nil); err == nil {
		t.Error("-train-queue without -train-wal accepted")
	}
	if err := run([]string{"-db", dbPath, "-train-wal", "w", "-train-flush-count", "-1"}, &out, nil); err == nil {
		t.Error("negative -train-flush-count accepted")
	}
	if err := run([]string{"-db", dbPath, "-max-body", "-1"}, &out, nil); err == nil {
		t.Error("negative -max-body accepted")
	}
	if err := run([]string{"-db", dbPath, "-route-timeout", "-1s"}, &out, nil); err == nil {
		t.Error("negative -route-timeout accepted")
	}
	if err := run([]string{"-db", dbPath, "-access-log", "/no/such/dir/access.log"}, &out, nil); err == nil {
		t.Error("unopenable -access-log path accepted")
	}
}

// TestServeFrontEndFlags boots locserved with the serving-perimeter
// flags live: a tight -max-body must 413 an oversized locate, the
// access log must land on disk, and -metrics=false must withhold the
// exposition endpoint.
func TestServeFrontEndFlags(t *testing.T) {
	dbPath := makeDB(t)
	logPath := filepath.Join(t.TempDir(), "access.log")
	ready := make(chan string, 1)
	errCh := make(chan error, 1)
	var out bytes.Buffer
	go func() {
		errCh <- run([]string{
			"-db", dbPath, "-listen", "127.0.0.1:0",
			"-max-body", "128", "-route-timeout", "5s",
			"-metrics=false", "-access-log", logPath,
		}, &out, ready)
	}()
	var addr string
	select {
	case addr = <-ready:
	case err := <-errCh:
		t.Fatalf("server exited early: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("server never became ready")
	}
	obsBody := []byte(`{"observation":{"00:02:2d:00:00:0a":-50,"00:02:2d:00:00:0b":-62}}`)
	resp, err := http.Post("http://"+addr+"/locate", "application/json", bytes.NewReader(obsBody))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("locate within cap: %d", resp.StatusCode)
	}
	big := append([]byte(`{"observation":{"00:02:2d:00:00:0a":-50`), bytes.Repeat([]byte(" "), 200)...)
	resp, err = http.Post("http://"+addr+"/locate", "application/json", bytes.NewReader(append(big, "}}"...)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized locate: %d, want 413", resp.StatusCode)
	}
	resp, err = http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("-metrics=false still serves /metrics: %d", resp.StatusCode)
	}
	// The log drains on its own cadence; wait for the lines to land.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if b, err := os.ReadFile(logPath); err == nil && bytes.Contains(b, []byte("route=locate")) {
			return
		}
		time.Sleep(50 * time.Millisecond)
	}
	b, _ := os.ReadFile(logPath)
	t.Errorf("access log never recorded the locate requests; contents:\n%s", b)
}
