package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"indoorloc/internal/core"
	"indoorloc/internal/filter"
	"indoorloc/internal/geom"
	"indoorloc/internal/sim"
	"indoorloc/internal/trainingdb"
)

type fixture struct {
	srv  *Server
	ts   *httptest.Server
	scen sim.Scenario
	sc   *sim.Scanner
}

func newFixture(t *testing.T, opts ...Option) *fixture {
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
	sc := sim.NewScanner(env, 41)
	coll := sc.CaptureCollection(grid, 20)
	db, _, err := trainingdb.Generate(coll, grid, trainingdb.Options{})
	if err != nil {
		t.Fatal(err)
	}
	in, err := core.New(core.WithDB(db), core.WithNames(grid))
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(in.Service, nil, opts...)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(func() { ts.Close(); srv.Close() })
	return &fixture{srv: srv, ts: ts, scen: scen, sc: sc}
}

// observationBody builds a /locate request body from a live capture.
func (f *fixture) observationBody(t *testing.T, p geom.Point) []byte {
	t.Helper()
	recs := f.sc.Capture(p, 10, 0)
	req := map[string]any{"records": []map[string]any{}}
	var rows []map[string]any
	for _, r := range recs {
		rows = append(rows, map[string]any{
			"time_millis": r.TimeMillis, "bssid": r.BSSID, "rssi": r.RSSI,
		})
	}
	req["records"] = rows
	b, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func postJSON(t *testing.T, url string, body []byte) (*http.Response, map[string]any) {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return resp, out
}

func TestNewValidation(t *testing.T) {
	if _, err := New(nil, nil); err == nil {
		t.Error("nil service accepted")
	}
}

func TestHealthz(t *testing.T) {
	f := newFixture(t)
	resp, err := http.Get(f.ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var body map[string]any
	json.NewDecoder(resp.Body).Decode(&body)
	if body["status"] != "ok" || body["locations"].(float64) != 30 {
		t.Errorf("body %v", body)
	}
}

func TestAlgorithmsAndLocations(t *testing.T) {
	f := newFixture(t)
	resp, err := http.Get(f.ts.URL + "/algorithms")
	if err != nil {
		t.Fatal(err)
	}
	var algos []string
	json.NewDecoder(resp.Body).Decode(&algos)
	resp.Body.Close()
	if len(algos) != len(core.Algorithms()) {
		t.Errorf("algorithms %v", algos)
	}
	resp, err = http.Get(f.ts.URL + "/locations")
	if err != nil {
		t.Fatal(err)
	}
	var locs []map[string]any
	json.NewDecoder(resp.Body).Decode(&locs)
	resp.Body.Close()
	if len(locs) != 30 {
		t.Errorf("%d locations", len(locs))
	}
}

func TestLocateWithRecords(t *testing.T) {
	f := newFixture(t)
	target := geom.Pt(25, 20)
	resp, body := postJSON(t, f.ts.URL+"/locate", f.observationBody(t, target))
	if resp.StatusCode != 200 {
		t.Fatalf("status %d: %v", resp.StatusCode, body)
	}
	// This test checks the HTTP plumbing, not accuracy: the estimate
	// only needs to land inside the house.
	x, y := body["x"].(float64), body["y"].(float64)
	if !f.scen.Outline.Contains(geom.Pt(x, y)) {
		t.Errorf("estimate (%v, %v) outside the house", x, y)
	}
	if body["location"] == "" || body["nearest_name"] == "" {
		t.Errorf("symbolic fields missing: %v", body)
	}
	if body["algorithm"] != "probabilistic-ml" {
		t.Errorf("algorithm %v", body["algorithm"])
	}
	if _, ok := body["confidence_radius_ft"]; !ok {
		t.Error("no confidence radius")
	}
}

func TestLocateWithAveragedObservation(t *testing.T) {
	f := newFixture(t)
	obs := map[string]float64{}
	for _, ap := range f.scen.APs {
		obs[ap.BSSID] = -60
	}
	b, _ := json.Marshal(map[string]any{"observation": obs})
	resp, _ := postJSON(t, f.ts.URL+"/locate", b)
	if resp.StatusCode != 200 {
		t.Fatalf("status %d", resp.StatusCode)
	}
}

func TestLocateErrors(t *testing.T) {
	f := newFixture(t)
	cases := []struct {
		name   string
		body   string
		status int
	}{
		{"empty body", `{}`, http.StatusBadRequest},
		{"both fields", `{"observation":{"a":-60},"records":[{"bssid":"a","rssi":-60}]}`, http.StatusBadRequest},
		{"unknown field", `{"wat":1}`, http.StatusBadRequest},
		{"malformed", `{`, http.StatusBadRequest},
		{"no overlap", `{"observation":{"gh:os:t":-60}}`, http.StatusUnprocessableEntity},
	}
	for _, c := range cases {
		resp, _ := postJSON(t, f.ts.URL+"/locate", []byte(c.body))
		if resp.StatusCode != c.status {
			t.Errorf("%s: status %d, want %d", c.name, resp.StatusCode, c.status)
		}
	}
	// Wrong method.
	resp, err := http.Get(f.ts.URL + "/locate")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /locate: %d", resp.StatusCode)
	}
}

func TestTrackLifecycle(t *testing.T) {
	f := newFixture(t)
	// A client walks; its track smooths.
	for i := 0; i < 5; i++ {
		p := geom.Pt(10+float64(i)*2, 20)
		resp, body := postJSON(t, f.ts.URL+"/track/phone-1", f.observationBody(t, p))
		if resp.StatusCode != 200 {
			t.Fatalf("step %d: %d %v", i, resp.StatusCode, body)
		}
	}
	if f.srv.ActiveTracks() != 1 {
		t.Errorf("%d active tracks", f.srv.ActiveTracks())
	}
	// A second client is independent.
	postJSON(t, f.ts.URL+"/track/phone-2", f.observationBody(t, geom.Pt(40, 30)))
	if f.srv.ActiveTracks() != 2 {
		t.Errorf("%d active tracks", f.srv.ActiveTracks())
	}
	// Forget the first.
	req, _ := http.NewRequest(http.MethodDelete, f.ts.URL+"/track/phone-1", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 || f.srv.ActiveTracks() != 1 {
		t.Errorf("delete: %d, tracks %d", resp.StatusCode, f.srv.ActiveTracks())
	}
	// Deleting again 404s.
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("double delete: %d", resp.StatusCode)
	}
}

func TestTrackBadPaths(t *testing.T) {
	f := newFixture(t)
	// The router treats an empty or nested client id as an unknown
	// path — a uniform 404, same as any other unroutable URL.
	resp, _ := postJSON(t, f.ts.URL+"/track/", []byte(`{}`))
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("empty client: %d", resp.StatusCode)
	}
	resp, _ = postJSON(t, f.ts.URL+"/track/a/b", []byte(`{}`))
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("nested client: %d", resp.StatusCode)
	}
	// Unsupported method on /track.
	req, _ := http.NewRequest(http.MethodPut, f.ts.URL+"/track/x", strings.NewReader("{}"))
	r2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	r2.Body.Close()
	if r2.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("PUT: %d", r2.StatusCode)
	}
}

func TestConcurrentClients(t *testing.T) {
	f := newFixture(t)
	// Bodies are prepared on the test goroutine: t.Fatal is not legal
	// inside the workers.
	bodies := make([][]byte, 8)
	for c := range bodies {
		bodies[c] = f.observationBody(t, geom.Pt(float64(5+c*5), 20))
	}
	var wg sync.WaitGroup
	errs := make(chan error, 40)
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			client := fmt.Sprintf("client-%d", c)
			body := bodies[c]
			for i := 0; i < 5; i++ {
				resp, err := http.Post(f.ts.URL+"/track/"+client, "application/json", bytes.NewReader(body))
				if err != nil {
					errs <- err
					return
				}
				resp.Body.Close()
				if resp.StatusCode != 200 {
					errs <- fmt.Errorf("%s: status %d", client, resp.StatusCode)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if f.srv.ActiveTracks() != 8 {
		t.Errorf("%d tracks", f.srv.ActiveTracks())
	}
}

// batchBody marshals observations into a /locate/batch request body.
func batchBody(t *testing.T, obs []map[string]float64) []byte {
	t.Helper()
	b, err := json.Marshal(map[string]any{"observations": obs})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// averagedObservation builds one averaged observation from a live
// capture at p.
func (f *fixture) averagedObservation(t *testing.T, p geom.Point) map[string]float64 {
	t.Helper()
	recs := f.sc.Capture(p, 10, 0)
	sums := map[string]float64{}
	counts := map[string]int{}
	for _, r := range recs {
		sums[r.BSSID] += float64(r.RSSI)
		counts[r.BSSID]++
	}
	obs := map[string]float64{}
	for b, s := range sums {
		obs[b] = s / float64(counts[b])
	}
	return obs
}

// TestLocateBatchMatchesSingle posts a batch and checks every result
// against the single-observation endpoint: same coordinates, symbolic
// names and confidence, in input order. Runs twice with different
// batch sizes so arena reuse across requests is exercised.
func TestLocateBatchMatchesSingle(t *testing.T) {
	f := newFixture(t)
	points := []geom.Point{
		geom.Pt(10, 10), geom.Pt(25, 20), geom.Pt(40, 30), geom.Pt(15, 35), geom.Pt(45, 12),
	}
	for round, n := range []int{len(points), 2} { // second round smaller: stale arena state must not bleed
		obs := make([]map[string]float64, n)
		for i := range obs {
			obs[i] = f.averagedObservation(t, points[i])
		}
		resp, body := postJSON(t, f.ts.URL+"/locate/batch", batchBody(t, obs))
		if resp.StatusCode != 200 {
			t.Fatalf("round %d: status %d: %v", round, resp.StatusCode, body)
		}
		if body["algorithm"] != "probabilistic-ml" || int(body["count"].(float64)) != n {
			t.Fatalf("round %d: header fields %v", round, body)
		}
		results := body["results"].([]any)
		if len(results) != n {
			t.Fatalf("round %d: %d results, want %d", round, len(results), n)
		}
		for i, raw := range results {
			item := raw.(map[string]any)
			single, err := json.Marshal(map[string]any{"observation": obs[i]})
			if err != nil {
				t.Fatal(err)
			}
			sResp, sBody := postJSON(t, f.ts.URL+"/locate", single)
			if sResp.StatusCode != 200 {
				t.Fatalf("round %d obs %d: single status %d", round, i, sResp.StatusCode)
			}
			for _, field := range []string{"x", "y", "location", "nearest_name", "confidence_radius_ft"} {
				if item[field] != sBody[field] {
					t.Errorf("round %d obs %d %s: batch %v, single %v",
						round, i, field, item[field], sBody[field])
				}
			}
			if _, hasErr := item["error"]; hasErr {
				t.Errorf("round %d obs %d: unexpected error %v", round, i, item["error"])
			}
		}
	}
}

// TestLocateBatchPerObservationErrors checks one bad observation fails
// alone: its result carries an error while its batchmates localize.
func TestLocateBatchPerObservationErrors(t *testing.T) {
	f := newFixture(t)
	obs := []map[string]float64{
		f.averagedObservation(t, geom.Pt(25, 20)),
		{"gh:os:t1": -55}, // no overlap with training
		f.averagedObservation(t, geom.Pt(40, 30)),
	}
	resp, body := postJSON(t, f.ts.URL+"/locate/batch", batchBody(t, obs))
	if resp.StatusCode != 200 {
		t.Fatalf("status %d: %v", resp.StatusCode, body)
	}
	results := body["results"].([]any)
	if len(results) != 3 {
		t.Fatalf("%d results", len(results))
	}
	if _, hasErr := results[0].(map[string]any)["error"]; hasErr {
		t.Error("good observation 0 got an error")
	}
	if _, hasErr := results[2].(map[string]any)["error"]; hasErr {
		t.Error("good observation 2 got an error")
	}
	if msg, _ := results[1].(map[string]any)["error"].(string); msg == "" {
		t.Errorf("bad observation got no error: %v", results[1])
	}
}

// TestLocateBatchRequestErrors pins the request-level failure modes.
func TestLocateBatchRequestErrors(t *testing.T) {
	f := newFixture(t)
	f.srv.MaxBatch = 3
	cases := []struct {
		name   string
		body   string
		status int
	}{
		{"empty list", `{"observations":[]}`, http.StatusBadRequest},
		{"missing field", `{}`, http.StatusBadRequest},
		{"unknown field", `{"wat":[]}`, http.StatusBadRequest},
		{"not an array", `{"observations":{"a":-60}}`, http.StatusBadRequest},
		{"malformed", `{"observations":[`, http.StatusBadRequest},
		{"bad element", `{"observations":["nope"]}`, http.StatusBadRequest},
		{"over cap", `{"observations":[{"a":-60},{"a":-60},{"a":-60},{"a":-60}]}`, http.StatusRequestEntityTooLarge},
	}
	for _, c := range cases {
		resp, _ := postJSON(t, f.ts.URL+"/locate/batch", []byte(c.body))
		if resp.StatusCode != c.status {
			t.Errorf("%s: status %d, want %d", c.name, resp.StatusCode, c.status)
		}
	}
	resp, err := http.Get(f.ts.URL + "/locate/batch")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /locate/batch: %d", resp.StatusCode)
	}
}

// slowFilter stalls inside Update, modelling a heavyweight per-client
// filter. It also counts concurrent entries so tests can prove
// same-client serialization survived the per-client locking.
type slowFilter struct {
	delay   time.Duration
	active  *atomic.Int32
	maxSeen *atomic.Int32
}

func (s slowFilter) Update(meas geom.Point) geom.Point {
	n := s.active.Add(1)
	for {
		old := s.maxSeen.Load()
		if n <= old || s.maxSeen.CompareAndSwap(old, n) {
			break
		}
	}
	time.Sleep(s.delay)
	s.active.Add(-1)
	return meas
}
func (s slowFilter) Reset()       {}
func (s slowFilter) Name() string { return "slow" }

// TestTrackClientsNotSerialized is the regression test for the old
// global tracker mutex: with per-client locks, eight clients whose
// filter updates each stall 20ms must overlap instead of queueing
// behind one another. The serial schedule costs ≥ 8×3×20ms = 480ms;
// the test demands well under half that, which only concurrent filter
// updates can deliver (sleeps need no CPU, so this holds on any
// machine).
func TestTrackClientsNotSerialized(t *testing.T) {
	scen := sim.PaperHouse()
	env, err := scen.Environment()
	if err != nil {
		t.Fatal(err)
	}
	grid, err := scen.TrainingPoints()
	if err != nil {
		t.Fatal(err)
	}
	sc := sim.NewScanner(env, 43)
	coll := sc.CaptureCollection(grid, 20)
	db, _, err := trainingdb.Generate(coll, grid, trainingdb.Options{})
	if err != nil {
		t.Fatal(err)
	}
	in, err := core.New(core.WithDB(db), core.WithNames(grid))
	if err != nil {
		t.Fatal(err)
	}
	var active, maxSeen atomic.Int32
	srv, err := New(in.Service, func() filter.PositionFilter {
		return slowFilter{delay: 20 * time.Millisecond, active: &active, maxSeen: &maxSeen}
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()

	recs := sc.Capture(geom.Pt(25, 20), 10, 0)
	rows := make([]map[string]any, 0, len(recs))
	for _, r := range recs {
		rows = append(rows, map[string]any{"time_millis": r.TimeMillis, "bssid": r.BSSID, "rssi": r.RSSI})
	}
	body, err := json.Marshal(map[string]any{"records": rows})
	if err != nil {
		t.Fatal(err)
	}

	const clients, steps = 8, 3
	start := time.Now()
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			url := fmt.Sprintf("%s/track/slow-%d", ts.URL, c)
			for i := 0; i < steps; i++ {
				resp, err := http.Post(url, "application/json", bytes.NewReader(body))
				if err != nil {
					errs <- err
					return
				}
				resp.Body.Close()
				if resp.StatusCode != 200 {
					errs <- fmt.Errorf("client %d: status %d", c, resp.StatusCode)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	serial := clients * steps * 20 * time.Millisecond
	if elapsed > serial/2 {
		t.Errorf("8 slow clients took %v — over half the serial schedule (%v); /track is serializing across clients", elapsed, serial)
	}
	if maxSeen.Load() < 2 {
		t.Error("filter updates never overlapped across clients")
	}
	if srv.ActiveTracks() != clients {
		t.Errorf("%d tracks", srv.ActiveTracks())
	}
}

// TestTrackSameClientStillSerialized proves the per-client lock kept
// the other half of the contract: one client's stateful filter never
// sees concurrent updates.
func TestTrackSameClientStillSerialized(t *testing.T) {
	f := newFixture(t)
	var active, maxSeen atomic.Int32
	f.srv.newFilter = func() filter.PositionFilter {
		return slowFilter{delay: 5 * time.Millisecond, active: &active, maxSeen: &maxSeen}
	}
	body := f.observationBody(t, geom.Pt(25, 20))
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(f.ts.URL+"/track/one-client", "application/json", bytes.NewReader(body))
			if err != nil {
				errs <- err
				return
			}
			resp.Body.Close()
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := maxSeen.Load(); got > 1 {
		t.Errorf("same-client filter updates overlapped (%d concurrent)", got)
	}
}

// TestTrackDeleteDuringPosts races deletes against posts for the same
// client under -race: no panic, no lost server, and the track either
// exists or not at the end — never a corrupt in-between.
func TestTrackDeleteDuringPosts(t *testing.T) {
	f := newFixture(t)
	body := f.observationBody(t, geom.Pt(25, 20))
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				resp, err := http.Post(f.ts.URL+"/track/flappy", "application/json", bytes.NewReader(body))
				if err == nil {
					resp.Body.Close()
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 10; i++ {
			req, _ := http.NewRequest(http.MethodDelete, f.ts.URL+"/track/flappy", nil)
			resp, err := http.DefaultClient.Do(req)
			if err == nil {
				resp.Body.Close()
			}
		}
	}()
	wg.Wait()
	if n := f.srv.ActiveTracks(); n > 1 {
		t.Errorf("%d tracks for one client", n)
	}
}

// TestDecodeFastSlowParity pins the hand-rolled batch scanner against
// the encoding/json walk: on every body the fast path accepts, both
// must produce identical observations; bodies with JSON the fast path
// cannot handle must be declined (ok=false), not misparsed.
func TestDecodeFastSlowParity(t *testing.T) {
	cases := []struct {
		name     string
		body     string
		wantFast bool // fast path should handle it itself
	}{
		{"canonical", `{"observations":[{"aa:bb":-61.5,"cc:dd":-70}]}`, true},
		{"whitespace", " {\n\t\"observations\" : [ { \"aa:bb\" : -61.5 , \"cc:dd\" : -70 } , { \"ee:ff\" : -40 } ]\n} ", true},
		{"exponents", `{"observations":[{"aa:bb":-6.15e1,"cc:dd":-7E1,"ee:ff":-7e+1,"gg:hh":-700e-1}]}`, true},
		{"integers", `{"observations":[{"aa:bb":-61,"cc:dd":0,"ee:ff":-0}]}`, true},
		{"empty obs object", `{"observations":[{}]}`, true},
		{"empty list", `{"observations":[]}`, true},
		{"many", `{"observations":[{"a":-1},{"b":-2},{"c":-3}]}`, true},
		{"escaped key", `{"observations":[{"aa\u003abb":-61.5}]}`, false},
		{"non-ASCII key", `{"observations":[{"caf\u00e9":-61.5,"café":-60}]}`, false},
		{"invalid UTF-8 key", "{\"observations\":[{\"a\xffb\":-61.5}]}", false},
		{"null value", `{"observations":[{"aa:bb":null}]}`, false},
		{"string value", `{"observations":[{"aa:bb":"-61"}]}`, false},
		{"plus sign", `{"observations":[{"a":+1}]}`, false},
		{"leading zero", `{"observations":[{"a":01}]}`, false},
		{"bare fraction", `{"observations":[{"a":.5}]}`, false},
		{"bare point", `{"observations":[{"a":1.}]}`, false},
		{"bare minus", `{"observations":[{"a":-}]}`, false},
		{"empty exponent", `{"observations":[{"a":1e}]}`, false},
		{"out of range", `{"observations":[{"a":-1e400}]}`, false},
		{"trailing comma in obs", `{"observations":[{"aa:bb":-61,}]}`, false},
		{"trailing comma in list", `{"observations":[{"aa:bb":-61},]}`, false},
		{"trailing garbage", `{"observations":[]} nope`, false},
		{"wrong key", `{"wat":[]}`, false},
		{"not an object", `[]`, false},
	}
	for _, c := range cases {
		if ok := batchParity(t, c.body, 100); ok != c.wantFast {
			t.Errorf("%s: fast ok=%v, want %v", c.name, ok, c.wantFast)
		}
	}
	// The fast path refuses the non-RFC 8259 numbers; the fallback must
	// then refuse them too, on both request shapes.
	for _, num := range []string{"+1", "01", ".5", "1.", "-", "1e", "-1e400"} {
		a := &batchArena{keys: map[string]string{}}
		if _, err := a.decodeObservations(strings.NewReader(`{"observations":[{"a":`+num+`}]}`), 100); err == nil {
			t.Errorf("batch accepted the number %q", num)
		}
		if _, err := a.decodeLocate(strings.NewReader(`{"observation":{"a":` + num + `}}`)); err == nil {
			t.Errorf("single accepted the number %q", num)
		}
	}
}

// TestDecodeFastCap checks errBatchTooLarge fires from the fast path
// with the same boundary as the slow one.
func TestDecodeFastCap(t *testing.T) {
	body := `{"observations":[{"a":-1},{"b":-2},{"c":-3}]}`
	for _, max := range []int{2, 3} {
		fast := &batchArena{keys: map[string]string{}}
		fast.body.WriteString(body)
		n, err, ok := fast.decodeFast(max)
		if !ok {
			t.Fatalf("max=%d: fast path declined canonical body", max)
		}
		slow := &batchArena{keys: map[string]string{}}
		slow.body.WriteString(body)
		sn, serr := slow.decodeSlow(max)
		if (err == nil) != (serr == nil) || (err != nil && !errors.Is(serr, errBatchTooLarge)) {
			t.Fatalf("max=%d: fast err %v, slow err %v", max, err, serr)
		}
		if err == nil && n != sn {
			t.Fatalf("max=%d: %d vs %d", max, n, sn)
		}
	}
}
