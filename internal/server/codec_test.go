package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"

	"indoorloc/internal/geom"
	"indoorloc/internal/localize"
	"indoorloc/internal/sim"
	"indoorloc/internal/venue"
)

// batchParity decodes body with both batch decoders and reports any
// disagreement. It returns whether the fast path answered by itself.
func batchParity(t *testing.T, body string, max int) bool {
	t.Helper()
	fast := &batchArena{keys: map[string]string{}}
	fast.body.WriteString(body)
	fn, ferr, ok := fast.decodeFast(max)
	if !ok {
		return false
	}
	slow := &batchArena{keys: map[string]string{}}
	slow.body.WriteString(body)
	sn, serr := slow.decodeSlow(max)
	switch {
	case ferr != nil:
		if !errors.Is(serr, ferr) {
			t.Errorf("%q: fast refused with %v, slow answered %v", body, ferr, serr)
		}
	case serr != nil:
		t.Errorf("%q: fast accepted what slow refuses: %v", body, serr)
	case fn != sn:
		t.Errorf("%q: fast %d observations, slow %d", body, fn, sn)
	default:
		for i := 0; i < fn; i++ {
			sameObservation(t, body, fast.obs[i], slow.obs[i])
		}
	}
	return true
}

// singleParity is batchParity for the single /locate shape.
func singleParity(t *testing.T, body string) bool {
	t.Helper()
	fast := &batchArena{keys: map[string]string{}}
	fast.body.WriteString(body)
	fo, ok := fast.decodeLocateFast()
	if !ok {
		return false
	}
	slow := &batchArena{keys: map[string]string{}}
	slow.body.WriteString(body)
	so, err := slow.decodeLocateSlow()
	if err != nil {
		t.Errorf("%q: fast accepted what slow refuses: %v", body, err)
		return true
	}
	sameObservation(t, body, fo, so)
	return true
}

func sameObservation(t *testing.T, body string, got, want localize.Observation) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%q: fast %v, slow %v", body, got, want)
		return
	}
	for k, v := range want {
		if g, ok := got[k]; !ok || g != v {
			t.Errorf("%q key %q: fast %v, slow %v", body, k, g, v)
		}
	}
}

// TestDecodeLocateFastSlowParity is TestDecodeFastSlowParity for the
// single shape, including the bodies the fast path must leave to
// encoding/json: records, both fields, empty observations.
func TestDecodeLocateFastSlowParity(t *testing.T) {
	cases := []struct {
		name     string
		body     string
		wantFast bool
	}{
		{"canonical", `{"observation":{"aa:bb":-61.5,"cc:dd":-70}}`, true},
		{"whitespace", " {\n\t\"observation\" : { \"aa:bb\" : -61.5 , \"cc:dd\" : -7e1 }\n} ", true},
		{"duplicate key", `{"observation":{"a":-1,"a":-2}}`, true},
		{"empty observation", `{"observation":{}}`, false},
		{"null observation", `{"observation":null}`, false},
		{"records", `{"records":[{"bssid":"a","rssi":-60}]}`, false},
		{"both fields", `{"observation":{"a":-60},"records":[{"bssid":"a","rssi":-60}]}`, false},
		{"field case", `{"Observation":{"a":-60}}`, false},
		{"plus sign", `{"observation":{"a":+1}}`, false},
		{"trailing garbage", `{"observation":{"a":-60}} nope`, false},
		{"unknown field", `{"wat":1}`, false},
	}
	for _, c := range cases {
		if ok := singleParity(t, c.body); ok != c.wantFast {
			t.Errorf("%s: fast ok=%v, want %v", c.name, ok, c.wantFast)
		}
	}
}

// FuzzLocateDecode holds both hand-rolled scanners to encoding/json:
// on any body the fast path answers by itself, the slow path must give
// the same answer, accept with identical observations or refuse.
// Bodies the fast path declines go to the slow path in serving, so
// there is nothing to compare for them.
//
//	go test -run '^$' -fuzz FuzzLocateDecode -fuzztime 10s ./internal/server/
func FuzzLocateDecode(f *testing.F) {
	for _, seed := range []string{
		`{"observations":[{"aa:bb":-61.5,"cc:dd":-70},{"ee:ff":-4.5e1}]}`,
		`{"observations":[{"a":+1}]}`,
		`{"observations":[{"a":01},{"b":.5},{"c":1.}]}`,
		`{"observations":[{"aa:bb":-61.5}]}`,
		`{"observations":[{"a":-1},{"b":-2},{"c":-3},{"d":-4}]}`,
		`{"observation":{"aa:bb":-61.5,"cc:dd":-7E1}}`,
		`{"observation":{"a":-0,"b":0.25e-3}}`,
		`{"observation":{}}`,
		`{"records":[{"bssid":"a","rssi":-60}]}`,
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, body string) {
		batchParity(t, body, 3)
		singleParity(t, body)
	})
}

// allocsPerServe measures the allocations of one in-process ServeHTTP
// round trip of payload posted to path, after warming the pools.
func allocsPerServe(t *testing.T, srv *Server, path string, payload []byte) float64 {
	t.Helper()
	body := &resetReader{bytes.NewReader(payload)}
	req := httptest.NewRequest("POST", path, nil)
	req.Body = body
	req.ContentLength = int64(len(payload))
	nw := &nullWriter{h: make(http.Header)}
	serve := func() {
		body.Seek(0, io.SeekStart)
		srv.ServeHTTP(nw, req)
	}
	for i := 0; i < 20; i++ {
		serve()
	}
	allocs := testing.AllocsPerRun(200, serve)
	if nw.status != http.StatusOK {
		t.Fatalf("%s answered %d", path, nw.status)
	}
	return allocs
}

// TestSingleLocateAllocsAtMostBatchOfOne pins the one request codec: a
// single locate runs out of the batch arena, so it allocates no more
// than a /locate/batch of the same one observation, on the legacy
// route and the venue-scoped one.
func TestSingleLocateAllocsAtMostBatchOfOne(t *testing.T) {
	if raceEnabled {
		t.Skip("race-runtime allocations make the comparison nondeterministic")
	}
	f := newFixture(t)
	obs := f.averagedObservation(t, geom.Pt(25, 20))
	single, _ := json.Marshal(map[string]any{"observation": obs})
	batch := batchBody(t, []map[string]float64{obs})

	vf := newVenueFixture(t, 1, 1, venue.Config{})
	vpath := "/v1/venues/" + sim.VenueID(0, 0)
	vsingle := venueObservation(t, 0, 0)
	var vobs map[string]any
	if err := json.Unmarshal(vsingle, &vobs); err != nil {
		t.Fatal(err)
	}
	vbatch, _ := json.Marshal(map[string]any{"observations": []any{vobs["observation"]}})

	for _, c := range []struct {
		srv                   *Server
		singlePath, batchPath string
		single, batch         []byte
	}{
		{f.srv, "/locate", "/locate/batch", single, batch},
		{vf.srv, vpath + "/locate", vpath + "/locate/batch", vsingle, vbatch},
	} {
		s := allocsPerServe(t, c.srv, c.singlePath, c.single)
		b := allocsPerServe(t, c.srv, c.batchPath, c.batch)
		t.Logf("%s: %.1f allocs, %s of one: %.1f", c.singlePath, s, c.batchPath, b)
		if s > b {
			t.Errorf("%s allocates %.1f per request, more than a batch of one (%.1f)", c.singlePath, s, b)
		}
	}
}

// TestSingleMatchesBatchOfOne checks that the single and batch codecs
// give the same answer, field by field, on random house observations:
// captures at random points, and random RSSI over a random subset of
// the house's access points (some of which fail to localize).
func TestSingleMatchesBatchOfOne(t *testing.T) {
	f := newFixture(t)
	rng := rand.New(rand.NewSource(7))
	post := func(path string, body []byte) (int, map[string]any) {
		rec := httptest.NewRecorder()
		f.srv.ServeHTTP(rec, httptest.NewRequest("POST", path, bytes.NewReader(body)))
		var out map[string]any
		if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
			t.Fatalf("%s: body %q: %v", path, rec.Body.Bytes(), err)
		}
		return rec.Code, out
	}
	for i := 0; i < 60; i++ {
		var obs map[string]float64
		if i%2 == 0 {
			obs = f.averagedObservation(t, geom.Pt(rng.Float64()*50, rng.Float64()*40))
		} else {
			obs = map[string]float64{}
			for _, ap := range f.scen.APs {
				if rng.Intn(3) > 0 {
					obs[ap.BSSID] = -30 - 70*rng.Float64()
				}
			}
			if rng.Intn(4) == 0 {
				obs["02:00:00:00:00:99"] = -50 // an AP the map never heard
			}
		}
		single, _ := json.Marshal(map[string]any{"observation": obs})
		code, s := post("/locate", single)
		bcode, b := post("/locate/batch", batchBody(t, []map[string]float64{obs}))
		if bcode != http.StatusOK {
			t.Fatalf("obs %d: batch status %d: %v", i, bcode, b)
		}
		item := b["results"].([]any)[0].(map[string]any)
		if code != http.StatusOK {
			if len(obs) == 0 && code == http.StatusBadRequest {
				continue // an empty single body is a request error, not a locate error
			}
			if _, failed := item["error"]; !failed || code != http.StatusUnprocessableEntity {
				t.Errorf("obs %d: single status %d (%v), batch item %v", i, code, s, item)
			}
			continue
		}
		if s["algorithm"] != b["algorithm"] {
			t.Errorf("obs %d: algorithm %v vs %v", i, s["algorithm"], b["algorithm"])
		}
		for _, field := range []string{"x", "y", "location", "nearest_name", "room", "confidence_radius_ft", "error"} {
			if s[field] != item[field] {
				t.Errorf("obs %d %s: single %v, batch %v", i, field, s[field], item[field])
			}
		}
	}
}

// TestLocateOversizeBody checks that the arena's buffered read keeps
// the 413 contract on the single routes: a declared or chunked body
// over the route's cap answers 413 and closes the connection.
func TestLocateOversizeBody(t *testing.T) {
	f := newFixture(t, WithMaxBody(64))
	body := `{"observation":{"00:02:2d:00:00:0a":-30,"00:02:2d:00:00:0b":-70,"00:02:2d:00:00:0c":-62}}`
	for _, path := range []string{"/locate", "/track/cart-7"} {
		for _, chunked := range []bool{false, true} {
			req := httptest.NewRequest("POST", path, bytes.NewReader([]byte(body)))
			if chunked {
				req.ContentLength = -1
			}
			rec := httptest.NewRecorder()
			f.srv.ServeHTTP(rec, req)
			if rec.Code != http.StatusRequestEntityTooLarge || rec.Header().Get("Connection") != "close" {
				t.Errorf("%s chunked=%v: status %d, Connection %q", path, chunked, rec.Code, rec.Header().Get("Connection"))
			}
		}
	}
}
