package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
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
	fast := &batchArena{}
	fast.body.WriteString(body)
	fn, ferr, ok := fast.decodeFast(max)
	if !ok {
		return false
	}
	slow := &batchArena{}
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
	fast := &batchArena{}
	fast.body.WriteString(body)
	fo, ok := fast.decodeLocateFast()
	if !ok {
		return false
	}
	slow := &batchArena{}
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
	return allocsPerServeStatus(t, srv, path, payload, http.StatusOK)
}

// allocsPerServeStatus is allocsPerServe for a route that answers
// status.
func allocsPerServeStatus(t *testing.T, srv *Server, path string, payload []byte, status int) float64 {
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
	if nw.status != status {
		t.Fatalf("%s answered %d, want %d", path, nw.status, status)
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

// TestSingleVenueAllocs pins one request's allocations on a New server
// at the measured counts. The server's one venue has the empty tracker
// scope, so a /track key is the bare client id and costs nothing.
func TestSingleVenueAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-runtime allocations make the count nondeterministic")
	}
	f := newFixture(t)
	obs := f.averagedObservation(t, geom.Pt(25, 20))
	single, _ := json.Marshal(map[string]any{"observation": obs})
	for _, c := range []struct {
		path    string
		body    []byte
		ceiling float64
	}{
		{"/locate", single, 1},
		{"/locate/batch", batchBody(t, []map[string]float64{obs}), 3},
		{"/track/cart-7", single, 1},
	} {
		if got := allocsPerServe(t, f.srv, c.path, c.body); got > c.ceiling {
			t.Errorf("%s allocates %.1f per request, over the ceiling of %.0f", c.path, got, c.ceiling)
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

// TestLocateOversizeBodyRaisedCap checks that the router's cap is the
// only one on the locate routes: under a cap raised past maxBatchBody,
// a body of exactly maxBatchBody is answered, and a longer one,
// declared or chunked, answers 413 body_too_large.
func TestLocateOversizeBodyRaisedCap(t *testing.T) {
	f := newFixture(t, WithMaxBody(2*maxBatchBody))
	obs := `{"00:02:2d:00:00:0a":-30,"00:02:2d:00:00:0b":-70,"00:02:2d:00:00:0c":-62}`
	for _, c := range []struct{ path, body string }{
		{"/locate", `{"observation":` + obs + `}`},
		{"/locate/batch", `{"observations":[` + obs + `]}`},
	} {
		fits := c.body + strings.Repeat(" ", maxBatchBody-len(c.body))
		for _, chunked := range []bool{false, true} {
			for _, body := range []string{fits, fits + " "} {
				req := httptest.NewRequest("POST", c.path, strings.NewReader(body))
				if chunked {
					req.ContentLength = -1
				}
				rec := httptest.NewRecorder()
				f.srv.ServeHTTP(rec, req)
				if len(body) == maxBatchBody {
					if rec.Code != http.StatusOK {
						t.Errorf("%s chunked=%v: a body of the cap answered %d %s", c.path, chunked, rec.Code, rec.Body)
					}
				} else if rec.Code != http.StatusRequestEntityTooLarge || errCode(t, rec.Body.Bytes()) != codeBodyTooLarge {
					t.Errorf("%s chunked=%v: oversize body answered %d %s, want 413 %s",
						c.path, chunked, rec.Code, rec.Body, codeBodyTooLarge)
				}
			}
		}
	}
}

// trainParity decodes body with both train decoders and reports any
// disagreement. It returns whether the fast path answered by itself.
func trainParity(t *testing.T, body string) bool {
	t.Helper()
	fast := &batchArena{}
	fast.body.WriteString(body)
	got, ok := fast.decodeTrainFast()
	if !ok {
		return false
	}
	slow := &batchArena{}
	slow.body.WriteString(body)
	want, err := slow.decodeTrainSlow()
	switch {
	case err != nil:
		t.Errorf("%q: fast accepted what slow refuses: %v", body, err)
	case !reflect.DeepEqual(got, want):
		t.Errorf("%q: fast %#v, slow %#v", body, got, want)
	}
	for _, r := range fast.reports[:cap(fast.reports)] {
		if r.Name != "" || r.Pos != nil || r.Observation != nil {
			t.Errorf("%q: fast path left report %#v in the arena", body, r)
		}
	}
	return true
}

// TestDecodeTrainFastSlowParity pins which /train/report bodies the
// scanner answers by itself — the batch and the inline single report,
// members in any order — and that every other shape, including each
// error case, is left to encoding/json.
func TestDecodeTrainFastSlowParity(t *testing.T) {
	cases := []struct {
		name     string
		body     string
		wantFast bool
	}{
		{"single", `{"name":"p_0_0","observation":{"ap0":-44.5}}`, true},
		{"single any order", ` {"observation":{"ap0":-44.5},"pos":{"y":1,"x":3}} `, true},
		{"single pos only", `{"pos":{"x":3,"y":1}}`, true},
		{"batch", `{"reports":[{"name":"p_0_0","observation":{"ap0":-45}},{"pos":{"x":3,"y":1},"observation":{"ap1":-50}}]}`, true},
		{"batch of an empty report", `{"reports":[{}]}`, true},
		{"empty batch", `{"reports":[]}`, false},
		{"empty single", `{}`, false},
		{"empty observation only", `{"observation":{}}`, false},
		{"both forms", `{"name":"p_0_0","observation":{"ap0":-44.5},"reports":[{"name":"x","observation":{"ap0":-1}}]}`, false},
		{"batch then field", `{"reports":[{"name":"x","observation":{"ap0":-1}}],"name":"y"}`, false},
		{"null reports", `{"reports":null}`, false},
		{"unknown field", `{"name":"p_0_0","observation":{"ap0":-44.5},"wat":1}`, false},
		{"unknown report field", `{"reports":[{"name":"x","wat":1}]}`, false},
		{"field case", `{"Reports":[{"name":"x","observation":{"ap0":-1}}]}`, false},
		{"escaped BSSID", `{"name":"x","observation":{"ap\u0030":-1}}`, false},
		{"trailing garbage", `{"name":"x","observation":{"ap0":-1}} nope`, false},
		{"trailing comma", `{"reports":[{"name":"x","observation":{"ap0":-1}},]}`, false},
		{"not json", `not json`, false},
	}
	for _, c := range cases {
		if ok := trainParity(t, c.body); ok != c.wantFast {
			t.Errorf("%s: fast ok=%v, want %v", c.name, ok, c.wantFast)
		}
	}
}

// TestTrainScratchBounded checks that the pooled arena keeps the
// capacity of an ordinary batch's decode scratch but drops the one a
// body of many tiny reports grew.
func TestTrainScratchBounded(t *testing.T) {
	decode := func(a *batchArena, n int) {
		t.Helper()
		a.body.Reset()
		a.body.WriteString(`{"reports":[{}` + strings.Repeat(`,{}`, n-1) + `]}`)
		if got, ok := a.decodeTrainFast(); !ok || len(got) != n {
			t.Fatalf("%d reports: fast ok=%v, decoded %d", n, ok, len(got))
		}
	}
	a := &batchArena{}
	decode(a, 16)
	if cap(a.reports) == 0 {
		t.Error("a 16-report batch left no scratch to reuse")
	}
	decode(a, 4*maxReportScratch)
	if c := cap(a.reports); c > maxReportScratch {
		t.Errorf("the arena kept a scratch of capacity %d, want at most %d", c, maxReportScratch)
	}
}

// FuzzTrainDecode holds the /train/report scanner to encoding/json, as
// FuzzLocateDecode does the locate scanners: on any body the fast path
// answers by itself, the slow path must accept it with identical
// reports.
//
//	go test -run '^$' -fuzz FuzzTrainDecode -fuzztime 10s ./internal/server/
func FuzzTrainDecode(f *testing.F) {
	for _, seed := range []string{
		`{"name":"p_0_0","observation":{"ap0":-44.5}}`,
		`{"observation":{"ap0":-44.5,"ap0":-3},"pos":{"y":1,"x":3e0},"name":"n"}`,
		`{"reports":[{"name":"p_0_0","observation":{"ap0":-45}},{"pos":{"x":3,"y":1},"observation":{"ap1":-50}}]}`,
		`{"reports":[{}]}`,
		`{"reports":[]}`,
		`{"name":"x","observation":{"ap0":-1},"reports":[{"name":"x","observation":{"ap0":-1}}]}`,
		`{"pos":{"x":1,"x":2},"observation":{"a":-1}}`,
		`{"name":"x","observation":null}`,
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, body string) {
		trainParity(t, body)
	})
}
