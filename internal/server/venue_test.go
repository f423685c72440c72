package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"

	"indoorloc/internal/core"
	"indoorloc/internal/geom"
	"indoorloc/internal/ingest"
	"indoorloc/internal/localize"
	"indoorloc/internal/sim"
	"indoorloc/internal/trainingdb"
	"indoorloc/internal/venue"
)

// venueFixture is a multi-venue server over a synthetic city.
type venueFixture struct {
	srv *Server
	dir string
}

func newVenueFixture(t *testing.T, campuses, floors int, cfg venue.Config, opts ...Option) *venueFixture {
	t.Helper()
	dir := t.TempDir()
	if _, err := sim.WriteArtifacts(dir, sim.CityConfig{Campuses: campuses, Floors: floors, Seed: 42}); err != nil {
		t.Fatalf("WriteArtifacts: %v", err)
	}
	cfg.Dir = dir
	vr, err := venue.NewRegistry(cfg)
	if err != nil {
		t.Fatalf("NewRegistry: %v", err)
	}
	srv, err := NewMultiVenue(vr, nil, opts...)
	if err != nil {
		t.Fatalf("NewMultiVenue: %v", err)
	}
	t.Cleanup(func() { srv.Close(); vr.Close() })
	return &venueFixture{srv: srv, dir: dir}
}

// venueObservation captures a live observation inside one venue.
func venueObservation(t *testing.T, campus, floor int) []byte {
	t.Helper()
	s := sim.CityScenario(campus, floor)
	env, err := s.Environment()
	if err != nil {
		t.Fatalf("environment: %v", err)
	}
	sc := sim.NewScanner(env, 7)
	obs := localize.Observation{}
	for _, rec := range sc.Capture(geom.Pt(15, 15), 3, 0) {
		obs[rec.BSSID] = float64(rec.RSSI)
	}
	body, err := json.Marshal(map[string]any{"observation": obs})
	if err != nil {
		t.Fatal(err)
	}
	return body
}

func (f *venueFixture) do(t *testing.T, method, path string, body []byte) *httptest.ResponseRecorder {
	t.Helper()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req := httptest.NewRequest(method, path, rd)
	rec := httptest.NewRecorder()
	f.srv.ServeHTTP(rec, req)
	return rec
}

// errCode extracts the machine-readable code from an error envelope.
func errCode(t *testing.T, body []byte) string {
	t.Helper()
	var e errorResponse
	if err := json.Unmarshal(body, &e); err != nil {
		t.Fatalf("error body %q not a JSON envelope: %v", body, err)
	}
	return e.Error.Code
}

func TestMultiVenueServing(t *testing.T) {
	f := newVenueFixture(t, 2, 2, venue.Config{})

	// Two venues serve independently, each from its own radio map.
	for _, v := range [][2]int{{0, 0}, {1, 1}} {
		id := sim.VenueID(v[0], v[1])
		rec := f.do(t, "POST", "/v1/venues/"+id+"/locate", venueObservation(t, v[0], v[1]))
		if rec.Code != 200 {
			t.Fatalf("locate %s: status %d body %s", id, rec.Code, rec.Body)
		}
		var resp locateResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatalf("locate %s: %v", id, err)
		}
		out := sim.CityScenario(v[0], v[1]).Outline
		if !out.Contains(geom.Pt(resp.X, resp.Y)) {
			t.Errorf("venue %s estimate (%.1f, %.1f) outside its floor %v", id, resp.X, resp.Y, out)
		}
	}

	// The listing covers all four venues and reports residency.
	rec := f.do(t, "GET", "/v1/venues", nil)
	if rec.Code != 200 {
		t.Fatalf("list: status %d", rec.Code)
	}
	var list venuesResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &list); err != nil {
		t.Fatal(err)
	}
	if len(list.Venues) != 4 {
		t.Fatalf("listing has %d venues, want 4", len(list.Venues))
	}
	if list.Registry.Loaded != 2 || list.Registry.Loads != 2 {
		t.Errorf("registry stats after two cold loads: %+v", list.Registry)
	}

	// Status probes answer without loading the venue.
	rec = f.do(t, "GET", "/v1/venues/"+sim.VenueID(0, 1), nil)
	if rec.Code != 200 {
		t.Fatalf("status: %d body %s", rec.Code, rec.Body)
	}
	var st venue.Status
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.Loaded {
		t.Errorf("status probe must not cold-load the venue: %+v", st)
	}
	if got := f.srv.Venues().Stats().Loads; got != 2 {
		t.Errorf("loads after status probe = %d, want 2", got)
	}

	// Multi-venue health and metrics surfaces.
	rec = f.do(t, "GET", "/healthz", nil)
	if rec.Code != 200 || !strings.Contains(rec.Body.String(), `"multi-venue"`) {
		t.Errorf("healthz: %d %s", rec.Code, rec.Body)
	}
	rec = f.do(t, "GET", "/metrics", nil)
	if rec.Code != 200 || !strings.Contains(rec.Body.String(), "indoorloc_venues_loaded 2") {
		t.Errorf("metrics missing venue gauges: %d", rec.Code)
	}
}

// TestVenueRoutingEdgeCases pins the 404/405/409/414 taxonomy of the
// venue namespace: the structural no_route versus the resource-level
// venue_not_found stay distinguishable by code.
func TestVenueRoutingEdgeCases(t *testing.T) {
	f := newVenueFixture(t, 1, 1, venue.Config{})
	id := sim.VenueID(0, 0)
	obs := venueObservation(t, 0, 0)

	cases := []struct {
		name     string
		method   string
		path     string
		body     []byte
		want     int
		wantCode string
	}{
		{"known venue", "POST", "/v1/venues/" + id + "/locate", obs, 200, ""},
		{"unknown venue", "POST", "/v1/venues/no-such-venue/locate", obs, 404, codeVenueNotFound},
		{"over-long id", "POST", "/v1/venues/" + strings.Repeat("a", 100) + "/locate", obs, 404, codeVenueNotFound},
		{"over-long path", "POST", "/v1/venues/" + strings.Repeat("a", 1100) + "/locate", obs, 414, codePathTooLong},
		{"empty venue id", "POST", "/v1/venues//locate", obs, 404, codeNoRoute},
		{"bare namespace", "GET", "/v1/venues/", nil, 404, codeNoRoute},
		{"unknown sub-path", "POST", "/v1/venues/" + id + "/nope", obs, 404, codeNoRoute},
		{"trailing slash", "POST", "/v1/venues/" + id + "/locate/", obs, 404, codeNoRoute},
		{"dot-segment id", "POST", "/v1/venues/%2e%2e/locate", obs, 404, codeNoRoute},
		{"percent-encoded id", "POST", "/v1/venues/campus%2D000%2Dfloor%2D0/locate", obs, 200, ""},
		{"wrong method", "GET", "/v1/venues/" + id + "/locate", nil, 405, codeMethodNotAllowed},
		{"status of unknown", "GET", "/v1/venues/no-such-venue", nil, 404, codeVenueNotFound},
		{"frozen training", "POST", "/v1/venues/" + id + "/train/report",
			[]byte(`{"name":"x","observation":{"a":-50}}`), 409, codeVenueFrozen},
		{"track deep subpath", "POST", "/v1/venues/" + id + "/track/a/b", obs, 404, codeNoRoute},
	}
	for _, tt := range cases {
		t.Run(tt.name, func(t *testing.T) {
			rec := f.do(t, tt.method, tt.path, tt.body)
			if rec.Code != tt.want {
				t.Fatalf("status %d, want %d (body %s)", rec.Code, tt.want, rec.Body)
			}
			if tt.wantCode != "" {
				if got := errCode(t, rec.Body.Bytes()); got != tt.wantCode {
					t.Errorf("code %q, want %q", got, tt.wantCode)
				}
			}
		})
	}
}

// TestVenueTrackScoping: the same client id in two venues is two
// independent tracks.
func TestVenueTrackScoping(t *testing.T) {
	f := newVenueFixture(t, 2, 1, venue.Config{})
	a, b := sim.VenueID(0, 0), sim.VenueID(1, 0)

	if rec := f.do(t, "POST", "/v1/venues/"+a+"/track/cart-7", venueObservation(t, 0, 0)); rec.Code != 200 {
		t.Fatalf("track post: %d %s", rec.Code, rec.Body)
	}
	// The other venue never saw cart-7.
	rec := f.do(t, "DELETE", "/v1/venues/"+b+"/track/cart-7", nil)
	if rec.Code != 404 || errCode(t, rec.Body.Bytes()) != codeTrackNotFound {
		t.Fatalf("cross-venue delete: %d %s", rec.Code, rec.Body)
	}
	if rec := f.do(t, "DELETE", "/v1/venues/"+a+"/track/cart-7", nil); rec.Code != 200 {
		t.Fatalf("same-venue delete: %d %s", rec.Code, rec.Body)
	}
}

// TestLegacyAliasDefaultVenue: the unversioned routes serve the
// configured default venue; without one they answer venue_not_found.
// Runs in the race lane too — concurrent alias and versioned traffic
// share one venue's snapshot and tracker scope.
func TestLegacyAliasDefaultVenue(t *testing.T) {
	def := sim.VenueID(0, 0)
	f := newVenueFixture(t, 1, 1, venue.Config{Default: def})
	obs := venueObservation(t, 0, 0)

	for _, path := range []string{"/locate", "/v1/venues/" + def + "/locate"} {
		if rec := f.do(t, "POST", path, obs); rec.Code != 200 {
			t.Fatalf("%s: %d %s", path, rec.Code, rec.Body)
		}
	}
	if rec := f.do(t, "GET", "/locations", nil); rec.Code != 200 {
		t.Fatalf("/locations alias: %d %s", rec.Code, rec.Body)
	}
	// Alias and versioned route share the default venue's track scope.
	if rec := f.do(t, "POST", "/track/cart-1", obs); rec.Code != 200 {
		t.Fatalf("/track alias post: %d %s", rec.Code, rec.Body)
	}
	if rec := f.do(t, "DELETE", "/v1/venues/"+def+"/track/cart-1", nil); rec.Code != 200 {
		t.Fatalf("versioned delete of alias track: %d %s", rec.Code, rec.Body)
	}
	// Frozen default venue refuses training through the alias too.
	rec := f.do(t, "POST", "/train/report", []byte(`{"name":"x","observation":{"a":-50}}`))
	if rec.Code != 409 || errCode(t, rec.Body.Bytes()) != codeVenueFrozen {
		t.Fatalf("/train/report alias: %d %s", rec.Code, rec.Body)
	}

	// Concurrent alias + versioned traffic on one venue.
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			path := "/locate"
			if i%2 == 0 {
				path = "/v1/venues/" + def + "/locate"
			}
			for j := 0; j < 5; j++ {
				rec := f.do(t, "POST", path, obs)
				if rec.Code != 200 {
					t.Errorf("%s: %d", path, rec.Code)
					return
				}
			}
		}(i)
	}
	wg.Wait()

	// No default configured: aliases answer venue_not_found, the
	// versioned route still works.
	g := newVenueFixture(t, 1, 1, venue.Config{})
	rec = g.do(t, "POST", "/locate", obs)
	if rec.Code != 404 || errCode(t, rec.Body.Bytes()) != codeVenueNotFound {
		t.Fatalf("aliased locate without default: %d %s", rec.Code, rec.Body)
	}
}

// TestVenueEvictionUnderServing drives traffic across more venues than
// the budget admits and expects evictions — observable at /metrics —
// while every request still answers.
func TestVenueEvictionUnderServing(t *testing.T) {
	dir := t.TempDir()
	if _, err := sim.WriteArtifacts(dir, sim.CityConfig{Campuses: 3, Floors: 1, Seed: 42}); err != nil {
		t.Fatal(err)
	}
	var maxFile int64
	ents, _ := os.ReadDir(dir)
	for _, e := range ents {
		if info, err := e.Info(); err == nil && info.Size() > maxFile {
			maxFile = info.Size()
		}
	}
	vr, err := venue.NewRegistry(venue.Config{Dir: dir, MaxBytes: maxFile})
	if err != nil {
		t.Fatal(err)
	}
	defer vr.Close()
	srv, err := NewMultiVenue(vr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	f := &venueFixture{srv: srv, dir: dir}

	for round := 0; round < 2; round++ {
		for ca := 0; ca < 3; ca++ {
			id := sim.VenueID(ca, 0)
			rec := f.do(t, "POST", "/v1/venues/"+id+"/locate", venueObservation(t, ca, 0))
			if rec.Code != 200 {
				t.Fatalf("locate %s round %d: %d %s", id, round, rec.Code, rec.Body)
			}
		}
	}
	st := vr.Stats()
	if st.Evictions == 0 {
		t.Errorf("no evictions under a one-venue budget: %+v", st)
	}
	if st.ResidentBytes > maxFile {
		t.Errorf("resident %d exceeds budget %d", st.ResidentBytes, maxFile)
	}
	body := f.do(t, "GET", "/metrics", nil).Body.String()
	if !strings.Contains(body, "indoorloc_venue_evictions_total") {
		t.Errorf("eviction counter missing from /metrics")
	}
}

// TestVenueLocateAllocParity proves venue resolution adds zero
// allocations: a full ServeHTTP round trip on the venue route costs no
// more than invoking the shared locate handler directly with the
// venue's already-resolved service.
func TestVenueLocateAllocParity(t *testing.T) {
	if raceEnabled {
		t.Skip("race-runtime allocations make handler parity nondeterministic")
	}
	f := newVenueFixture(t, 1, 1, venue.Config{})
	id := sim.VenueID(0, 0)
	path := "/v1/venues/" + id + "/locate"
	payload := venueObservation(t, 0, 0)

	v, err := f.srv.Venues().Acquire(id)
	if err != nil {
		t.Fatal(err)
	}
	defer v.Release()
	svc := v.Snapshot().Service

	body := &resetReader{bytes.NewReader(payload)}
	run := func(serve func(w http.ResponseWriter, r *http.Request)) float64 {
		req := httptest.NewRequest("POST", path, nil)
		req.Body = body
		req.ContentLength = int64(len(payload))
		nw := &nullWriter{h: make(http.Header)}
		for i := 0; i < 20; i++ {
			body.Seek(0, io.SeekStart)
			serve(nw, req)
		}
		return testing.AllocsPerRun(100, func() {
			body.Seek(0, io.SeekStart)
			serve(nw, req)
		})
	}
	direct := run(func(w http.ResponseWriter, r *http.Request) { f.srv.locate(w, r, svc) })
	full := run(f.srv.ServeHTTP)
	t.Logf("venue locate: direct=%.1f full=%.1f", direct, full)
	if delta := full - direct; delta > 0.5 {
		t.Errorf("venue resolution + front end adds %.2f allocs/request, want 0", delta)
	}
}

// TestArtifactVenueReadsView checks that an artifact venue reads its
// locations, AP count and generation from the compiled view exactly as
// the database they were compiled from reports them: /locations byte
// for byte, /healthz locations/aps/generation, and venue status
// Locations.
func TestArtifactVenueReadsView(t *testing.T) {
	scen := sim.PaperHouse()
	env, err := scen.Environment()
	if err != nil {
		t.Fatal(err)
	}
	grid, err := scen.TrainingPoints()
	if err != nil {
		t.Fatal(err)
	}
	built, _, err := trainingdb.Generate(sim.NewScanner(env, 41).CaptureCollection(grid, 20), grid, trainingdb.Options{})
	if err != nil {
		t.Fatal(err)
	}
	tdbDir, ilrDir := t.TempDir(), t.TempDir()
	tdbPath, ilrPath := filepath.Join(tdbDir, "house.tdb"), filepath.Join(ilrDir, "house.ilr")
	if err := trainingdb.SaveFile(tdbPath, built); err != nil {
		t.Fatal(err)
	}
	db, err := trainingdb.LoadFile(tdbPath)
	if err != nil {
		t.Fatal(err)
	}
	// A nonzero generation, so /healthz must carry the view's own.
	db.SetGeneration(5)
	if err := trainingdb.WriteCompiledFile(ilrPath, db.Compile(-95, 4)); err != nil {
		t.Fatal(err)
	}

	get := func(srv *Server, path string) []byte {
		t.Helper()
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("GET %s: %d %s", path, rec.Code, rec.Body)
		}
		return rec.Body.Bytes()
	}

	// Multi-venue: the same venue id served from each source.
	var locs [2][]byte
	var status [2]venue.Status
	for i, dir := range []string{tdbDir, ilrDir} {
		vr, err := venue.NewRegistry(venue.Config{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		srv, err := NewMultiVenue(vr, nil)
		if err != nil {
			t.Fatal(err)
		}
		locs[i] = get(srv, "/v1/venues/house/locations")
		if status[i], err = vr.Status("house"); err != nil {
			t.Fatal(err)
		}
		srv.Close()
		vr.Close()
	}
	if !bytes.Equal(locs[0], locs[1]) {
		t.Errorf("/locations differ:\n.tdb %s\n.ilr %s", locs[0], locs[1])
	}
	if status[0].Locations != db.Len() || status[1].Locations != db.Len() {
		t.Errorf("status locations: .tdb %d, .ilr %d, want %d", status[0].Locations, status[1].Locations, db.Len())
	}

	// Single service: /healthz and /locations over each source.
	fromDB, err := core.New(core.WithDB(db), core.WithEntryNames())
	if err != nil {
		t.Fatal(err)
	}
	fromArtifact, err := core.New(core.WithCompiledFile(ilrPath))
	if err != nil {
		t.Fatal(err)
	}
	defer fromArtifact.Close()
	type health struct {
		Locations  int    `json:"locations"`
		APs        int    `json:"aps"`
		Generation uint64 `json:"generation"`
	}
	var h [2]health
	for i, in := range []*core.Instance{fromDB, fromArtifact} {
		srv, err := New(in.Service, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(get(srv, "/healthz"), &h[i]); err != nil {
			t.Fatal(err)
		}
		if l := get(srv, "/locations"); !bytes.Equal(l, locs[0]) {
			t.Errorf("source %d: /locations %s, want %s", i, l, locs[0])
		}
		srv.Close()
	}
	if want := (health{db.Len(), len(db.BSSIDs), db.Generation()}); h[0] != want || h[1] != want {
		t.Errorf("/healthz: .tdb %+v, .ilr %+v, want %+v", h[0], h[1], want)
	}
}

// TestRetiredArtifactVenue pins how the venue tier answers a venue
// whose .ilr is in a retired layout: 500 venue_load_failed carrying
// the recompile hint, while a sibling venue in the same registry keeps
// serving.
func TestRetiredArtifactVenue(t *testing.T) {
	f := newVenueFixture(t, 1, 1, venue.Config{})
	retired, _ := filepath.Glob(filepath.Join("..", "trainingdb", "testdata", "legacy", "*.ilr"))
	if len(retired) != 4 {
		t.Fatalf("%d retired artifacts, want 4", len(retired))
	}
	sibling := "/v1/venues/" + sim.VenueID(0, 0) + "/locate"
	obs := venueObservation(t, 0, 0)
	for _, path := range retired {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		id := "retired-" + strings.TrimSuffix(filepath.Base(path), ".ilr")
		if err := os.WriteFile(filepath.Join(f.dir, id+".ilr"), data, 0o644); err != nil {
			t.Fatal(err)
		}
		rec := f.do(t, "POST", "/v1/venues/"+id+"/locate", obs)
		var e errorResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil {
			t.Fatalf("%s: body %q: %v", id, rec.Body, err)
		}
		if rec.Code != http.StatusInternalServerError || e.Error.Code != codeVenueLoadFailed ||
			!strings.Contains(e.Error.Message, "tdbtool compile") {
			t.Errorf("%s: %d %+v, want 500 %s naming tdbtool compile", id, rec.Code, e.Error, codeVenueLoadFailed)
		}
		if rec := f.do(t, "POST", sibling, obs); rec.Code != 200 {
			t.Fatalf("sibling after %s: status %d body %s", id, rec.Code, rec.Body)
		}
	}
	if st := f.srv.Venues().Stats(); st.LoadErrors != 4 || st.Loaded != 1 {
		t.Errorf("registry stats %+v, want 4 load errors and the sibling loaded", st)
	}
}

// TestRouteTablePerKind pins each kind of server's routes, in order:
// one set of handlers serves them all, and a static server still has
// no training endpoint while a follower keeps one that answers 409.
func TestRouteTablePerKind(t *testing.T) {
	serving := []string{"locations", "locate", "locate_batch", "track"}
	front := []string{"healthz", "algorithms", "metrics"}
	repl := newReplFixture(t)
	static := newFixture(t)
	for _, c := range []struct {
		kind string
		srv  *Server
		want []string
	}{
		{"static", static.srv, slices.Concat(front, serving, []string{"other"})},
		{"live", newLiveFixture(t, ingest.Config{}).srv, slices.Concat(front, serving, []string{"train_report", "other"})},
		{"trainer", repl.trainer, slices.Concat(front, serving,
			[]string{"train_report", "replicate_snapshot", "replicate_wal", "other"})},
		{"follower", repl.follower, slices.Concat(front, serving, []string{"train_report", "other"})},
		{"multi-venue", newVenueFixture(t, 1, 1, venue.Config{}).srv, slices.Concat(front,
			[]string{"venues", "venue_status", "venue_locations", "venue_locate", "venue_locate_batch", "venue_track", "venue_train"},
			serving, []string{"train_report", "other"})},
	} {
		if got := c.srv.Metrics().Names(); !slices.Equal(got, c.want) {
			t.Errorf("%s routes:\n got %v\nwant %v", c.kind, got, c.want)
		}
	}
	rec := httptest.NewRecorder()
	static.srv.ServeHTTP(rec, httptest.NewRequest("POST", "/train/report", strings.NewReader(`{"name":"a","observation":{"b":-50}}`)))
	if rec.Code != http.StatusNotFound || errCode(t, rec.Body.Bytes()) != codeNoRoute {
		t.Errorf("static /train/report answered %d %s, want 404 %s", rec.Code, rec.Body, codeNoRoute)
	}
}
