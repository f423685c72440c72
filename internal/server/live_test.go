package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"indoorloc/internal/core"
	"indoorloc/internal/geom"
	"indoorloc/internal/ingest"
	"indoorloc/internal/trainingdb"
	"indoorloc/internal/venue"
)

// gridDB builds a synthetic database whose entry names encode their
// positions — "p_X_Y" at (X, Y) — so a response's ⟨name, position⟩
// pair is checkable for consistency by construction.
func gridDB(n int) *trainingdb.DB {
	db := &trainingdb.DB{Entries: make(map[string]*trainingdb.Entry)}
	for i := 0; i < n; i++ {
		x, y := (i%5)*10, (i/5)*10
		name := fmt.Sprintf("p_%d_%d", x, y)
		e := &trainingdb.Entry{Name: name, Pos: geom.Point{X: float64(x), Y: float64(y)}, PerAP: map[string]*trainingdb.APStats{}}
		for ap := 0; ap < 3; ap++ {
			s := &trainingdb.APStats{BSSID: fmt.Sprintf("ap%d", ap)}
			for k := 0; k < 4; k++ {
				s.AddSample(-45 - float64(i%13) - 2*float64(ap) - float64(k%2))
			}
			e.PerAP[s.BSSID] = s
		}
		db.Entries[name] = e
	}
	db.BSSIDs = []string{"ap0", "ap1", "ap2"}
	return db
}

// gridRebuilder mirrors locserved's rebuild: probabilistic locator and
// a name map regenerated from the entry set, so NearestName always
// resolves against the same world the estimate came from.
func gridRebuilder(db *trainingdb.DB) (*core.Service, error) {
	in, err := core.New(core.WithDB(db), core.WithEntryNames())
	if err != nil {
		return nil, err
	}
	return in.Service, nil
}

type liveFixture struct {
	mgr *ingest.Manager
	srv *Server
	ts  *httptest.Server
}

func newLiveFixture(t *testing.T, cfg ingest.Config) *liveFixture {
	t.Helper()
	if cfg.WALPath == "" {
		cfg.WALPath = filepath.Join(t.TempDir(), "reports.wal")
	}
	mgr, err := ingest.NewManager(gridDB(25), gridRebuilder, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { mgr.Close() })
	srv, err := NewLive(mgr, nil)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return &liveFixture{mgr: mgr, srv: srv, ts: ts}
}

func TestNewLiveValidation(t *testing.T) {
	if _, err := NewLive(nil, nil); err == nil {
		t.Error("nil manager accepted")
	}
}

func TestTrainReportSingleAndBatch(t *testing.T) {
	var (
		mu     sync.Mutex
		frozen *trainingdb.DB // the latest publish's database
	)
	f := newLiveFixture(t, ingest.Config{FlushReports: 1, FlushInterval: time.Hour,
		OnPublish: func(ev ingest.PublishEvent) { mu.Lock(); frozen = ev.DB; mu.Unlock() }})
	resp, body := postJSON(t, f.ts.URL+"/train/report",
		[]byte(`{"name":"p_0_0","observation":{"ap0":-44.5}}`))
	if resp.StatusCode != http.StatusAccepted || body["accepted"].(float64) != 1 {
		t.Fatalf("single: %d %v", resp.StatusCode, body)
	}
	resp, body = postJSON(t, f.ts.URL+"/train/report",
		[]byte(`{"reports":[{"name":"p_0_0","observation":{"ap0":-45}},{"pos":{"x":3,"y":1},"observation":{"ap1":-50}}]}`))
	if resp.StatusCode != http.StatusAccepted || body["accepted"].(float64) != 2 {
		t.Fatalf("batch: %d %v", resp.StatusCode, body)
	}
	deadline := time.Now().Add(5 * time.Second)
	for f.mgr.Stats().Folded < 3 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if st := f.mgr.Stats(); st.Folded != 3 {
		t.Fatalf("folded %d want 3 (stats %+v)", st.Folded, st)
	}
	// The folded samples show up in the state the served snapshot was
	// built from.
	var db *trainingdb.DB
	for time.Now().Before(deadline) {
		mu.Lock()
		db = frozen
		mu.Unlock()
		if db.Generation() == f.srv.Snapshot().Generation && f.mgr.Stats().Swaps == 3 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if s := db.Entries["p_0_0"].PerAP["ap0"]; s.N != 6 {
		t.Errorf("p_0_0/ap0 N=%d want 6", s.N)
	}

	for _, bad := range []string{
		`{"observation":{"ap0":-44.5}}`, // no name or pos
		`{"name":"p_0_0"}`,              // no observation
		`{"name":"p_0_0","observation":{"ap0":-44.5},"reports":[{"name":"x","observation":{"ap0":-1}}]}`, // both forms
		`{"reports":[]}`, // empty batch
		`{"name":"p_0_0","observation":{"ap0":5}}`, // RSSI out of range
		`not json`,
	} {
		resp, _ := postJSON(t, f.ts.URL+"/train/report", []byte(bad))
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("bad body %s: status %d want 400", bad, resp.StatusCode)
		}
	}
	if resp, _ := http.Get(f.ts.URL + "/train/report"); resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /train/report: %d", resp.StatusCode)
	} else {
		resp.Body.Close()
	}
}

func TestTrainReportBackpressure429(t *testing.T) {
	// Stall the compactor inside its first live publish, so the queue
	// fills deterministically: every later report holds its slot.
	entered, release := make(chan struct{}), make(chan struct{})
	publishes := 0
	f := newLiveFixture(t, ingest.Config{
		QueueDepth: 2, FlushReports: 1, FlushInterval: time.Hour,
		RetryAfter: 3 * time.Second,
		OnPublish: func(ingest.PublishEvent) {
			if publishes++; publishes == 2 {
				close(entered)
				<-release
			}
		},
	})
	t.Cleanup(func() { close(release) })
	post := func(n int) (*http.Response, map[string]any) {
		var reports []map[string]any
		for i := 0; i < n; i++ {
			reports = append(reports, map[string]any{"name": "p_0_0", "observation": map[string]float64{"ap0": -50}})
		}
		body, _ := json.Marshal(map[string]any{"reports": reports})
		return postJSON(t, f.ts.URL+"/train/report", body)
	}
	if resp, out := post(1); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first report: status %d (%v)", resp.StatusCode, out)
	}
	select {
	case <-entered:
	case <-time.After(5 * time.Second):
		t.Fatal("compactor never published the first report")
	}
	if resp, out := post(2); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("batch filling the queue: status %d (%v)", resp.StatusCode, out)
	}
	resp, out := post(1)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d want 429 (%v)", resp.StatusCode, out)
	}
	if got := resp.Header.Get("Retry-After"); got != "3" {
		t.Errorf("Retry-After %q want \"3\"", got)
	}
}

func TestHealthzStaticMetadata(t *testing.T) {
	f := newFixture(t)
	resp, body := getJSON(t, f.ts.URL+"/healthz")
	if resp.StatusCode != 200 {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if body["status"] != "ok" {
		t.Errorf("status field %v", body["status"])
	}
	if _, ok := body["generation"]; !ok {
		t.Error("no generation in static healthz")
	}
	if _, ok := body["built_at"]; !ok {
		t.Error("no built_at in static healthz")
	}
	if body["aps"].(float64) <= 0 || body["locations"].(float64) != 30 {
		t.Errorf("counts %v / %v", body["aps"], body["locations"])
	}
	if _, ok := body["ingest"]; ok {
		t.Error("static healthz carries ingest counters")
	}
}

// TestHealthzArtifactGeneration pins that a server over a compiled
// artifact (locserved -map-file) reports the artifact's generation.
func TestHealthzArtifactGeneration(t *testing.T) {
	db := gridDB(4)
	db.SetGeneration(57)
	path := filepath.Join(t.TempDir(), "map.ilr")
	if err := trainingdb.WriteCompiledFile(path, db.Compile(-95, 4)); err != nil {
		t.Fatal(err)
	}
	in, err := core.New(core.WithCompiledFile(path))
	if err != nil {
		t.Fatal(err)
	}
	defer in.Close()
	srv, err := New(in.Service, nil)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer func() { ts.Close(); srv.Close() }()
	_, body := getJSON(t, ts.URL+"/healthz")
	if gen, _ := body["generation"].(float64); gen != 57 {
		t.Errorf("healthz generation %v, want 57", body["generation"])
	}
}

func TestHealthzLiveMetadata(t *testing.T) {
	f := newLiveFixture(t, ingest.Config{FlushReports: 1, FlushInterval: time.Hour})
	gen0 := f.srv.Snapshot().Generation
	resp, body := postJSON(t, f.ts.URL+"/train/report",
		[]byte(`{"name":"p_10_10","observation":{"ap0":-47}}`))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %v", resp.StatusCode, body)
	}
	deadline := time.Now().Add(5 * time.Second)
	for f.mgr.Stats().Swaps < 1 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	resp, body = getJSON(t, f.ts.URL+"/healthz")
	if resp.StatusCode != 200 {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if gen := uint64(body["generation"].(float64)); gen <= gen0 {
		t.Errorf("generation %d did not advance past %d", gen, gen0)
	}
	if _, ok := body["last_swap"]; !ok {
		t.Error("no last_swap after a swap")
	}
	ing, ok := body["ingest"].(map[string]any)
	if !ok {
		t.Fatalf("no ingest counters: %v", body)
	}
	if ing["accepted"].(float64) != 1 || ing["folded"].(float64) != 1 {
		t.Errorf("ingest counters %v", ing)
	}
	if ing["queued"].(float64) != 0 {
		t.Errorf("queued %v want 0", ing["queued"])
	}
}

func getJSON(t *testing.T, url string) (*http.Response, map[string]any) {
	t.Helper()
	resp, err := http.Get(url)
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

// TestLocateBatchConsistentUnderIngest is the torn-read hammer: many
// clients pound /locate/batch while a writer streams training reports
// and the compactor swaps snapshots on every fold. Entry names encode
// their positions and the name map is rebuilt per snapshot, so any
// answer mixing two snapshots would betray itself: the location name
// would not match the coordinates, or the nearest name (resolved from
// the same snapshot's map) would not be the location itself. Run under
// -race this also proves the swap path publishes safely.
func TestLocateBatchConsistentUnderIngest(t *testing.T) {
	f := newLiveFixture(t, ingest.Config{FlushReports: 1, FlushInterval: time.Millisecond})

	obsBatch := func() []byte {
		var obs []map[string]float64
		for i := 0; i < 8; i++ {
			obs = append(obs, map[string]float64{
				"ap0": -45 - float64(i), "ap1": -50 - float64(i%7), "ap2": -52,
			})
		}
		b, _ := json.Marshal(map[string]any{"observations": obs})
		return b
	}()

	stop := make(chan struct{})
	var writer sync.WaitGroup
	// Writer: found new entries (names still encode positions) and
	// reinforce old ones, forcing constant generation churn.
	writer.Add(1)
	go func() {
		defer writer.Done()
		i := 0
		for {
			select {
			case <-stop:
				return
			default:
			}
			i++
			x, y := 100+i, 100+2*i
			report := map[string]any{
				"name": fmt.Sprintf("p_%d_%d", x, y),
				"pos":  map[string]float64{"x": float64(x), "y": float64(y)},
				"observation": map[string]float64{
					"ap0": -60 - float64(i%20), fmt.Sprintf("ap%d", i%5): -70,
				},
			}
			b, _ := json.Marshal(report)
			resp, err := http.Post(f.ts.URL+"/train/report", "application/json", bytes.NewReader(b))
			if err != nil {
				return
			}
			resp.Body.Close()
		}
	}()

	var readers sync.WaitGroup
	for c := 0; c < 4; c++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for n := 0; n < 50; n++ {
				resp, err := http.Post(f.ts.URL+"/locate/batch", "application/json", bytes.NewReader(obsBatch))
				if err != nil {
					t.Error(err)
					return
				}
				var out struct {
					Results []struct {
						X        float64 `json:"x"`
						Y        float64 `json:"y"`
						Location string  `json:"location"`
						Nearest  string  `json:"nearest_name"`
						Error    string  `json:"error"`
					} `json:"results"`
				}
				err = json.NewDecoder(resp.Body).Decode(&out)
				resp.Body.Close()
				if err != nil {
					t.Error(err)
					return
				}
				for _, r := range out.Results {
					if r.Error != "" {
						t.Errorf("locate error under ingest: %s", r.Error)
						continue
					}
					var x, y int
					if _, err := fmt.Sscanf(r.Location, "p_%d_%d", &x, &y); err != nil {
						t.Errorf("unparseable location %q", r.Location)
						continue
					}
					if float64(x) != r.X || float64(y) != r.Y {
						t.Errorf("torn pair: location %q at (%g, %g)", r.Location, r.X, r.Y)
					}
					if r.Nearest != r.Location {
						t.Errorf("torn snapshot: location %q but nearest %q", r.Location, r.Nearest)
					}
				}
			}
		}()
	}
	// Readers run to completion against live churn, then the writer is
	// released.
	readers.Wait()
	close(stop)
	writer.Wait()
	if f.mgr.Stats().Swaps == 0 {
		t.Error("no snapshot swaps happened; the hammer tested nothing")
	}
}

// TestTrainReportOversizeBody checks the 413 contract on both training
// routes: a body over the 8 MiB cap — chunked, or declared under a
// raised -max-body — answers 413 body_too_large instead of being cut
// short into a 400, and journals nothing.
func TestTrainReportOversizeBody(t *testing.T) {
	report := `{"name":"p_0_0","observation":{"ap0":-44.5}}`
	big := report + strings.Repeat(" ", maxBatchBody) // valid JSON, one report
	post := func(srv *Server, path, body string, chunked bool) *httptest.ResponseRecorder {
		req := httptest.NewRequest("POST", path, strings.NewReader(body))
		if chunked {
			req.ContentLength = -1
		}
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, req)
		return rec
	}

	// The single-venue live server, with the default cap and a raised one.
	live := newLiveFixture(t, ingest.Config{FlushInterval: time.Hour})
	raised, err := NewLive(live.mgr, nil, WithMaxBody(2*maxBatchBody))
	if err != nil {
		t.Fatal(err)
	}
	// A multi-venue server whose one .tdb venue trains live.
	dir, walDir := t.TempDir(), t.TempDir()
	if err := trainingdb.SaveFile(filepath.Join(dir, "grid.tdb"), gridDB(25)); err != nil {
		t.Fatal(err)
	}
	vr, err := venue.NewRegistry(venue.Config{Dir: dir, WALDir: walDir})
	if err != nil {
		t.Fatal(err)
	}
	multi, err := NewMultiVenue(vr, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { multi.Close(); vr.Close() })
	venueSeq := func() uint64 {
		v, err := vr.Acquire("grid")
		if err != nil {
			t.Fatal(err)
		}
		defer v.Release()
		return v.Manager().WAL().Seq()
	}

	for _, c := range []struct {
		name    string
		srv     *Server
		path    string
		chunked bool
		seq     func() uint64
	}{
		{"chunked", live.srv, "/train/report", true, live.mgr.WAL().Seq},
		{"declared under a raised cap", raised, "/train/report", false, live.mgr.WAL().Seq},
		{"venue chunked", multi, "/v1/venues/grid/train/report", true, venueSeq},
	} {
		if rec := post(c.srv, c.path, report, c.chunked); rec.Code != http.StatusAccepted {
			t.Fatalf("%s: small report answered %d %s", c.name, rec.Code, rec.Body)
		}
		before := c.seq()
		rec := post(c.srv, c.path, big, c.chunked)
		if rec.Code != http.StatusRequestEntityTooLarge || errCode(t, rec.Body.Bytes()) != codeBodyTooLarge {
			t.Errorf("%s: oversize body answered %d %s, want 413 %s", c.name, rec.Code, rec.Body, codeBodyTooLarge)
		}
		if after := c.seq(); after != before {
			t.Errorf("%s: WAL seq %d -> %d, want nothing journaled", c.name, before, after)
		}
	}
}

// TestVenueStatusShowsIngest checks that a multi-venue server reports
// a live venue's ingest counters: after one accepted training POST,
// both the venue's status and the listing show accepted 1.
func TestVenueStatusShowsIngest(t *testing.T) {
	dir, walDir := t.TempDir(), t.TempDir()
	if err := trainingdb.SaveFile(filepath.Join(dir, "grid.tdb"), gridDB(25)); err != nil {
		t.Fatal(err)
	}
	vr, err := venue.NewRegistry(venue.Config{Dir: dir, WALDir: walDir})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewMultiVenue(vr, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close(); vr.Close() })
	get := func(path string, into any) {
		t.Helper()
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("GET %s: %d %s", path, rec.Code, rec.Body)
		}
		if err := json.Unmarshal(rec.Body.Bytes(), into); err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
	}

	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/venues/grid/train/report",
		strings.NewReader(`{"name":"p_0_0","observation":{"ap0":-44.5}}`)))
	if rec.Code != http.StatusAccepted {
		t.Fatalf("train report: %d %s", rec.Code, rec.Body)
	}
	var st venue.Status
	get("/v1/venues/grid", &st)
	if st.Ingest == nil || st.Ingest.Accepted != 1 {
		t.Errorf("venue status ingest = %+v, want accepted 1", st.Ingest)
	}
	var list venuesResponse
	get("/v1/venues", &list)
	if len(list.Venues) != 1 || list.Venues[0].Ingest == nil || list.Venues[0].Ingest.Accepted != 1 {
		t.Errorf("venue listing = %+v, want grid with accepted 1", list.Venues)
	}
}

// TestTrainReportBatchTooLarge posts a batch deeper than the default
// report queue (1024): no backoff could ever admit it, so it answers
// 413 batch_too_large, not 429 with Retry-After, and journals nothing,
// on the unversioned and the venue route.
func TestTrainReportBatchTooLarge(t *testing.T) {
	body := `{"reports":[` + strings.Repeat(`{"name":"p_0_0","observation":{"ap0":-44.5}},`, 1024) +
		`{"name":"p_0_0","observation":{"ap0":-44.5}}]}`
	live := newLiveFixture(t, ingest.Config{FlushInterval: time.Hour})
	dir, walDir := t.TempDir(), t.TempDir()
	if err := trainingdb.SaveFile(filepath.Join(dir, "grid.tdb"), gridDB(25)); err != nil {
		t.Fatal(err)
	}
	vr, err := venue.NewRegistry(venue.Config{Dir: dir, WALDir: walDir})
	if err != nil {
		t.Fatal(err)
	}
	multi, err := NewMultiVenue(vr, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { multi.Close(); vr.Close() })
	venueMgr := func() *ingest.Manager {
		v, err := vr.Acquire("grid")
		if err != nil {
			t.Fatal(err)
		}
		defer v.Release()
		return v.Manager()
	}
	for _, c := range []struct {
		srv  *Server
		path string
		mgr  func() *ingest.Manager
	}{
		{live.srv, "/train/report", func() *ingest.Manager { return live.mgr }},
		{multi, "/v1/venues/grid/train/report", venueMgr},
	} {
		before := c.mgr().WAL().Seq()
		rec := httptest.NewRecorder()
		c.srv.ServeHTTP(rec, httptest.NewRequest("POST", c.path, strings.NewReader(body)))
		if rec.Code != http.StatusRequestEntityTooLarge || errCode(t, rec.Body.Bytes()) != codeBatchTooLarge || rec.Header().Get("Retry-After") != "" {
			t.Errorf("%s: 1025-report batch answered %d %s (Retry-After %q), want 413 %s",
				c.path, rec.Code, rec.Body, rec.Header().Get("Retry-After"), codeBatchTooLarge)
		}
		if st := c.mgr().Stats(); c.mgr().WAL().Seq() != before || st.RejectedFull != 0 {
			t.Errorf("%s: WAL seq %d -> %d, %d counted queue-full; want nothing journaled or counted",
				c.path, before, c.mgr().WAL().Seq(), st.RejectedFull)
		}
	}
}

// TestTrainReportAllocs pins the allocations of one 16-report training
// POST — body decode, validation, WAL append, queueing and the 202 —
// through the full ServeHTTP chain. The reports name no training
// location, so the compactor drops them without folding and its own
// allocations stay out of the count; the queue holds every report the
// runs send, so none is refused. The ceiling is the measured count: 66,
// four per report (its observation map; names come from the arena's
// intern table) and two per request. Through encoding/json the same
// POST cost 940.
func TestTrainReportAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-runtime allocations make the count nondeterministic")
	}
	f := newLiveFixture(t, ingest.Config{QueueDepth: 8192, FlushReports: 1 << 30, FlushInterval: time.Hour})
	reports := make([]ingest.Report, 16)
	for i := range reports {
		obs := map[string]float64{}
		for ap := 0; ap < 12; ap++ {
			obs[fmt.Sprintf("02:00:00:00:%02x:%02x", i%4, ap)] = -40 - float64(ap) - 0.1*float64(i)
		}
		reports[i] = ingest.Report{Name: fmt.Sprintf("unsurveyed-%d", i), Observation: obs}
	}
	body, err := json.Marshal(map[string]any{"reports": reports})
	if err != nil {
		t.Fatal(err)
	}
	allocs := allocsPerServeStatus(t, f.srv, "/train/report", body, http.StatusAccepted)
	t.Logf("one 16-report POST: %.1f allocs", allocs)
	const ceiling = 66
	if allocs > ceiling {
		t.Errorf("one 16-report POST allocates %.1f, over the ceiling of %d", allocs, ceiling)
	}
}
