package server

import (
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"indoorloc/internal/geom"
	"indoorloc/internal/ingest"
)

func scrape(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("scrape status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("scrape content type %q", ct)
	}
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestMetricsScrapeParity drives known traffic through the server and
// asserts the exposition reports exactly that traffic, route by route
// and class by class.
func TestMetricsScrapeParity(t *testing.T) {
	f := newFixture(t)
	body := f.observationBody(t, geom.Pt(25, 20))
	for i := 0; i < 3; i++ {
		resp, _ := postJSON(t, f.ts.URL+"/locate", body)
		if resp.StatusCode != 200 {
			t.Fatalf("locate status %d", resp.StatusCode)
		}
	}
	// One 405 on the locate route, one unroutable 404, one live track.
	resp, err := http.Get(f.ts.URL + "/locate")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	resp, err = http.Get(f.ts.URL + "/no/such/path")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	postJSON(t, f.ts.URL+"/track/scraper-client", body)

	scrape(t, f.ts.URL) // the scrape route must count itself...
	out := scrape(t, f.ts.URL)

	for _, want := range []string{
		`indoorloc_http_requests_total{route="locate",class="2xx"} 3`,
		`indoorloc_http_requests_total{route="locate",class="4xx"} 1`,
		`indoorloc_http_requests_total{route="other",class="4xx"} 1`,
		`indoorloc_http_requests_total{route="metrics",class="2xx"} 1`, // ...on the next scrape
		`indoorloc_http_requests_total{route="track",class="2xx"} 1`,
		`indoorloc_http_request_duration_seconds_count{route="locate"} 4`,
		`indoorloc_tracks_active 1`,
		`indoorloc_http_panics_total 0`,
		`indoorloc_http_timeouts_total 0`,
		"# TYPE indoorloc_http_request_duration_seconds histogram",
		"indoorloc_snapshot_generation",
		"indoorloc_uptime_seconds",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	// The registry must agree with the text exposition.
	reg := f.srv.Metrics()
	for i, name := range reg.Names() {
		if name == "locate" {
			if got := reg.RouteCount(i); got != 4 {
				t.Errorf("registry locate count %d, want 4", got)
			}
		}
	}
}

// TestMetricsConcurrentScrapeUnderLoad hammers /locate while scraping
// /metrics — the scrape must never block, corrupt or miscount the hot
// path. Run under -race in CI, this is the data-race assertion for the
// whole metrics layer.
func TestMetricsConcurrentScrapeUnderLoad(t *testing.T) {
	f := newFixture(t)
	body := f.observationBody(t, geom.Pt(25, 20))
	const workers, each = 4, 40
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				resp, _ := postJSON(t, f.ts.URL+"/locate", body)
				if resp.StatusCode != 200 {
					t.Errorf("locate status %d", resp.StatusCode)
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 30; i++ {
			scrape(t, f.ts.URL)
		}
	}()
	wg.Wait()
	out := scrape(t, f.ts.URL)
	want := fmt.Sprintf(`indoorloc_http_requests_total{route="locate",class="2xx"} %d`, workers*each)
	if !strings.Contains(out, want) {
		t.Errorf("final scrape missing %q", want)
	}
}

// TestMetricsIngestCounters pins the ingest failure counters in the
// exposition: an artifact path in a missing directory fails the
// initial build's artifact write and every swap's, and /metrics
// reports exactly what Stats counts.
func TestMetricsIngestCounters(t *testing.T) {
	f := newLiveFixture(t, ingest.Config{FlushReports: 1, FlushInterval: time.Hour,
		ArtifactPath: filepath.Join(t.TempDir(), "missing", "map.ilr")})
	resp, _ := postJSON(t, f.ts.URL+"/train/report", []byte(`{"name":"p_0_0","observation":{"ap0":-44.5}}`))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("report status %d", resp.StatusCode)
	}
	deadline := time.Now().Add(5 * time.Second)
	st := f.mgr.Stats()
	for (st.Swaps == 0 || st.ArtifactErrors != st.Swaps+1) && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
		st = f.mgr.Stats()
	}
	if st.Swaps != 1 || st.ArtifactErrors != 2 || st.Artifacts != 0 {
		t.Fatalf("want one swap and two failed artifact writes, stats %+v", st)
	}
	out := scrape(t, f.ts.URL)
	for _, want := range []string{
		"# TYPE indoorloc_ingest_artifact_errors_total counter",
		fmt.Sprintf("indoorloc_ingest_artifact_errors_total %d", st.ArtifactErrors),
		fmt.Sprintf("indoorloc_ingest_artifacts_total %d", st.Artifacts),
		fmt.Sprintf("indoorloc_ingest_dropped_total %d", st.Dropped),
		fmt.Sprintf("indoorloc_ingest_swap_errors_total %d", st.SwapErrors),
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

// TestMetricsIngestPublishesByKind pins the publish split on /metrics:
// a fold into an existing cell patches the served view, a report that
// brings a new AP rebuilds it in full, and the two series share one
// HELP/TYPE header.
func TestMetricsIngestPublishesByKind(t *testing.T) {
	f := newLiveFixture(t, ingest.Config{FlushReports: 1, FlushInterval: time.Hour})
	for i, body := range []string{
		`{"name":"p_0_0","observation":{"ap0":-44.5}}`,
		`{"name":"p_10_0","observation":{"apNEW":-70}}`,
	} {
		resp, _ := postJSON(t, f.ts.URL+"/train/report", []byte(body))
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("report %d status %d", i, resp.StatusCode)
		}
		deadline := time.Now().Add(5 * time.Second)
		for f.mgr.Stats().Swaps < uint64(i+1) && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
	}
	if st := f.mgr.Stats(); st.PatchedSwaps != 1 || st.FullSwaps != 1 {
		t.Fatalf("want one patched and one full swap, stats %+v", st)
	}
	out := scrape(t, f.ts.URL)
	want := "# TYPE indoorloc_ingest_publishes_total counter\n" +
		`indoorloc_ingest_publishes_total{kind="patch"} 1` + "\n" +
		`indoorloc_ingest_publishes_total{kind="full"} 1` + "\n"
	if !strings.Contains(out, want) {
		t.Errorf("exposition missing %q\n%s", want, out)
	}
	if n := strings.Count(out, "# TYPE indoorloc_ingest_publishes_total"); n != 1 {
		t.Errorf("%d TYPE lines for the publish counter, want 1", n)
	}
}
