package metrics

import (
	"bytes"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestHistogramObserveAndCount(t *testing.T) {
	var h Histogram
	durations := []time.Duration{
		50 * time.Microsecond,  // bucket 0
		100 * time.Microsecond, // bucket 0 (bounds are inclusive)
		101 * time.Microsecond, // bucket 1
		3 * time.Millisecond,   // 5ms bucket
		20 * time.Second,       // +Inf
	}
	for _, d := range durations {
		h.Observe(d)
	}
	if got := h.Count(); got != uint64(len(durations)) {
		t.Fatalf("count %d, want %d", got, len(durations))
	}
	var want time.Duration
	for _, d := range durations {
		want += d
	}
	if got := h.Sum(); got != want {
		t.Fatalf("sum %v, want %v", got, want)
	}
	if n := h.buckets[0].Load(); n != 2 {
		t.Errorf("bucket 0 holds %d, want 2", n)
	}
	if n := h.buckets[NumBuckets-1].Load(); n != 1 {
		t.Errorf("+Inf bucket holds %d, want 1", n)
	}
}

func TestHistogramQuantile(t *testing.T) {
	var h Histogram
	if q := h.Quantile(0.5); q != 0 {
		t.Errorf("empty histogram p50 %v, want 0", q)
	}
	// 100 observations spread evenly through the 2.5–5ms bucket.
	for i := 0; i < 100; i++ {
		h.Observe(4 * time.Millisecond)
	}
	p50 := h.Quantile(0.5)
	if p50 <= 2500*time.Microsecond || p50 > 5*time.Millisecond {
		t.Errorf("p50 %v outside the observed bucket (2.5ms, 5ms]", p50)
	}
	// Quantiles must be monotone in q.
	if p99 := h.Quantile(0.99); p99 < p50 {
		t.Errorf("p99 %v < p50 %v", p99, p50)
	}
	// Overflow observations resolve to the top finite bound.
	var inf Histogram
	inf.Observe(time.Minute)
	if q := inf.Quantile(0.99); q != BucketBounds[len(BucketBounds)-1] {
		t.Errorf("overflow p99 %v, want %v", q, BucketBounds[len(BucketBounds)-1])
	}
}

func TestRegistryObserve(t *testing.T) {
	r := NewRegistry([]string{"locate", "other"})
	r.Observe(0, 200, time.Millisecond)
	r.Observe(0, 200, time.Millisecond)
	r.Observe(0, 422, time.Millisecond)
	r.Observe(1, 404, time.Millisecond)
	r.Observe(7, 200, time.Millisecond)  // out of range: ignored
	r.Observe(-1, 200, time.Millisecond) // out of range: ignored
	r.Observe(0, 999, time.Millisecond)  // unclassifiable status → class 0
	if got := r.RouteCount(0); got != 4 {
		t.Errorf("locate count %d, want 4", got)
	}
	if got := r.RouteCount(1); got != 1 {
		t.Errorf("other count %d, want 1", got)
	}
	if got := r.routes[0].classes[2].Load(); got != 2 {
		t.Errorf("locate 2xx %d, want 2", got)
	}
	if got := r.routes[0].classes[4].Load(); got != 1 {
		t.Errorf("locate 4xx %d, want 1", got)
	}
	if got := r.routes[0].classes[0].Load(); got != 1 {
		t.Errorf("locate unclassified %d, want 1", got)
	}
}

func TestWritePrometheusShape(t *testing.T) {
	r := NewRegistry([]string{"locate"})
	r.Observe(0, 200, 3*time.Millisecond)
	r.Observe(0, 400, 30*time.Millisecond)
	var buf bytes.Buffer
	r.WritePrometheus(&buf, []Gauge{
		{Name: "indoorloc_snapshot_generation", Help: "Radio-map generation.", Value: 7},
		{Name: "indoorloc_ingest_accepted_total", Counter: true, Value: 12},
		{Name: "indoorloc_ingest_publishes_total", Counter: true, Labels: `kind="patch"`, Help: "Publishes.", Value: 3},
		{Name: "indoorloc_ingest_publishes_total", Counter: true, Labels: `kind="full"`, Value: 1},
	})
	out := buf.String()
	for _, want := range []string{
		`indoorloc_http_requests_total{route="locate",class="2xx"} 1`,
		`indoorloc_http_requests_total{route="locate",class="4xx"} 1`,
		`indoorloc_http_request_duration_seconds_count{route="locate"} 2`,
		`indoorloc_http_request_duration_seconds_bucket{route="locate",le="+Inf"} 2`,
		"# TYPE indoorloc_http_request_duration_seconds histogram",
		"# TYPE indoorloc_snapshot_generation gauge",
		"indoorloc_snapshot_generation 7",
		"# TYPE indoorloc_ingest_accepted_total counter",
		"indoorloc_ingest_accepted_total 12",
		"# HELP indoorloc_ingest_publishes_total Publishes.\n# TYPE indoorloc_ingest_publishes_total counter\n" +
			"indoorloc_ingest_publishes_total{kind=\"patch\"} 3\nindoorloc_ingest_publishes_total{kind=\"full\"} 1\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q\n%s", want, out)
		}
	}
	// Buckets must be cumulative and end at the count.
	if !strings.Contains(out, `le="0.005"} 1`) {
		t.Errorf("3ms observation not in the 5ms cumulative bucket\n%s", out)
	}
}

// TestRegistryConcurrent hammers Observe and scrapes concurrently —
// the registry's whole contract is that this is safe.
func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry([]string{"a", "b"})
	const goroutines, each = 8, 2000
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() { // concurrent scraper
		defer wg.Done()
		var buf bytes.Buffer
		for {
			select {
			case <-stop:
				return
			default:
				buf.Reset()
				r.WritePrometheus(&buf, nil)
			}
		}
	}()
	var workers sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		workers.Add(1)
		go func(g int) {
			defer workers.Done()
			for i := 0; i < each; i++ {
				r.Observe(g%2, 200, time.Millisecond)
			}
		}(g)
	}
	workers.Wait()
	close(stop)
	wg.Wait()
	if got := r.RouteCount(0) + r.RouteCount(1); got != goroutines*each {
		t.Errorf("lost observations: %d, want %d", got, goroutines*each)
	}
}
