package server

import (
	"bytes"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

// syncBuffer serializes the drainer's writes against the test's reads.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

func TestAccessLogFormat(t *testing.T) {
	var out syncBuffer
	l := newAccessLogger(&out, 64, []string{"locate", "other"})
	l.record(7, 0, "POST", "/locate", "10.1.2.3:5555", 200, 1500*time.Microsecond)
	l.record(8, 1, "GET", "/nowhere", "10.1.2.3:5556", 404, 90*time.Microsecond)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want 2:\n%s", len(lines), out.String())
	}
	for _, want := range []string{"req=7", "route=locate", "method=POST", "status=200", "dur_us=1500", "remote=10.1.2.3:5555", "path=/locate"} {
		if !strings.Contains(lines[0], want) {
			t.Errorf("line %q missing %q", lines[0], want)
		}
	}
	for _, want := range []string{"req=8", "route=other", "status=404"} {
		if !strings.Contains(lines[1], want) {
			t.Errorf("line %q missing %q", lines[1], want)
		}
	}
	if !strings.HasPrefix(lines[0], "t=") {
		t.Errorf("line %q missing timestamp", lines[0])
	}
}

func TestAccessLogTruncatesLongValues(t *testing.T) {
	var out syncBuffer
	l := newAccessLogger(&out, 64, []string{"track"})
	longPath := "/track/" + strings.Repeat("c", 100)
	l.record(1, 0, "POST", longPath, "127.0.0.1:1", 200, time.Millisecond)
	l.Close()
	line := strings.TrimSpace(out.String())
	if !strings.Contains(line, "path="+longPath[:logPathBytes]) {
		t.Errorf("long path not truncated to %d bytes: %q", logPathBytes, line)
	}
	if strings.Contains(line, longPath) {
		t.Errorf("full long path leaked into fixed-width log: %q", line)
	}
}

// slowWriter stalls the drainer so producers lap the ring, while still
// capturing everything that does get written.
type slowWriter struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (w *slowWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	w.buf.Write(p)
	w.mu.Unlock()
	time.Sleep(200 * time.Microsecond)
	return len(p), nil
}

func (w *slowWriter) lines() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return uint64(bytes.Count(w.buf.Bytes(), []byte{'\n'}))
}

// TestAccessLogDropOldest hammers a tiny ring from several goroutines
// against a deliberately slow sink. The contract under pressure:
// recording never blocks, and every record is either logged or counted
// dropped — nothing silently vanishes, nothing is double-counted.
func TestAccessLogDropOldest(t *testing.T) {
	slow := &slowWriter{}
	l := newAccessLogger(slow, 8, []string{"locate"})
	const producers, each = 4, 5000
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				l.record(uint64(p*each+i), 0, "POST", "/locate", "127.0.0.1:9", 200, time.Microsecond)
			}
		}(p)
	}
	wg.Wait()
	l.Close()
	if l.Dropped() == 0 {
		t.Errorf("no drops despite a lapped 8-slot ring")
	}
	if got := slow.lines() + l.Dropped(); got != producers*each {
		t.Errorf("logged %d + dropped %d = %d, want every one of %d accounted for",
			slow.lines(), l.Dropped(), got, producers*each)
	}
}

// TestServerAccessLogOption exercises the full wiring: requests into a
// WithAccessLog server come out of Close as formatted lines, and the
// drop counter surfaces in the exposition.
func TestServerAccessLogOption(t *testing.T) {
	var out syncBuffer
	f := newFixture(t, WithAccessLog(&out))
	for _, path := range []string{"/healthz", "/healthz", "/missing"} {
		resp, err := http.Get(f.ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	resp, err := http.Get(f.ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	exposition, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(exposition), "indoorloc_accesslog_dropped_total 0") {
		t.Errorf("exposition missing the access-log drop counter")
	}
	if err := f.srv.Close(); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	if n := strings.Count(got, "route=healthz"); n != 2 {
		t.Errorf("%d healthz lines, want 2:\n%s", n, got)
	}
	if !strings.Contains(got, "route=other") || !strings.Contains(got, "status=404") {
		t.Errorf("404 request missing from the log:\n%s", got)
	}
	if !strings.Contains(got, "path=/missing") {
		t.Errorf("log lines missing the request path:\n%s", got)
	}
}

func TestAccessLogCloseIdempotent(t *testing.T) {
	var out syncBuffer
	l := newAccessLogger(&out, 8, nil)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkAccessLogRecord measures record from parallel producers
// against an io.Discard sink through a default-size queue. The
// producers outrun the drainer, so the benchmark also reports the
// share of entries dropped (drops/op).
func BenchmarkAccessLogRecord(b *testing.B) {
	l := newAccessLogger(io.Discard, defaultLogQueue, []string{"locate"})
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			l.record(1, 0, "POST", "/locate", "127.0.0.1:9", 200, time.Microsecond)
		}
	})
	b.StopTimer()
	l.Close()
	b.ReportMetric(float64(l.Dropped())/float64(b.N), "drops/op")
}
