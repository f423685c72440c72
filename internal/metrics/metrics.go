// Package metrics is the allocation-free observability layer of the
// serving front end. The hot path touches nothing but atomics: a
// request is recorded as one fixed-bucket histogram increment plus one
// status-class counter increment, both plain atomic adds on
// pre-allocated arrays. Rendering — the expensive part — happens only
// when something scrapes GET /metrics, off the serving path, into a
// caller-supplied buffer in Prometheus text exposition format.
//
// The bucket layout is fixed at compile time (100µs to 10s in a
// 1-2.5-5 progression plus a +Inf overflow bucket) so a Histogram is a
// flat value type with no pointers, no lazy growth and no locks;
// quantiles are estimated from the buckets by linear interpolation,
// which is exactly the fidelity a Prometheus histogram offers anyway.
package metrics

import (
	"bytes"
	"strconv"
	"sync/atomic"
	"time"
)

// BucketBounds are the histogram buckets' inclusive upper edges. A
// 1-2.5-5 decade ladder from 100µs to 10s: fine enough to separate a
// 6.8ms compiled-map query from a 40ms cold one, coarse enough that a
// histogram is 18 counters.
var BucketBounds = [...]time.Duration{
	100 * time.Microsecond,
	250 * time.Microsecond,
	500 * time.Microsecond,
	1 * time.Millisecond,
	2500 * time.Microsecond,
	5 * time.Millisecond,
	10 * time.Millisecond,
	25 * time.Millisecond,
	50 * time.Millisecond,
	100 * time.Millisecond,
	250 * time.Millisecond,
	500 * time.Millisecond,
	1 * time.Second,
	2500 * time.Millisecond,
	5 * time.Second,
	10 * time.Second,
}

// NumBuckets counts the histogram slots: one per bound plus the +Inf
// overflow bucket.
const NumBuckets = len(BucketBounds) + 1

// Histogram is a fixed-bucket latency histogram safe for concurrent
// use. The zero value is ready. Observe is wait-free: one atomic add
// into the bucket array and one into the running sum.
type Histogram struct {
	buckets [NumBuckets]atomic.Uint64
	sum     atomic.Int64 // nanoseconds
}

// Observe records one duration.
//
//loclint:hotpath
func (h *Histogram) Observe(d time.Duration) {
	i := 0
	for i < len(BucketBounds) && d > BucketBounds[i] {
		i++
	}
	h.buckets[i].Add(1)
	h.sum.Add(int64(d))
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	var n uint64
	for i := range h.buckets {
		n += h.buckets[i].Load()
	}
	return n
}

// Sum returns the total observed duration.
func (h *Histogram) Sum() time.Duration { return time.Duration(h.sum.Load()) }

// Quantile estimates the q-quantile (0 < q <= 1) by linear
// interpolation inside the bucket holding the target rank — the same
// estimate a Prometheus histogram_quantile() would produce from the
// exported buckets. Observations in the +Inf bucket resolve to the
// largest finite bound. Returns 0 when the histogram is empty.
func (h *Histogram) Quantile(q float64) time.Duration {
	var counts [NumBuckets]uint64
	var total uint64
	for i := range h.buckets {
		counts[i] = h.buckets[i].Load()
		total += counts[i]
	}
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	var seen float64
	for i, c := range counts {
		if c == 0 {
			continue
		}
		next := seen + float64(c)
		if rank > next {
			seen = next
			continue
		}
		lo := time.Duration(0)
		if i > 0 {
			lo = BucketBounds[i-1]
		}
		if i == len(BucketBounds) {
			// Overflow bucket: no finite upper edge to interpolate to.
			return BucketBounds[len(BucketBounds)-1]
		}
		hi := BucketBounds[i]
		frac := (rank - seen) / float64(c)
		return lo + time.Duration(frac*float64(hi-lo))
	}
	return BucketBounds[len(BucketBounds)-1]
}

// statusClasses is the per-route status counter fan: index status/100,
// clamped to [0,5]; 0 collects anything outside 1xx–5xx.
const statusClasses = 6

// routeMetrics is one route's counters. Flat arrays of atomics — no
// maps, no pointers, no locks.
type routeMetrics struct {
	hist    Histogram
	classes [statusClasses]atomic.Uint64
}

// Registry holds the per-route serving metrics. Routes are fixed at
// construction (the router's table is static), so recording is an
// index into a pre-sized array.
type Registry struct {
	names  []string
	routes []routeMetrics
}

// NewRegistry builds a registry for the given route names. The index
// of a name in the slice is the route index Observe expects.
func NewRegistry(routeNames []string) *Registry {
	names := make([]string, len(routeNames))
	copy(names, routeNames)
	return &Registry{names: names, routes: make([]routeMetrics, len(names))}
}

// Names returns the route names, in index order.
func (r *Registry) Names() []string { return r.names }

// Observe records one served request: its route, final status and
// latency. Out-of-range route indexes are ignored (never panic on the
// serving path).
//
//loclint:hotpath
func (r *Registry) Observe(route, status int, d time.Duration) {
	if route < 0 || route >= len(r.routes) {
		return
	}
	m := &r.routes[route]
	c := status / 100
	if c < 0 || c >= statusClasses {
		c = 0
	}
	m.classes[c].Add(1)
	m.hist.Observe(d)
}

// RouteCount returns the request count for one route (every status).
func (r *Registry) RouteCount(route int) uint64 {
	if route < 0 || route >= len(r.routes) {
		return 0
	}
	return r.routes[route].hist.Count()
}

// RouteQuantile estimates the latency q-quantile for one route.
func (r *Registry) RouteQuantile(route int, q float64) time.Duration {
	if route < 0 || route >= len(r.routes) {
		return 0
	}
	return r.routes[route].hist.Quantile(q)
}

// Gauge is one scrape-time value the caller injects into the
// exposition: state that lives elsewhere (snapshot generation, ingest
// counters, tracker population) and is only read when scraped.
type Gauge struct {
	// Name is the full metric name, e.g. "indoorloc_snapshot_generation".
	Name string
	// Help is the HELP line; empty omits it.
	Help string
	// Counter marks the metric TYPE counter instead of gauge.
	Counter bool
	// Labels, when set, is the series' label set without braces, e.g.
	// `kind="patch"`. Series of one metric go next to each other; the
	// HELP and TYPE lines come once, before the first.
	Labels string
	Value  float64
}

// WritePrometheus renders the registry and the given gauges in
// Prometheus text exposition format (version 0.0.4) into buf. It runs
// off the hot path; counters are read with plain atomic loads, so a
// scrape racing live traffic sees each counter at some point during
// the scrape — the usual Prometheus consistency.
func (r *Registry) WritePrometheus(buf *bytes.Buffer, gauges []Gauge) {
	buf.WriteString("# HELP indoorloc_http_requests_total Requests served, by route and status class.\n")
	buf.WriteString("# TYPE indoorloc_http_requests_total counter\n")
	var scratch [32]byte
	for i := range r.routes {
		m := &r.routes[i]
		for c := 0; c < statusClasses; c++ {
			n := m.classes[c].Load()
			// 2xx–5xx are always exported so dashboards get stable
			// series; 0xx (unclassifiable) and 1xx only when seen.
			if n == 0 && (c < 2) {
				continue
			}
			buf.WriteString("indoorloc_http_requests_total{route=\"")
			buf.WriteString(r.names[i])
			buf.WriteString("\",class=\"")
			buf.WriteByte(byte('0' + c))
			buf.WriteString("xx\"} ")
			buf.Write(strconv.AppendUint(scratch[:0], n, 10))
			buf.WriteByte('\n')
		}
	}
	buf.WriteString("# HELP indoorloc_http_request_duration_seconds Request latency, by route.\n")
	buf.WriteString("# TYPE indoorloc_http_request_duration_seconds histogram\n")
	for i := range r.routes {
		m := &r.routes[i]
		var cum uint64
		for b := 0; b < NumBuckets; b++ {
			cum += m.hist.buckets[b].Load()
			buf.WriteString("indoorloc_http_request_duration_seconds_bucket{route=\"")
			buf.WriteString(r.names[i])
			buf.WriteString("\",le=\"")
			if b == len(BucketBounds) {
				buf.WriteString("+Inf")
			} else {
				buf.Write(strconv.AppendFloat(scratch[:0], BucketBounds[b].Seconds(), 'g', -1, 64))
			}
			buf.WriteString("\"} ")
			buf.Write(strconv.AppendUint(scratch[:0], cum, 10))
			buf.WriteByte('\n')
		}
		buf.WriteString("indoorloc_http_request_duration_seconds_sum{route=\"")
		buf.WriteString(r.names[i])
		buf.WriteString("\"} ")
		buf.Write(strconv.AppendFloat(scratch[:0], m.hist.Sum().Seconds(), 'g', -1, 64))
		buf.WriteByte('\n')
		buf.WriteString("indoorloc_http_request_duration_seconds_count{route=\"")
		buf.WriteString(r.names[i])
		buf.WriteString("\"} ")
		buf.Write(strconv.AppendUint(scratch[:0], cum, 10))
		buf.WriteByte('\n')
	}
	for i, g := range gauges {
		if i > 0 && gauges[i-1].Name == g.Name {
			writeSample(buf, g, &scratch)
			continue
		}
		if g.Help != "" {
			buf.WriteString("# HELP ")
			buf.WriteString(g.Name)
			buf.WriteByte(' ')
			buf.WriteString(g.Help)
			buf.WriteByte('\n')
		}
		buf.WriteString("# TYPE ")
		buf.WriteString(g.Name)
		if g.Counter {
			buf.WriteString(" counter\n")
		} else {
			buf.WriteString(" gauge\n")
		}
		writeSample(buf, g, &scratch)
	}
}

// writeSample writes g's sample line.
func writeSample(buf *bytes.Buffer, g Gauge, scratch *[32]byte) {
	buf.WriteString(g.Name)
	if g.Labels != "" {
		buf.WriteByte('{')
		buf.WriteString(g.Labels)
		buf.WriteByte('}')
	}
	buf.WriteByte(' ')
	buf.Write(strconv.AppendFloat(scratch[:0], g.Value, 'g', -1, 64))
	buf.WriteByte('\n')
}
