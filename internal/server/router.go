package server

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"indoorloc/internal/metrics"
)

// The router is the zero-allocation front door of the serving path.
// The route table is static — every endpoint is known at construction
// — so dispatch is one map probe (or one prefix compare for
// /track/{client}) with no per-request pattern matching, no
// net/http.ServeMux cleanup/redirect machinery, and no allocations.
// Around every handler runs one fixed middleware chain, in order:
//
//  1. request-id: a monotone counter stamped on the pooled request
//     state; materialized as an X-Request-Id header only on error
//     responses (a success-path header set would allocate).
//  2. limits: the path-length bound (414), the uniform rejection of
//     //-doubled and dot-segment paths (404), and the per-route body
//     cap (413) — enforced against Content-Length for free, and with
//     a pooled limit reader for chunked bodies.
//  3. per-route timeout: routes with a deadline run under a buffered
//     guard that answers 503 when the handler overruns (this tier
//     allocates and is off by default — see DESIGN.md §11).
//  4. recovery + observation: one deferred finish() recovers panics
//     (500, connection closed), records the fixed-bucket latency
//     histogram and status counter, and queues the access-log entry
//     without waiting. Atomics and non-blocking channel operations;
//     zero allocations.
//
// The pooled per-request state (statusWriter, body limiter) makes the
// whole chain add exactly 0 allocs/request on the hot path — enforced
// by TestRouterAllocParity and the loclint hotpathalloc annotations on
// every function the request path executes.

// Request-limit defaults. maxPathLen bounds the only client-controlled
// input the router itself parses; defaultMaxBody caps the
// single-observation endpoints (an averaged observation or a wi-scan
// record list is a few kB — 1 MiB is paranoid headroom).
const (
	maxPathLen     = 1024
	defaultMaxBody = 1 << 20
)

// venuePrefix roots the versioned multi-venue namespace. Paths under
// it carry a venue id as their first segment: /v1/venues/{venue}/...
// The router parses the segment allocation-free (two string slices and
// a map probe); handlers re-derive the id the same way, so nothing is
// stashed per request.
const venuePrefix = "/v1/venues/"

// Router-level error bodies. Routing errors are JSON like every other
// error the service emits — the satellite fix for /track/'s old
// fall-through statuses.
var (
	errNoRoute          = errors.New("no such endpoint")
	errMethodNotAllowed = errors.New("method not allowed")
	errPathTooLong      = errors.New("request path too long")
	errRouteTimeout     = errors.New("handler timed out")
	errBodyTooLarge     = errors.New("request body too large")
)

// routeDef declares one route for newRouter. Handlers are per-method;
// a nil method slot answers 405 with the precomputed Allow header.
type routeDef struct {
	name    string // metrics / access-log label
	path    string // exact path, or the prefix (ending in '/') when prefix is set
	prefix  bool   // /track/-style: path names a prefix, the suffix is one segment
	venue   bool   // venue-tier route: path is the sub-path after /v1/venues/{venue}
	get     http.HandlerFunc
	post    http.HandlerFunc
	del     http.HandlerFunc
	maxBody int64         // body cap; 0 = unlimited
	timeout time.Duration // >0 runs under the timeout guard
}

// route is one compiled row of the static table.
type route struct {
	name    string
	idx     int // metrics registry index
	get     http.HandlerFunc
	post    http.HandlerFunc
	del     http.HandlerFunc
	allow   string
	maxBody int64
	timeout time.Duration
}

// router dispatches requests against the static table.
type router struct {
	exact      map[string]*route
	prefix     *route // the single prefix route; nil when absent
	prefixPath string
	// vtier maps the venue sub-path ("" for the bare-id status route,
	// "/locate", ...) to its route; nil disables the venue namespace.
	// vtrack is the venue tier's one sub-prefix route (/track/{client}).
	vtier      map[string]*route
	vtrack     *route
	vtrackPath string
	metrics    *metrics.Registry
	otherIdx   int // metrics slot for unroutable requests
	alog       *accessLogger
	nextID     atomic.Uint64
	panics     atomic.Uint64
	timeouts   atomic.Uint64
}

// newRouter compiles the table and sizes a metrics registry with one
// slot per route plus the trailing "other" slot for unroutable paths.
func newRouter(defs []routeDef, alog *accessLogger) *router {
	names := make([]string, len(defs)+1)
	rt := &router{exact: make(map[string]*route, len(defs)), alog: alog, otherIdx: len(defs)}
	for i, d := range defs {
		names[i] = d.name
		e := &route{
			name: d.name, idx: i,
			get: d.get, post: d.post, del: d.del,
			allow:   allowHeader(d),
			maxBody: d.maxBody, timeout: d.timeout,
		}
		switch {
		case d.venue && d.prefix:
			rt.vtrack, rt.vtrackPath = e, d.path
		case d.venue:
			if rt.vtier == nil {
				rt.vtier = make(map[string]*route)
			}
			rt.vtier[d.path] = e
		case d.prefix:
			rt.prefix, rt.prefixPath = e, d.path
		default:
			rt.exact[d.path] = e
		}
	}
	names[len(defs)] = "other"
	rt.metrics = metrics.NewRegistry(names)
	return rt
}

func allowHeader(d routeDef) string {
	var methods []string
	if d.get != nil {
		methods = append(methods, http.MethodGet)
	}
	if d.post != nil {
		methods = append(methods, http.MethodPost)
	}
	if d.del != nil {
		methods = append(methods, http.MethodDelete)
	}
	return strings.Join(methods, ", ")
}

// statusWriter wraps the connection's ResponseWriter to capture the
// final status for metrics and the access log. Pooled: a request
// borrows one, finish() returns it.
type statusWriter struct {
	w       http.ResponseWriter
	route   *route
	limiter *bodyLimiter // pooled chunked-body cap, if one was attached
	id      uint64
	status  int
}

var swPool = sync.Pool{New: func() any { return new(statusWriter) }}

//loclint:hotpath
func (sw *statusWriter) Header() http.Header { return sw.w.Header() }

//loclint:hotpath
func (sw *statusWriter) Write(b []byte) (int, error) {
	if sw.status == 0 {
		sw.status = http.StatusOK
	}
	return sw.w.Write(b)
}

//loclint:hotpath
func (sw *statusWriter) WriteHeader(code int) {
	if sw.status == 0 {
		sw.status = code
	}
	if code == http.StatusRequestEntityTooLarge {
		sw.tooLarge()
	}
	sw.w.WriteHeader(code)
}

// tooLarge stamps the uniform 413 semantics — close the connection
// (the unread remainder would poison keep-alive) and carry the request
// id — no matter which layer emitted the status: the router's
// Content-Length check or a handler that hit the chunked-body cap
// mid-decode. Cold path; idempotent under reject()'s own sets.
func (sw *statusWriter) tooLarge() {
	h := sw.w.Header()
	h.Set("Connection", "close")
	h.Set("X-Request-Id", strconv.FormatUint(sw.id, 10))
}

// Unwrap lets http.ResponseController reach the real connection.
func (sw *statusWriter) Unwrap() http.ResponseWriter { return sw.w }

// bodyLimiter caps a request body whose Content-Length is unknown
// (chunked encoding). The budget is cap+1: a body of exactly the cap
// hits EOF first; one byte more trips errBodyTooLarge, which the
// handlers map to 413.
type bodyLimiter struct {
	rc io.ReadCloser
	n  int64
}

var limiterPool = sync.Pool{New: func() any { return new(bodyLimiter) }}

//loclint:hotpath
func (l *bodyLimiter) Read(p []byte) (int, error) {
	if l.n <= 0 {
		return 0, errBodyTooLarge
	}
	if int64(len(p)) > l.n {
		p = p[:l.n]
	}
	n, err := l.rc.Read(p)
	l.n -= int64(n)
	return n, err
}

func (l *bodyLimiter) Close() error { return l.rc.Close() }

// ServeHTTP dispatches one request through the fixed middleware chain.
// On the hot path — a routable request within its limits, no timeout
// guard — this function and everything it calls before the handler
// allocate nothing.
//
//loclint:hotpath
func (rt *router) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	sw := swPool.Get().(*statusWriter)
	sw.w, sw.route, sw.limiter, sw.id, sw.status = w, nil, nil, rt.nextID.Add(1), 0
	defer rt.finish(sw, r, start)
	path := r.URL.Path
	if len(path) > maxPathLen {
		rt.reject(sw, http.StatusRequestURITooLong, errPathTooLong)
		return
	}
	e := rt.lookup(path)
	if e == nil {
		rt.reject(sw, http.StatusNotFound, errNoRoute)
		return
	}
	sw.route = e
	h := e.handler(r.Method)
	if h == nil {
		rt.methodNotAllowed(sw, e)
		return
	}
	if e.maxBody > 0 {
		if r.ContentLength > e.maxBody {
			rt.reject(sw, http.StatusRequestEntityTooLarge, errBodyTooLarge)
			return
		}
		if r.ContentLength < 0 && r.Body != nil {
			l := limiterPool.Get().(*bodyLimiter)
			l.rc, l.n = r.Body, e.maxBody+1
			r.Body = l
			sw.limiter = l
		}
	}
	if e.timeout > 0 {
		rt.runGuarded(sw, r, e, h)
		return
	}
	h(sw, r)
}

// lookup resolves a path to its route. Unknown paths, //-doubled
// slashes and dot segments all resolve to nil — one uniform JSON 404,
// never a silent normalization or a misleading fall-through status.
//
//loclint:hotpath
func (rt *router) lookup(path string) *route {
	if e, ok := rt.exact[path]; ok {
		return e
	}
	if !cleanPath(path) {
		return nil
	}
	if rt.vtier != nil && len(path) > len(venuePrefix) &&
		path[:len(venuePrefix)] == venuePrefix {
		return rt.lookupVenue(path[len(venuePrefix):])
	}
	if rt.prefix != nil && len(path) > len(rt.prefixPath) &&
		path[:len(rt.prefixPath)] == rt.prefixPath {
		// The suffix must be a single non-empty segment: /track/a/b is
		// an unknown subpath, not a tracking client named "a/b".
		if !strings.Contains(path[len(rt.prefixPath):], "/") {
			return rt.prefix
		}
	}
	return nil
}

// lookupVenue resolves the venue tier: rest is the path after
// /v1/venues/, so {venue-id}[/sub-path]. The shape is matched here —
// allocation-free, two slices and a map probe; the id's validity and
// existence are the handler's problem (so an unknown venue can answer
// venue_not_found instead of the router's structural no_route). An
// empty id cannot reach here: /v1/venues/ alone fails the length
// check in lookup, and /v1/venues//x fails cleanPath.
//
//loclint:hotpath
func (rt *router) lookupVenue(rest string) *route {
	sub := ""
	if i := strings.IndexByte(rest, '/'); i >= 0 {
		sub = rest[i:]
	}
	if e, ok := rt.vtier[sub]; ok {
		return e
	}
	if rt.vtrack != nil && len(sub) > len(rt.vtrackPath) &&
		sub[:len(rt.vtrackPath)] == rt.vtrackPath &&
		!strings.Contains(sub[len(rt.vtrackPath):], "/") {
		return rt.vtrack
	}
	return nil
}

// cleanPath reports whether p is free of doubled slashes and dot
// segments (including trailing "/." and "/.."). The router rejects
// unclean paths outright instead of normalizing and redirecting as
// http.ServeMux would — a fleet client retrying a 404 is cheaper than
// every request paying the cleaning pass.
//
//loclint:hotpath
func cleanPath(p string) bool {
	return !strings.Contains(p, "//") &&
		!strings.Contains(p, "/./") &&
		!strings.Contains(p, "/../") &&
		!strings.HasSuffix(p, "/.") &&
		!strings.HasSuffix(p, "/..")
}

// handler picks the method's handler; nil means 405.
//
//loclint:hotpath
func (e *route) handler(method string) http.HandlerFunc {
	switch method {
	case http.MethodGet:
		return e.get
	case http.MethodPost:
		return e.post
	case http.MethodDelete:
		return e.del
	}
	return nil
}

// finish is deferred around every request: recover the panics, record
// the metrics and the access-log entry, return the pooled state. A
// panic that struck after the handler started writing cannot be
// answered — once the bookkeeping is done, finish re-panics with
// http.ErrAbortHandler so net/http aborts the connection instead of
// completing the truncated body as a clean response.
//
//loclint:hotpath
func (rt *router) finish(sw *statusWriter, r *http.Request, start time.Time) {
	abort := false
	if p := recover(); p != nil {
		abort = rt.recovered(sw, p)
	}
	status := sw.status
	if status == 0 {
		status = http.StatusOK // handler wrote a bare 200 and no body
	}
	idx := rt.otherIdx
	if sw.route != nil {
		idx = sw.route.idx
	}
	d := time.Since(start)
	rt.metrics.Observe(idx, status, d)
	if rt.alog != nil {
		rt.alog.record(sw.id, idx, r.Method, r.URL.Path, r.RemoteAddr, status, d)
	}
	if l := sw.limiter; l != nil {
		l.rc = nil
		limiterPool.Put(l)
	}
	sw.w, sw.route, sw.limiter = nil, nil, nil
	swPool.Put(sw)
	if abort {
		panic(http.ErrAbortHandler)
	}
}

// recovered answers a panicking handler and reports whether the
// connection must be aborted. Cold path: when no response has started,
// the 500 carries the request id so an operator can line the response
// up with the access log, and the connection is closed — after an
// arbitrary panic the stream state is untrustworthy. When the handler
// already wrote, the status is poisoned for metrics and the caller
// aborts: recovering silently here would let net/http finish the
// truncated body as an apparently complete success.
func (rt *router) recovered(sw *statusWriter, p any) bool {
	rt.panics.Add(1)
	if sw.status == 0 && p != http.ErrAbortHandler {
		h := sw.Header()
		h.Set("Connection", "close")
		h.Set("X-Request-Id", strconv.FormatUint(sw.id, 10))
		writeError(sw, http.StatusInternalServerError, errors.New("internal error"))
		return false
	}
	sw.status = http.StatusInternalServerError
	_ = p // the panic value is deliberately not echoed to the client
	return true
}

// reject writes a routing-layer JSON error. Cold path — the header
// sets below allocate, which is why the ids exist only on errors.
func (rt *router) reject(sw *statusWriter, status int, err error) {
	h := sw.Header()
	h.Set("X-Request-Id", strconv.FormatUint(sw.id, 10))
	if status == http.StatusRequestEntityTooLarge {
		// The unread body would poison a kept-alive connection.
		h.Set("Connection", "close")
	}
	writeError(sw, status, err)
}

func (rt *router) methodNotAllowed(sw *statusWriter, e *route) {
	sw.Header().Set("Allow", e.allow)
	rt.reject(sw, http.StatusMethodNotAllowed, errMethodNotAllowed)
}

// timeoutWriter buffers a guarded handler's response so an abandoned
// handler can keep writing harmlessly after the deadline fired.
type timeoutWriter struct {
	header   http.Header
	body     bytes.Buffer
	status   int
	panicked bool
	panicVal any
}

func (t *timeoutWriter) Header() http.Header { return t.header }

func (t *timeoutWriter) Write(b []byte) (int, error) {
	if t.status == 0 {
		t.status = http.StatusOK
	}
	return t.body.Write(b)
}

func (t *timeoutWriter) WriteHeader(code int) {
	if t.status == 0 {
		t.status = code
	}
}

// runGuarded runs h under the route's deadline: the handler writes
// into a buffer on its own goroutine; if it beats the deadline the
// buffer is replayed to the client, otherwise the client gets 503 and
// the handler finishes into the void. This tier allocates (buffer,
// goroutine, context) — it exists for operators who prefer bounded
// tail latency over the last few allocations, and is off by default.
func (rt *router) runGuarded(sw *statusWriter, r *http.Request, e *route, h http.HandlerFunc) {
	ctx, cancel := context.WithTimeout(r.Context(), e.timeout)
	defer cancel()
	tw := &timeoutWriter{header: make(http.Header)}
	done := make(chan struct{})
	r2 := r.WithContext(ctx)
	go func() {
		defer func() {
			if p := recover(); p != nil {
				tw.panicked, tw.panicVal = true, p
			}
			close(done)
		}()
		h(tw, r2)
	}()
	select {
	case <-done:
		if tw.panicked {
			panic(tw.panicVal) // re-raise on the request goroutine; finish() recovers
		}
		dst := sw.Header()
		for k, v := range tw.header {
			dst[k] = v
		}
		status := tw.status
		if status == 0 {
			status = http.StatusOK
		}
		sw.WriteHeader(status)
		sw.Write(tw.body.Bytes())
	case <-ctx.Done():
		rt.timeouts.Add(1)
		// The abandoned handler still owns r.Body — the pooled limiter,
		// if one was attached. Detach it so finish() leaves it to the GC
		// instead of returning it to the pool under the handler's feet,
		// where the next request would re-acquire it and two goroutines
		// would race on l.rc/l.n (nil-pointer panics, cross-request body
		// reads).
		sw.limiter = nil
		// The handler's fate is still worth observing: a panic after the
		// deadline would otherwise vanish — the guarded goroutine's
		// recover captures it but nothing re-raises it.
		go func() {
			<-done
			if tw.panicked {
				rt.panics.Add(1)
			}
		}()
		rt.reject(sw, http.StatusServiceUnavailable, errRouteTimeout)
	}
}
