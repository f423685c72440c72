// Package server exposes a trained location service over HTTP — the
// deployment shape the paper's motivating applications assume: clients
// (call routers, conference-material servers, surveillance consoles)
// ask "where is this signal vector?" over the network.
//
// # API
//
//	GET  /healthz            → 200 {"status":"ok", ...snapshot metadata...}
//	GET  /algorithms         → the registry names
//	GET  /locations          → the training locations and coordinates
//	GET  /metrics            → Prometheus text exposition (latency
//	                           histograms, route/status counters, gauges)
//	POST /locate             → localize one observation
//	POST /locate/batch       → localize many observations in one call
//	POST /track/{client}     → stateful tracking: filtered per client
//	DELETE /track/{client}   → forget a client's track
//	POST /train/report       → live training: submit fingerprint reports
//
// Requests enter through a purpose-built static router (router.go),
// not http.ServeMux: exact-match dispatch plus the one /track/ prefix
// route, a fixed middleware chain (panic recovery, request-id,
// per-route body/path limits, optional per-route timeout), and an
// always-on metrics layer — all of it adding zero allocations per
// request on the hot path. Unknown paths, unknown /track/ subpaths,
// //-doubled and dot-segment paths answer a uniform JSON 404; method
// mismatches answer 405 with an Allow header; oversized bodies 413;
// oversized paths 414.
//
// /locate accepts either an averaged observation
//
//	{"observation": {"aa:bb:...": -61.5, ...}}
//
// or raw wi-scan records
//
//	{"records": [{"time_millis":1, "bssid":"aa:bb", "rssi":-61}, ...]}
//
// and returns the estimate, the symbolic name, and a confidence
// radius.
//
// /locate/batch accepts many averaged observations at once
//
//	{"observations": [{"aa:bb:...": -61.5, ...}, ...]}
//
// and returns one result per observation in input order; a result is
// either the /locate answer shape or {"error": "..."} — one bad
// observation never fails its batchmates. The batch path is the
// high-throughput shape of the service: the fan-out feeds the shared
// scoring pool directly. Every locate route, single or batch, runs out
// of one pooled arena (decode buffers, observation maps, response
// encoder), so the per-observation allocation cost is a small constant
// instead of a full request's worth of garbage. All handlers are safe
// for concurrent use.
//
// # Constructors
//
// New serves a trained service (a static server), NewLive serves an
// ingest pipeline and accepts /train/report, NewFollower serves a
// replication follower read-only, and NewMultiVenue serves a
// venue.Registry under /v1/venues (venue_handlers.go). The first three
// build single-venue servers: their one venue is a venue.Standalone
// that no registry owns, so one set of handlers serves every kind of
// server. Each handler pins the request's venue — the path's, the
// registry default, or the single venue — answers, and releases it.
//
// # Consistency model
//
// Handlers answer from an immutable core.Snapshot loaded once per
// request from the pinned venue's core.SnapshotRegistry (one atomic
// pointer load). A static server wraps its service in a
// forever-current snapshot; a live server reads whatever snapshot the
// ingest compactor last published, and a follower whatever it last
// replicated. Because the estimate, the symbolic name and the room all
// resolve against the one snapshot the request loaded, a hot swap
// mid-request can never produce a torn answer — in-flight requests
// finish on the old world, new requests see the new one.
//
// /train/report accepts a single report
//
//	{"name":"room D22", "observation":{"aa:bb:...":-61.5, ...}}
//	{"pos":{"x":12.5,"y":40}, "observation":{...}}
//
// or a batch {"reports":[...]}; accepted reports are journaled to the
// write-ahead log before the 202 acknowledgement. When the bounded
// ingest queue is full the server answers 429 with a Retry-After
// header — explicit backpressure instead of unbounded buffering.
package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"indoorloc/internal/core"
	"indoorloc/internal/filter"
	"indoorloc/internal/ingest"
	"indoorloc/internal/jsonscan"
	"indoorloc/internal/localize"
	"indoorloc/internal/metrics"
	"indoorloc/internal/repl"
	"indoorloc/internal/venue"
	"indoorloc/internal/wiscan"
)

// DefaultMaxBatch is the observation cap New sets on /locate/batch.
const DefaultMaxBatch = 4096

// maxBatchBody is the /locate/batch and /train/report body cap, and
// the most any route buffers into a pooled arena: WithMaxBody can lower
// a route's cap but not raise it past this. A full DefaultMaxBatch of
// dense observations is well under a megabyte; 8 MiB leaves generous
// headroom without letting one client pin arbitrary memory.
const maxBatchBody = 8 << 20

// Server wraps a trained location service as an http.Handler. It
// serves every request from the snapshot current at the request's
// start, so a live hot-swap never tears an in-flight answer.
type Server struct {
	rt *router
	// alog is the bounded-queue access logger; nil when not configured.
	alog *accessLogger
	// home is a single-venue server's one venue: a static service, a
	// live pipeline (its Manager is set) or a follower's replica. nil
	// for a multi-venue server.
	home *venue.Venue
	// venues is the multi-tenant registry; nil for a single-venue
	// server. Serving routes resolve their venue from the path (or the
	// registry default).
	venues *venue.Registry
	// follower is the replication follower this server reads from; nil
	// unless built with NewFollower. A follower server is read-only:
	// /train/report answers 409 venue_frozen, and /healthz + /metrics
	// carry the replication lag gauges.
	follower *repl.Follower
	// replSrc is the trainer-side replication source; nil unless
	// WithReplicationSource mounted the /v1/replicate endpoints.
	replSrc *repl.Source
	// started stamps Close-less uptime for the /metrics gauge.
	started time.Time

	// MaxBatch caps the observations accepted by one /locate/batch
	// request (larger batches are refused with 413). New sets
	// DefaultMaxBatch; adjust before serving.
	MaxBatch int

	// trackers maps client → *clientTrack. Each client carries its own
	// lock, so one slow client's filter update never serializes the
	// others' /track traffic.
	trackers sync.Map
	// newFilter builds the per-client tracking filter.
	newFilter func() filter.PositionFilter
}

// clientTrack is one client's tracking filter plus the lock that
// serializes updates to it. Filters are stateful and order-dependent,
// so same-client requests still serialize — but only with each other.
// Only the filter is kept: the estimates it smooths come from each
// request's own snapshot.
type clientTrack struct {
	mu sync.Mutex
	f  filter.PositionFilter // built by the first update
}

// Option tunes the serving front end at construction.
type Option func(*serverOptions)

type serverOptions struct {
	routeTimeout time.Duration
	maxBody      int64
	accessLog    io.Writer
	noMetrics    bool
	replSrc      *repl.Source
}

// WithRouteTimeout puts every route under a deadline: a handler that
// overruns answers 503. The timeout guard buffers the response and
// allocates per request — bounded tail latency traded against the
// hot path's zero-allocation property. Zero disables (the default).
func WithRouteTimeout(d time.Duration) Option {
	return func(o *serverOptions) { o.routeTimeout = d }
}

// WithMaxBody overrides the request-body cap (bytes) of every route
// that takes a body, up to maxBatchBody (8 MiB): a larger n caps them
// all at 8 MiB. Zero keeps the per-route defaults (1 MiB
// single-observation endpoints, 8 MiB batch and training endpoints).
func WithMaxBody(n int64) Option {
	return func(o *serverOptions) { o.maxBody = n }
}

// WithoutMetrics drops the GET /metrics endpoint (it answers 404 like
// any unknown path). Recording still happens — Metrics() exposes the
// registry — only the HTTP exposition is withheld, for deployments
// that must not serve observability on the same port.
func WithoutMetrics() Option {
	return func(o *serverOptions) { o.noMetrics = true }
}

// WithAccessLog streams one line per request into w through a bounded
// queue that never blocks a request (drop-oldest under pressure;
// dropped counts are exported at /metrics). w is written by exactly
// one background goroutine; if it implements io.Closer, Server.Close
// closes it.
func WithAccessLog(w io.Writer) Option {
	return func(o *serverOptions) { o.accessLog = w }
}

// WithReplicationSource mounts the trainer-side replication endpoints
// (GET /v1/replicate/snapshot, GET /v1/replicate/wal) backed by src.
// The WAL endpoint is a deliberately unbounded chunked stream, so
// both replication routes are exempt from WithRouteTimeout.
func WithReplicationSource(src *repl.Source) Option {
	return func(o *serverOptions) { o.replSrc = src }
}

// New builds a static server over a trained service: the service is
// wrapped as the registry's one forever-current snapshot. filterFactory
// supplies the per-client tracking filter for /track; nil uses a
// Kalman filter with defaults.
func New(svc *core.Service, filterFactory func() filter.PositionFilter, opts ...Option) (*Server, error) {
	reg, err := core.StaticSnapshot(svc)
	if err != nil {
		return nil, errors.New("server: nil service")
	}
	return newServer(venue.Standalone(reg, nil), nil, nil, filterFactory, opts)
}

// NewLive builds a server over a live ingest pipeline: requests are
// answered from the manager's latest published snapshot, POST
// /train/report feeds the pipeline, and /healthz carries the ingest
// counters. The caller still closes mgr.
func NewLive(mgr *ingest.Manager, filterFactory func() filter.PositionFilter, opts ...Option) (*Server, error) {
	if mgr == nil {
		return nil, errors.New("server: nil ingest manager")
	}
	return newServer(venue.Standalone(mgr.Registry(), mgr), nil, nil, filterFactory, opts)
}

// NewFollower builds a read-only server over a started replication
// follower: requests are answered from whatever snapshot the follower
// last published (the same hot-swap consistency as a live server),
// POST /train/report answers 409 venue_frozen (this node holds no
// authority over the radio map — reports belong at the trainer), and
// /healthz + /metrics expose the replication lag and catch-up state.
// The caller still closes f.
func NewFollower(f *repl.Follower, filterFactory func() filter.PositionFilter, opts ...Option) (*Server, error) {
	if f == nil || f.Registry() == nil {
		return nil, errors.New("server: follower not started")
	}
	return newServer(venue.Standalone(f.Registry(), nil), nil, f, filterFactory, opts)
}

// newServer builds a server over exactly one of home (a single-venue
// server) and vr (a multi-venue one).
func newServer(home *venue.Venue, vr *venue.Registry, fol *repl.Follower, filterFactory func() filter.PositionFilter, opts []Option) (*Server, error) {
	if filterFactory == nil {
		filterFactory = func() filter.PositionFilter {
			return &filter.Kalman{Dt: 1, ProcessNoise: 0.6, MeasurementNoise: 7}
		}
	}
	var o serverOptions
	for _, opt := range opts {
		opt(&o)
	}
	s := &Server{
		home:      home,
		venues:    vr,
		follower:  fol,
		replSrc:   o.replSrc,
		MaxBatch:  DefaultMaxBatch,
		newFilter: filterFactory,
		started:   time.Now(),
	}
	// Every route that takes a body decodes it into a pooled arena, so
	// the router's cap is the only one: WithMaxBody may lower it, but
	// never past what an arena buffers.
	bodyCap := func(def int64) int64 {
		if o.maxBody > 0 {
			return min(o.maxBody, maxBatchBody)
		}
		return def
	}
	defs := []routeDef{
		{name: "healthz", path: "/healthz", get: s.handleHealth},
		{name: "algorithms", path: "/algorithms", get: s.handleAlgorithms},
	}
	if !o.noMetrics {
		defs = append(defs, routeDef{name: "metrics", path: "/metrics", get: s.handleMetrics})
	}
	if vr != nil {
		// The versioned namespace. The unversioned routes below serve the
		// registry's default venue (the path carries no venue id).
		defs = append(defs,
			routeDef{name: "venues", path: "/v1/venues", get: s.handleVenues},
			routeDef{name: "venue_status", venue: true, path: "", get: s.handleVenueStatus},
			routeDef{name: "venue_locations", venue: true, path: "/locations", get: s.handleLocations},
			routeDef{name: "venue_locate", venue: true, path: "/locate",
				post: s.handleLocate, maxBody: bodyCap(defaultMaxBody)},
			routeDef{name: "venue_locate_batch", venue: true, path: "/locate/batch",
				post: s.handleLocateBatch, maxBody: bodyCap(maxBatchBody)},
			routeDef{name: "venue_track", venue: true, path: "/track/", prefix: true,
				post: s.handleTrackPost, del: s.handleTrackDelete, maxBody: bodyCap(defaultMaxBody)},
			routeDef{name: "venue_train", venue: true, path: "/train/report",
				post: s.handleTrainReport, maxBody: bodyCap(maxBatchBody)},
		)
	}
	defs = append(defs,
		routeDef{name: "locations", path: "/locations", get: s.handleLocations},
		routeDef{name: "locate", path: "/locate", post: s.handleLocate, maxBody: bodyCap(defaultMaxBody)},
		routeDef{name: "locate_batch", path: "/locate/batch", post: s.handleLocateBatch, maxBody: bodyCap(maxBatchBody)},
		routeDef{name: "track", path: "/track/", prefix: true,
			post: s.handleTrackPost, del: s.handleTrackDelete, maxBody: bodyCap(defaultMaxBody)},
	)
	// A static server has no training endpoint. A follower keeps one so
	// clients get a truthful 409 venue_frozen instead of a misleading
	// 404: its venue has no pipeline, and reports belong at the trainer.
	if vr != nil || home.Manager() != nil || fol != nil {
		defs = append(defs, routeDef{name: "train_report", path: "/train/report",
			post: s.handleTrainReport, maxBody: bodyCap(maxBatchBody)})
	}
	if o.replSrc != nil {
		defs = append(defs,
			routeDef{name: "replicate_snapshot", path: "/v1/replicate/snapshot", get: o.replSrc.ServeSnapshot},
			routeDef{name: "replicate_wal", path: "/v1/replicate/wal", get: o.replSrc.ServeWAL},
		)
	}
	if o.routeTimeout > 0 {
		for i := range defs {
			// The replication endpoints are streams (the WAL tail is
			// unbounded by design; the snapshot body can be large): a
			// buffered timeout guard would either kill healthy followers
			// or buffer an artifact per request.
			if strings.HasPrefix(defs[i].name, "replicate_") {
				continue
			}
			defs[i].timeout = o.routeTimeout
		}
	}
	if o.accessLog != nil {
		names := make([]string, len(defs)+1)
		for i, d := range defs {
			names[i] = d.name
		}
		names[len(defs)] = "other"
		s.alog = newAccessLogger(o.accessLog, defaultLogQueue, names)
	}
	s.rt = newRouter(defs, s.alog)
	return s, nil
}

// Close releases the server's background resources (the access-log
// drainer, when configured). The server must not serve requests after
// Close. Serving state (snapshots, trackers) needs no teardown.
func (s *Server) Close() error {
	if s.alog != nil {
		return s.alog.Close()
	}
	return nil
}

// Metrics returns the serving metrics registry — what GET /metrics
// renders. Route indexes follow Metrics().Names().
func (s *Server) Metrics() *metrics.Registry { return s.rt.metrics }

// Snapshot returns the snapshot a single-venue server is currently
// serving — what a request arriving now would answer from.
func (s *Server) Snapshot() *core.Snapshot { return s.home.Snapshot() }

// ServeHTTP implements http.Handler.
//
//loclint:hotpath
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.rt.ServeHTTP(w, r) }

// locateRequest is the /locate and /track request body.
type locateRequest struct {
	Observation map[string]float64 `json:"observation,omitempty"`
	Records     []recordJSON       `json:"records,omitempty"`
}

// recordJSON mirrors wiscan.Record with stable JSON names.
type recordJSON struct {
	TimeMillis int64  `json:"time_millis"`
	BSSID      string `json:"bssid"`
	SSID       string `json:"ssid,omitempty"`
	Channel    int    `json:"channel,omitempty"`
	RSSI       int    `json:"rssi"`
	Noise      int    `json:"noise,omitempty"`
}

// locateResponse is the /locate and /track response body.
type locateResponse struct {
	X                float64 `json:"x"`
	Y                float64 `json:"y"`
	Location         string  `json:"location,omitempty"`
	NearestName      string  `json:"nearest_name,omitempty"`
	Room             string  `json:"room,omitempty"`
	ConfidenceRadius float64 `json:"confidence_radius_ft"`
	Algorithm        string  `json:"algorithm"`
}

// errorResponse is every error body the service emits, from the
// routing layer down to the handlers: an envelope carrying a stable
// machine-readable code next to the human-readable message.
//
//	{"error": {"code": "venue_not_found", "message": "venue: unknown venue: \"x\""}}
//
// Clients branch on the code; the message is for humans and carries no
// stability promise. The two 404 families stay distinguishable —
// no_route (the path names no endpoint) versus venue_not_found /
// track_not_found (the endpoint exists, the resource does not).
type errorResponse struct {
	Error errorBody `json:"error"`
}

type errorBody struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// The stable error codes. Add, never repurpose.
const (
	codeBadRequest       = "bad_request"
	codeNoRoute          = "no_route"
	codeVenueNotFound    = "venue_not_found"
	codeTrackNotFound    = "track_not_found"
	codeMethodNotAllowed = "method_not_allowed"
	codeBodyTooLarge     = "body_too_large"
	codeBatchTooLarge    = "batch_too_large"
	codePathTooLong      = "path_too_long"
	codeUnprocessable    = "unprocessable"
	codeQueueFull        = "queue_full"
	codeVenueFrozen      = "venue_frozen"
	codeVenueLoadFailed  = "venue_load_failed"
	codeInternal         = "internal"
	codeTimeout          = "timeout"
)

// jsonContentType is every JSON response's Content-Type value, shared
// so that setting it allocates nothing (Header().Set would build a
// fresh slice per response). net/http only reads it.
var jsonContentType = []string{"application/json"}

// writeJSON is the single success/error serialization point; all
// error bodies funnel through it via writeErrorCode.
//
//loclint:errenvelope
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header()["Content-Type"] = jsonContentType
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

// writeError derives the code from the error and status; call sites
// with a more specific code use writeErrorCode directly.
func writeError(w http.ResponseWriter, status int, err error) {
	writeErrorCode(w, status, codeFor(status, err), err)
}

//loclint:errenvelope
func writeErrorCode(w http.ResponseWriter, status int, code string, err error) {
	writeJSON(w, status, errorResponse{Error: errorBody{Code: code, Message: err.Error()}})
}

// codeFor maps an error (and its HTTP status) to the stable code.
//
//loclint:errenvelope
func codeFor(status int, err error) string {
	switch {
	case errors.Is(err, errNoRoute):
		return codeNoRoute
	case errors.Is(err, errMethodNotAllowed):
		return codeMethodNotAllowed
	case errors.Is(err, errPathTooLong):
		return codePathTooLong
	case errors.Is(err, errRouteTimeout):
		return codeTimeout
	case errors.Is(err, errBodyTooLarge):
		return codeBodyTooLarge
	case errors.Is(err, errBatchTooLarge), errors.Is(err, ingest.ErrBatchTooLarge):
		return codeBatchTooLarge
	case errors.Is(err, ingest.ErrQueueFull):
		return codeQueueFull
	case errors.Is(err, ingest.ErrInvalidReport):
		return codeBadRequest
	case errors.Is(err, venue.ErrUnknownVenue), errors.Is(err, venue.ErrInvalidID):
		return codeVenueNotFound
	case errors.Is(err, venue.ErrFrozen):
		return codeVenueFrozen
	}
	switch status {
	case http.StatusBadRequest:
		return codeBadRequest
	case http.StatusNotFound:
		return codeNoRoute
	case http.StatusMethodNotAllowed:
		return codeMethodNotAllowed
	case http.StatusRequestEntityTooLarge:
		return codeBodyTooLarge
	case http.StatusRequestURITooLong:
		return codePathTooLong
	case http.StatusUnprocessableEntity:
		return codeUnprocessable
	case http.StatusTooManyRequests:
		return codeQueueFull
	case http.StatusServiceUnavailable:
		return codeTimeout
	default:
		return codeInternal
	}
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	if s.venues != nil {
		st := s.venues.Stats()
		writeJSON(w, http.StatusOK, map[string]any{
			"status": "ok",
			"mode":   "multi-venue",
			"venues": st,
		})
		return
	}
	snap := s.home.Snapshot()
	svc := snap.Service
	body := map[string]any{
		"status":     "ok",
		"algorithm":  svc.Locator.Name(),
		"locations":  svc.NumLocations(),
		"aps":        svc.NumAPs(),
		"generation": snap.Generation,
		"built_at":   snap.BuiltAt.UTC().Format(time.RFC3339Nano),
	}
	if mgr := s.home.Manager(); mgr != nil {
		st := mgr.Stats()
		body["ingest"] = st
		if !st.LastSwap.IsZero() {
			body["last_swap"] = st.LastSwap.UTC().Format(time.RFC3339Nano)
		}
	}
	if s.follower != nil {
		body["mode"] = "follower"
		body["replication"] = s.follower.Stats()
	}
	if s.replSrc != nil {
		body["replication_source"] = s.replSrc.Stats()
	}
	writeJSON(w, http.StatusOK, body)
}

func (s *Server) handleAlgorithms(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, core.Algorithms())
}

func (s *Server) locations(w http.ResponseWriter, svc *core.Service) {
	type loc struct {
		Name string  `json:"name"`
		X    float64 `json:"x"`
		Y    float64 `json:"y"`
	}
	names, pos := svc.Locations()
	out := make([]loc, len(names))
	for i, name := range names {
		out[i] = loc{Name: name, X: pos[i].X, Y: pos[i].Y}
	}
	writeJSON(w, http.StatusOK, out)
}

// statusFor maps localization errors to HTTP statuses.
func statusFor(err error) int {
	switch {
	case errors.Is(err, localize.ErrEmptyObservation),
		errors.Is(err, localize.ErrNoOverlap),
		errors.Is(err, localize.ErrTooFewAPs):
		return http.StatusUnprocessableEntity
	default:
		return http.StatusInternalServerError
	}
}

// decodeStatus maps body-decode failures: a chunked body that outgrew
// its route's cap answers 413 (the router already 413s declared
// lengths), anything else is the client's malformed JSON.
func decodeStatus(err error) int {
	if errors.Is(err, errBodyTooLarge) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

// locate answers a single observation. The request runs out of a
// pooled arena, as a batch does: the body, the observation map and the
// response encoder are all reused.
func (s *Server) locate(w http.ResponseWriter, r *http.Request, svc *core.Service) {
	a := batchArenaPool.Get().(*batchArena)
	defer batchArenaPool.Put(a)
	obs, err := a.decodeLocate(r.Body)
	if err != nil {
		writeError(w, decodeStatus(err), err)
		return
	}
	res, err := svc.Locate(obs)
	if err != nil {
		writeError(w, statusFor(err), err)
		return
	}
	a.resp = locateResponse{
		X:                res.Estimate.Pos.X,
		Y:                res.Estimate.Pos.Y,
		Location:         res.Estimate.Name,
		NearestName:      res.NearestName,
		Room:             res.Room,
		ConfidenceRadius: localize.ConfidenceRadius(res.Estimate, 0.9),
		Algorithm:        svc.Locator.Name(),
	}
	a.writeOK(w, &a.resp)
}

// batchResponse is the /locate/batch response body. The algorithm is
// stated once; results are per observation, in input order.
type batchResponse struct {
	Algorithm string      `json:"algorithm"`
	Count     int         `json:"count"`
	Results   []batchItem `json:"results"`
}

// batchItem is one observation's answer: the /locate response fields,
// or an error string for observations that failed to localize.
type batchItem struct {
	X                float64 `json:"x"`
	Y                float64 `json:"y"`
	Location         string  `json:"location,omitempty"`
	NearestName      string  `json:"nearest_name,omitempty"`
	Room             string  `json:"room,omitempty"`
	ConfidenceRadius float64 `json:"confidence_radius_ft"`
	Error            string  `json:"error,omitempty"`
}

// errBatchTooLarge distinguishes the 413 case from plain bad input.
var errBatchTooLarge = errors.New("too many observations in batch")

// batchArena is the reusable request-scoped state of one locate call,
// single or batch: the decode buffer, the observation maps (cleared
// and refilled in place), the fan-out results, the response items, and
// an encoder bound to a reusable output buffer. Pooled so a serving
// loop's per-observation allocations are the scorer's candidate slice,
// not a fresh copy of all of this.
type batchArena struct {
	body    bytes.Buffer
	obs     []localize.Observation
	results []localize.BatchResult
	items   []batchItem
	resp    locateResponse
	out     bytes.Buffer
	enc     *json.Encoder
	// keys interns BSSID strings across requests (see jsonscan.Keys);
	// names interns /train/report location names, in a table of their
	// own so a floor's cell names cannot crowd the BSSIDs out.
	keys, names jsonscan.Keys
	// reports is the /train/report decode scratch; the decoded batch
	// itself is a fresh slice, since the ingest queue keeps its reports.
	reports []ingest.Report
}

// maxReportScratch bounds the capacity of batchArena.reports kept
// across requests; a larger scratch is dropped after use.
const maxReportScratch = 1024

var batchArenaPool = sync.Pool{New: func() any {
	a := &batchArena{}
	a.enc = json.NewEncoder(&a.out)
	return a
}}

// obsAt returns the arena's n-th observation map, cleared. n is at
// most len(a.obs), so the maps grow one at a time and are kept.
//
//loclint:hotpath
func (a *batchArena) obsAt(n int) localize.Observation {
	if n == len(a.obs) {
		a.obs = append(a.obs, make(localize.Observation, 8)) //loclint:allow hotpathalloc
	}
	m := a.obs[n]
	clear(m)
	return m
}

// readBody buffers the request body into the arena. The router caps
// every arena route's body (declared lengths up front, chunked ones
// with errBodyTooLarge mid-read), so the buffer never grows past
// maxBatchBody.
func (a *batchArena) readBody(body io.Reader) error {
	a.body.Reset()
	if _, err := a.body.ReadFrom(body); err != nil {
		return fmt.Errorf("reading request body: %w", err)
	}
	return nil
}

// writeOK encodes v through the arena's encoder and writes it as the
// 200 response.
func (a *batchArena) writeOK(w http.ResponseWriter, v any) {
	a.out.Reset()
	if err := a.enc.Encode(v); err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	w.Header()["Content-Type"] = jsonContentType
	w.WriteHeader(http.StatusOK)
	w.Write(a.out.Bytes())
}

// decodeLocate reads a /locate or /track body into the arena and
// returns its observation. The canonical {"observation": {...}} shape
// takes the hand-rolled scanner into a reused observation map;
// anything else (records, escaped keys, malformed bodies) takes
// decodeLocateSlow, which produces the user-facing errors.
func (a *batchArena) decodeLocate(body io.Reader) (localize.Observation, error) {
	if err := a.readBody(body); err != nil {
		return nil, err
	}
	if obs, ok := a.decodeLocateFast(); ok {
		return obs, nil
	}
	return a.decodeLocateSlow()
}

// decodeObservations reads the request body into the arena and parses
// {"observations": [...]}, decoding each element into a reused
// observation map. It returns the observation count.
//
// A hand-rolled scanner handles the canonical shape — flat objects of
// plain string keys and numbers — without encoding/json's per-value
// boxing; anything it does not recognise (escaped keys, non-numeric
// values, malformed syntax) falls back to the token-based decoder,
// which produces the user-facing errors.
func (a *batchArena) decodeObservations(body io.Reader, max int) (int, error) {
	if err := a.readBody(body); err != nil {
		return 0, err
	}
	if n, err, ok := a.decodeFast(max); ok {
		return n, err
	}
	return a.decodeSlow(max)
}

// decodeFast is the allocation-lean scanner for the canonical batch
// shape. ok=false means "shape not recognised, retry with decodeSlow";
// when ok=true, n and err are the final answer.
//
//loclint:hotpath
func (a *batchArena) decodeFast(max int) (n int, err error, ok bool) {
	b := a.body.Bytes()
	i, ok := jsonscan.FieldStart(b, "observations")
	if !ok {
		return 0, nil, false
	}
	i, more, ok := jsonscan.Open(b, i, '[', ']')
	for ok && more {
		if n >= max {
			return 0, errBatchTooLarge, true
		}
		if i, ok = jsonscan.FlatObject(b, i, &a.keys, a.obsAt(n)); !ok {
			break
		}
		n++
		i, more, ok = jsonscan.Sep(b, i, ']')
	}
	if !ok {
		return 0, nil, false
	}
	if i, more, ok = jsonscan.Sep(b, i, '}'); !ok || more || !jsonscan.End(b, i) {
		return 0, nil, false
	}
	return n, nil, true
}

// decodeSlow walks the buffered body token by token with
// encoding/json. It accepts everything JSON allows (escaped keys,
// whitespace oddities) and is the source of the decode error messages.
func (a *batchArena) decodeSlow(max int) (int, error) {
	dec := json.NewDecoder(bytes.NewReader(a.body.Bytes()))
	if tok, err := dec.Token(); err != nil || tok != json.Delim('{') {
		return 0, errors.New("bad request body: want a JSON object")
	}
	n := 0
	for dec.More() {
		keyTok, err := dec.Token()
		if err != nil {
			return 0, fmt.Errorf("bad request body: %w", err)
		}
		key, _ := keyTok.(string)
		if key != "observations" {
			return 0, fmt.Errorf("bad request body: unknown field %q", key)
		}
		if tok, err := dec.Token(); err != nil || tok != json.Delim('[') {
			return 0, errors.New("bad request body: observations must be an array")
		}
		for dec.More() {
			if n >= max {
				return 0, errBatchTooLarge
			}
			m := a.obsAt(n)
			if err := dec.Decode(&m); err != nil {
				return 0, fmt.Errorf("bad observation %d: %w", n, err)
			}
			n++
		}
		if _, err := dec.Token(); err != nil { // consume ']'
			return 0, fmt.Errorf("bad request body: %w", err)
		}
	}
	if _, err := dec.Token(); err != nil { // consume '}'
		return 0, fmt.Errorf("bad request body: %w", err)
	}
	return n, nil
}

// decodeLocateFast is the allocation-lean scanner for the canonical
// single shape, {"observation": {...}} with a non-empty flat object.
// ok=false means "shape not recognised, retry with decodeLocateSlow".
//
//loclint:hotpath
func (a *batchArena) decodeLocateFast() (localize.Observation, bool) {
	b := a.body.Bytes()
	i, ok := jsonscan.FieldStart(b, "observation")
	if !ok {
		return nil, false
	}
	m := a.obsAt(0)
	if i, ok = jsonscan.FlatObject(b, i, &a.keys, m); !ok || len(m) == 0 {
		return nil, false
	}
	if i, more, ok := jsonscan.Sep(b, i, '}'); !ok || more || !jsonscan.End(b, i) {
		return nil, false
	}
	return m, true
}

// decodeLocateSlow decodes the buffered single body with encoding/json.
// It accepts the records form and everything JSON allows, and is the
// source of the single-locate decode error messages.
func (a *batchArena) decodeLocateSlow() (localize.Observation, error) {
	var req locateRequest
	dec := json.NewDecoder(bytes.NewReader(a.body.Bytes()))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return nil, fmt.Errorf("bad request body: %w", err)
	}
	switch {
	case len(req.Observation) > 0 && len(req.Records) > 0:
		return nil, errors.New("give observation or records, not both")
	case len(req.Observation) > 0:
		return localize.Observation(req.Observation), nil
	case len(req.Records) > 0:
		recs := make([]wiscan.Record, len(req.Records))
		for i, rj := range req.Records {
			recs[i] = wiscan.Record{
				TimeMillis: rj.TimeMillis,
				BSSID:      rj.BSSID,
				SSID:       rj.SSID,
				Channel:    rj.Channel,
				RSSI:       rj.RSSI,
				Noise:      rj.Noise,
			}
		}
		return localize.ObservationFromRecords(recs), nil
	default:
		return nil, errors.New("empty request: need observation or records")
	}
}

// locateBatch answers a batch from svc: one snapshot answers the whole
// batch, so the fan-out, the name and room lookups, and the reported
// algorithm all come from it.
func (s *Server) locateBatch(w http.ResponseWriter, r *http.Request, svc *core.Service) {
	max := s.MaxBatch
	if max <= 0 {
		max = DefaultMaxBatch
	}
	a := batchArenaPool.Get().(*batchArena)
	defer batchArenaPool.Put(a)
	n, err := a.decodeObservations(r.Body, max)
	if err != nil {
		status := decodeStatus(err)
		if errors.Is(err, errBatchTooLarge) {
			status = http.StatusRequestEntityTooLarge
			err = fmt.Errorf("%w (max %d)", err, max)
		}
		writeError(w, status, err)
		return
	}
	if n == 0 {
		writeError(w, http.StatusBadRequest, errors.New("empty batch: need at least one observation"))
		return
	}
	for len(a.results) < n {
		a.results = append(a.results, localize.BatchResult{})
	}
	results := a.results[:n]
	localize.BatchInto(svc.Locator, a.obs[:n], results)
	items := a.items[:0]
	for i := range results {
		var item batchItem
		if err := results[i].Err; err != nil {
			item.Error = err.Error()
		} else {
			est := results[i].Estimate
			item.X, item.Y = est.Pos.X, est.Pos.Y
			item.Location = est.Name
			item.ConfidenceRadius = localize.ConfidenceRadius(est, 0.9)
			item.NearestName, item.Room = svc.Annotate(est.Pos)
		}
		items = append(items, item)
	}
	a.items = items
	// Drop the candidate slices before pooling the arena so one big
	// batch does not pin its estimates across unrelated requests.
	clear(results)
	a.writeOK(w, batchResponse{
		Algorithm: svc.Locator.Name(),
		Count:     n,
		Results:   items,
	})
}

// trackClient extracts the client id from a .../track/{client} path —
// the legacy /track/{client} and the venue tier's
// /v1/venues/{venue}/track/{client} alike. The router guarantees the
// suffix after the last /track/ is one non-empty segment — an unknown
// subpath like /track/a/b never reaches these handlers (uniform 404).
//
//loclint:hotpath
func trackClient(r *http.Request) string {
	p := r.URL.Path
	return p[strings.LastIndex(p, "/track/")+len("/track/"):]
}

// trackKey scopes a client's tracker to its venue:
// venueID + "\x00" + client. NUL cannot appear in a venue id, so scopes
// never collide by concatenation. A single-venue server's venue has
// the empty id and keys by the bare client, which costs no allocation.
//
//loclint:hotpath
func trackKey(v *venue.Venue, client string) string {
	if v.ID == "" {
		return client
	}
	return v.ID + "\x00" + client
}

// trackDelete forgets a client's tracking state in venue v.
func (s *Server) trackDelete(w http.ResponseWriter, r *http.Request, v *venue.Venue) {
	client := trackClient(r)
	if _, existed := s.trackers.LoadAndDelete(trackKey(v, client)); !existed {
		writeErrorCode(w, http.StatusNotFound, codeTrackNotFound, fmt.Errorf("no track for %q", client))
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "forgotten"})
}

// trackPost locates the request's observation in venue v and feeds it
// through the client's filter.
func (s *Server) trackPost(w http.ResponseWriter, r *http.Request, v *venue.Venue) {
	svc := v.Snapshot().Service
	key := trackKey(v, trackClient(r))
	a := batchArenaPool.Get().(*batchArena)
	defer batchArenaPool.Put(a)
	obs, err := a.decodeLocate(r.Body)
	if err != nil {
		writeError(w, decodeStatus(err), err)
		return
	}
	est, err := svc.Locator.Locate(obs)
	if err != nil {
		writeError(w, statusFor(err), err)
		return
	}
	// Per-client filter state is serialised under the client's own
	// lock; the heavy Locate above ran outside it, and other
	// clients' updates proceed in parallel. A DELETE racing this
	// update may orphan the slot after we fetched it — the update
	// then lands on state the next POST will rebuild, which is the
	// same outcome as the DELETE arriving a moment later.
	slotAny, ok := s.trackers.Load(key)
	if !ok {
		slotAny, _ = s.trackers.LoadOrStore(key, &clientTrack{})
	}
	slot := slotAny.(*clientTrack)
	slot.mu.Lock()
	if slot.f == nil {
		if slot.f = s.newFilter(); slot.f == nil {
			slot.f = filter.Raw{} // a nil factory result means no smoothing
		}
	}
	pos := slot.f.Update(est.Pos)
	slot.mu.Unlock()
	a.resp = locateResponse{
		X:                pos.X,
		Y:                pos.Y,
		Location:         est.Name,
		ConfidenceRadius: localize.ConfidenceRadius(est, 0.9),
		Algorithm:        svc.Locator.Name(),
	}
	a.resp.NearestName, a.resp.Room = svc.Annotate(pos)
	a.writeOK(w, &a.resp)
}

// metricsBufPool holds the scrape render buffers. One scrape borrows
// one buffer; concurrent scrapes each get their own.
var metricsBufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// handleMetrics renders the Prometheus exposition. All rendering
// happens here, off the request hot path; the serving cost of the
// metrics layer is the atomic adds in router.finish.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	buf := metricsBufPool.Get().(*bytes.Buffer)
	defer metricsBufPool.Put(buf)
	buf.Reset()
	gauges := make([]metrics.Gauge, 0, 16)
	var mgr *ingest.Manager // a live single-venue server's pipeline
	if s.venues != nil {
		st := s.venues.Stats()
		gauges = append(gauges,
			metrics.Gauge{Name: "indoorloc_venues_loaded",
				Help: "Venues resident in memory.", Value: float64(st.Loaded)},
			metrics.Gauge{Name: "indoorloc_venues_resident_bytes",
				Help: "Accounted bytes of resident venues.", Value: float64(st.ResidentBytes)},
			metrics.Gauge{Name: "indoorloc_venues_budget_bytes",
				Help: "Configured venue memory budget (0 = unbounded).", Value: float64(st.MaxBytes)},
			metrics.Gauge{Name: "indoorloc_venue_loads_total", Counter: true,
				Help: "Completed venue cold loads.", Value: float64(st.Loads)},
			metrics.Gauge{Name: "indoorloc_venue_load_errors_total", Counter: true,
				Help: "Failed venue cold loads.", Value: float64(st.LoadErrors)},
			metrics.Gauge{Name: "indoorloc_venue_evictions_total", Counter: true,
				Help: "Venues evicted by the LRU memory budget.", Value: float64(st.Evictions)},
			metrics.Gauge{Name: "indoorloc_venue_cold_load_p50_seconds",
				Help: "Median venue cold-load latency.", Value: st.ColdLoadP50.Seconds()},
			metrics.Gauge{Name: "indoorloc_venue_cold_load_p99_seconds",
				Help: "99th-percentile venue cold-load latency.", Value: st.ColdLoadP99.Seconds()},
		)
	} else {
		snap := s.home.Snapshot()
		mgr = s.home.Manager()
		gauges = append(gauges,
			metrics.Gauge{Name: "indoorloc_snapshot_generation",
				Help: "Radio-map generation of the serving snapshot.", Value: float64(snap.Generation)},
			metrics.Gauge{Name: "indoorloc_snapshot_locations",
				Help: "Training locations in the serving snapshot.", Value: float64(snap.Service.NumLocations())},
		)
	}
	gauges = append(gauges,
		metrics.Gauge{Name: "indoorloc_tracks_active",
			Help: "Clients with live tracking state.", Value: float64(s.ActiveTracks())},
		metrics.Gauge{Name: "indoorloc_uptime_seconds",
			Help: "Seconds since the server was built.", Value: time.Since(s.started).Seconds()},
		metrics.Gauge{Name: "indoorloc_http_panics_total", Counter: true,
			Help: "Handler panics recovered by the router.", Value: float64(s.rt.panics.Load())},
		metrics.Gauge{Name: "indoorloc_http_timeouts_total", Counter: true,
			Help: "Requests cut off by the per-route timeout.", Value: float64(s.rt.timeouts.Load())},
	)
	if s.alog != nil {
		gauges = append(gauges, metrics.Gauge{Name: "indoorloc_accesslog_dropped_total", Counter: true,
			Help: "Access-log entries lost to queue pressure.", Value: float64(s.alog.Dropped())})
	}
	if mgr != nil {
		st := mgr.Stats()
		gauges = append(gauges,
			metrics.Gauge{Name: "indoorloc_ingest_accepted_total", Counter: true,
				Help: "Reports journaled and queued.", Value: float64(st.Accepted)},
			metrics.Gauge{Name: "indoorloc_ingest_rejected_total", Counter: true,
				Help: "Reports refused with queue-full backpressure.", Value: float64(st.RejectedFull)},
			metrics.Gauge{Name: "indoorloc_ingest_folded_total", Counter: true,
				Help: "Reports folded into the master database.", Value: float64(st.Folded)},
			metrics.Gauge{Name: "indoorloc_ingest_queued",
				Help: "Accepted-but-unfolded backlog.", Value: float64(st.Queued)},
			metrics.Gauge{Name: "indoorloc_ingest_swaps_total", Counter: true,
				Help: "Published radio-map snapshots.", Value: float64(st.Swaps)},
			metrics.Gauge{Name: "indoorloc_ingest_publishes_total", Counter: true, Labels: `kind="patch"`,
				Help:  "Published snapshots by build: patched from the previous view, or rebuilt in full.",
				Value: float64(st.PatchedSwaps)},
			metrics.Gauge{Name: "indoorloc_ingest_publishes_total", Counter: true, Labels: `kind="full"`,
				Value: float64(st.FullSwaps)},
			metrics.Gauge{Name: "indoorloc_ingest_dropped_total", Counter: true,
				Help: "Reports that could not be folded.", Value: float64(st.Dropped)},
			metrics.Gauge{Name: "indoorloc_ingest_swap_errors_total", Counter: true,
				Help: "Snapshot rebuilds that failed.", Value: float64(st.SwapErrors)},
			metrics.Gauge{Name: "indoorloc_ingest_artifacts_total", Counter: true,
				Help: "Radio-map artifacts written.", Value: float64(st.Artifacts)},
			metrics.Gauge{Name: "indoorloc_ingest_artifact_errors_total", Counter: true,
				Help: "Radio-map artifact writes that failed.", Value: float64(st.ArtifactErrors)},
		)
	}
	if s.follower != nil {
		st := s.follower.Stats()
		caughtUp := 0.0
		if st.State == repl.StateStreaming {
			caughtUp = 1
		}
		gauges = append(gauges,
			metrics.Gauge{Name: "indoorloc_repl_lag_seqs",
				Help: "WAL sequences the follower is behind the trainer head.", Value: float64(st.LagSeqs)},
			metrics.Gauge{Name: "indoorloc_repl_lag_bytes",
				Help: "WAL bytes the follower is behind the trainer head.", Value: float64(st.LagBytes)},
			metrics.Gauge{Name: "indoorloc_repl_lag_seconds",
				Help: "Seconds since replication last made progress (0 when caught up).", Value: st.LagSeconds},
			metrics.Gauge{Name: "indoorloc_repl_applied_seq",
				Help: "Last WAL sequence folded into the replica.", Value: float64(st.AppliedSeq)},
			metrics.Gauge{Name: "indoorloc_repl_caught_up",
				Help: "1 while streaming at the trainer head, 0 while bootstrapping, catching up or disconnected.", Value: caughtUp},
			metrics.Gauge{Name: "indoorloc_repl_bootstraps_total", Counter: true,
				Help: "Successful snapshot bootstraps.", Value: float64(st.Bootstraps)},
			metrics.Gauge{Name: "indoorloc_repl_reconnects_total", Counter: true,
				Help: "WAL stream teardowns and reconnect attempts.", Value: float64(st.Reconnects)},
			metrics.Gauge{Name: "indoorloc_repl_regressions_total", Counter: true,
				Help: "World resets: trainer epoch changes, head regressions, divergences.", Value: float64(st.Regressions)},
			metrics.Gauge{Name: "indoorloc_repl_recompiles_total", Counter: true,
				Help: "Replica recompiles triggered by trainer publishes.", Value: float64(st.Recompiles)},
		)
	}
	if s.replSrc != nil {
		st := s.replSrc.Stats()
		ready := 0.0
		if st.Ready {
			ready = 1
		}
		gauges = append(gauges,
			metrics.Gauge{Name: "indoorloc_repl_source_ready",
				Help: "1 when a bootstrap bundle is captured and servable.", Value: ready},
			metrics.Gauge{Name: "indoorloc_repl_source_generation",
				Help: "Generation of the captured bootstrap bundle.", Value: float64(st.Generation)},
			metrics.Gauge{Name: "indoorloc_repl_source_captures_total", Counter: true,
				Help: "Publish events captured as bootstrap bundles.", Value: float64(st.Captures)},
			metrics.Gauge{Name: "indoorloc_repl_source_capture_errors_total", Counter: true,
				Help: "Publish events that could not be captured.", Value: float64(st.CaptureErrors)},
		)
	}
	s.rt.metrics.WritePrometheus(buf, gauges)
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.Write(buf.Bytes())
}

// trainRequest is the /train/report body: either one report's fields
// inline or a batch under "reports".
type trainRequest struct {
	ingest.Report
	Reports []ingest.Report `json:"reports,omitempty"`
}

// trainReport decodes a /train/report body and submits it to mgr.
func (s *Server) trainReport(w http.ResponseWriter, r *http.Request, mgr *ingest.Manager) {
	a := batchArenaPool.Get().(*batchArena)
	defer batchArenaPool.Put(a)
	reports, err := a.decodeTrain(r.Body)
	if err != nil {
		writeError(w, decodeStatus(err), err)
		return
	}
	if err := mgr.Submit(reports...); err != nil {
		status := http.StatusInternalServerError
		switch {
		case errors.Is(err, ingest.ErrQueueFull):
			// The backpressure contract: nothing was journaled, the
			// client should retry the whole batch after the advertised
			// backoff.
			secs := int(mgr.RetryAfter().Round(time.Second) / time.Second)
			if secs < 1 {
				secs = 1
			}
			w.Header().Set("Retry-After", strconv.Itoa(secs))
			status = http.StatusTooManyRequests
		case errors.Is(err, ingest.ErrBatchTooLarge):
			// Nothing was journaled either, but no backoff helps: the
			// batch never fits the queue.
			status = http.StatusRequestEntityTooLarge
		case errors.Is(err, ingest.ErrInvalidReport):
			status = http.StatusBadRequest
		}
		writeError(w, status, err)
		return
	}
	// {"accepted":N}, as json.Encoder writes it.
	a.out.Reset()
	a.out.WriteString(`{"accepted":`)
	a.out.Write(strconv.AppendInt(a.out.AvailableBuffer(), int64(len(reports)), 10))
	a.out.WriteString("}\n")
	w.Header()["Content-Type"] = jsonContentType
	w.WriteHeader(http.StatusAccepted)
	w.Write(a.out.Bytes())
}

// decodeTrain reads a /train/report body into the arena and returns
// its reports: a fresh slice of fresh reports, which the ingest queue
// keeps. The canonical shapes — {"reports":[...]} or one report's
// fields inline, each report as ingest.ScanReport reads it — take
// decodeTrainFast; anything else takes decodeTrainSlow, which produces
// the user-facing errors.
func (a *batchArena) decodeTrain(body io.Reader) ([]ingest.Report, error) {
	if err := a.readBody(body); err != nil {
		return nil, err
	}
	if reports, ok := a.decodeTrainFast(); ok {
		return reports, nil
	}
	return a.decodeTrainSlow()
}

// decodeTrainFast is the reflection-free scanner for the canonical
// train shapes. It answers only what decodeTrainSlow accepts: a
// non-empty batch, or a single report with at least one field set.
// ok=false means "retry with decodeTrainSlow".
func (a *batchArena) decodeTrainFast() ([]ingest.Report, bool) {
	b := a.body.Bytes()
	i, ok := jsonscan.FieldStart(b, "reports")
	if !ok {
		r, i, ok := ingest.ScanReport(b, jsonscan.SkipSpace(b, 0), &a.keys, &a.names)
		if !ok || !jsonscan.End(b, i) || (len(r.Observation) == 0 && r.Name == "" && r.Pos == nil) {
			return nil, false
		}
		return []ingest.Report{r}, true
	}
	i, more, ok := jsonscan.Open(b, i, '[', ']')
	for ok && more {
		var r ingest.Report
		if r, i, ok = ingest.ScanReport(b, i, &a.keys, &a.names); !ok {
			break
		}
		a.reports = append(a.reports, r)
		i, more, ok = jsonscan.Sep(b, i, ']')
	}
	if ok {
		i, more, ok = jsonscan.Sep(b, i, '}')
		ok = ok && !more && jsonscan.End(b, i) && len(a.reports) > 0
	}
	var reports []ingest.Report
	if ok {
		reports = slices.Clone(a.reports)
	}
	// Leave the scratch empty: the pooled arena must not pin a batch,
	// nor the capacity a body of millions of tiny reports grew.
	clear(a.reports)
	a.reports = a.reports[:0]
	if cap(a.reports) > maxReportScratch {
		a.reports = nil
	}
	return reports, ok
}

// decodeTrainSlow decodes the buffered body with encoding/json. It
// accepts everything JSON allows and is the source of the train decode
// error messages.
func (a *batchArena) decodeTrainSlow() ([]ingest.Report, error) {
	var req trainRequest
	dec := json.NewDecoder(bytes.NewReader(a.body.Bytes()))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return nil, fmt.Errorf("bad request body: %w", err)
	}
	single := len(req.Report.Observation) > 0 || req.Report.Name != "" || req.Report.Pos != nil
	switch {
	case single && len(req.Reports) > 0:
		return nil, errors.New("give one report or reports, not both")
	case single:
		return []ingest.Report{req.Report}, nil
	case len(req.Reports) == 0:
		return nil, errors.New("empty request: need a report or reports")
	}
	return req.Reports, nil
}

// ActiveTracks returns the number of clients with tracking state.
func (s *Server) ActiveTracks() int {
	n := 0
	s.trackers.Range(func(_, _ any) bool { n++; return true })
	return n
}
