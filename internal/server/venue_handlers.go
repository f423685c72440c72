package server

import (
	"errors"
	"net/http"
	"strings"

	"indoorloc/internal/filter"
	"indoorloc/internal/venue"
)

// This file is the HTTP face of multi-tenancy: the /v1/venues
// namespace over a venue.Registry, and the venue resolution every
// serving handler starts with — resolve the venue from the path (or
// the registry default for the legacy unversioned aliases, or a
// single-venue server's one venue), pin it for the request, answer
// from its snapshot, release. The resolution adds zero allocations on
// the resident-venue hot path: the id is sliced out of r.URL.Path (the
// router already proved the shape), Acquire is a lock-free map read,
// and the pin is two atomics.

// NewMultiVenue builds a server over a venue registry: one process,
// many venues, each lazily loaded and LRU-evicted under the registry's
// memory budget.
//
//	GET    /v1/venues                       → venue listing + registry stats
//	GET    /v1/venues/{venue}               → one venue's status
//	GET    /v1/venues/{venue}/locations     → training locations
//	POST   /v1/venues/{venue}/locate        → localize one observation
//	POST   /v1/venues/{venue}/locate/batch  → localize many observations
//	POST   /v1/venues/{venue}/track/{client}   → stateful tracking
//	DELETE /v1/venues/{venue}/track/{client}   → forget a track
//	POST   /v1/venues/{venue}/train/report  → live training (WAL venues)
//
// The unversioned routes (/locate, /locate/batch, /locations,
// /track/{client}, /train/report) remain as deprecated aliases onto
// the registry's default venue; with no default configured they answer
// venue_not_found. Tracking state is scoped per venue — client "cart-7"
// in one venue never collides with "cart-7" in another, and the legacy
// aliases share the default venue's scope.
func NewMultiVenue(vr *venue.Registry, filterFactory func() filter.PositionFilter, opts ...Option) (*Server, error) {
	if vr == nil {
		return nil, errors.New("server: nil venue registry")
	}
	return newServer(nil, vr, nil, filterFactory, opts)
}

// Venues returns the registry a multi-venue server serves from; nil
// for single-venue servers.
func (s *Server) Venues() *venue.Registry { return s.venues }

// venueID slices the venue id out of a /v1/venues/{venue}... path;
// empty for the legacy alias routes (no venue segment).
//
//loclint:hotpath
func venueID(r *http.Request) string {
	p := r.URL.Path
	if len(p) <= len(venuePrefix) || p[:len(venuePrefix)] != venuePrefix {
		return ""
	}
	rest := p[len(venuePrefix):]
	if i := strings.IndexByte(rest, '/'); i >= 0 {
		return rest[:i]
	}
	return rest
}

// errNoDefaultVenue answers legacy-alias requests when the registry
// has no default venue configured.
var errNoDefaultVenue = errors.New("no default venue configured; use /v1/venues/{venue}/...")

// resolveVenue pins the request's venue: the path's id, or for an
// unversioned path the single venue, else the registry default. On
// false the error response has been written. The caller must Release
// the returned venue.
//
//loclint:hotpath
func (s *Server) resolveVenue(w http.ResponseWriter, r *http.Request) (*venue.Venue, bool) {
	id := venueID(r)
	if id == "" {
		if s.home != nil {
			return s.home.Acquire(), true
		}
		id = s.venues.DefaultID()
		if id == "" {
			writeErrorCode(w, http.StatusNotFound, codeVenueNotFound, errNoDefaultVenue)
			return nil, false
		}
	}
	v, err := s.venues.Acquire(id)
	if err != nil {
		if errors.Is(err, venue.ErrUnknownVenue) || errors.Is(err, venue.ErrInvalidID) {
			writeErrorCode(w, http.StatusNotFound, codeVenueNotFound, err)
		} else {
			writeErrorCode(w, http.StatusInternalServerError, codeVenueLoadFailed, err)
		}
		return nil, false
	}
	return v, true
}

// venuesResponse is the GET /v1/venues body.
type venuesResponse struct {
	Venues   []venue.Status `json:"venues"`
	Registry venue.Stats    `json:"registry"`
}

func (s *Server) handleVenues(w http.ResponseWriter, r *http.Request) {
	list, err := s.venues.List()
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusOK, venuesResponse{Venues: list, Registry: s.venues.Stats()})
}

func (s *Server) handleVenueStatus(w http.ResponseWriter, r *http.Request) {
	// Status never forces a cold load: probing a venue must not churn
	// the LRU or spend a load on an operator's curiosity.
	st, err := s.venues.Status(venueID(r))
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) handleLocations(w http.ResponseWriter, r *http.Request) {
	v, ok := s.resolveVenue(w, r)
	if !ok {
		return
	}
	defer v.Release()
	s.locations(w, v.Snapshot().Service)
}

//loclint:hotpath
func (s *Server) handleLocate(w http.ResponseWriter, r *http.Request) {
	v, ok := s.resolveVenue(w, r)
	if !ok {
		return
	}
	defer v.Release()
	s.locate(w, r, v.Snapshot().Service)
}

//loclint:hotpath
func (s *Server) handleLocateBatch(w http.ResponseWriter, r *http.Request) {
	v, ok := s.resolveVenue(w, r)
	if !ok {
		return
	}
	defer v.Release()
	s.locateBatch(w, r, v.Snapshot().Service)
}

func (s *Server) handleTrackPost(w http.ResponseWriter, r *http.Request) {
	v, ok := s.resolveVenue(w, r)
	if !ok {
		return
	}
	defer v.Release()
	s.trackPost(w, r, v)
}

func (s *Server) handleTrackDelete(w http.ResponseWriter, r *http.Request) {
	v, ok := s.resolveVenue(w, r)
	if !ok {
		return
	}
	defer v.Release()
	s.trackDelete(w, r, v)
}

func (s *Server) handleTrainReport(w http.ResponseWriter, r *http.Request) {
	v, ok := s.resolveVenue(w, r)
	if !ok {
		return
	}
	defer v.Release()
	mgr := v.Manager()
	if mgr == nil {
		// A venue without a pipeline — an artifact, a .tdb without a WAL
		// dir, a follower's replica — is frozen: 409, not 404. The
		// endpoint and the venue both exist; the venue serves a radio map
		// it has no authority to mutate.
		writeErrorCode(w, http.StatusConflict, codeVenueFrozen, venue.ErrFrozen)
		return
	}
	s.trainReport(w, r, mgr)
}
