package main

// The program under test: server.NewMultiVenue over a venue.Registry,
// in this process, reached over loopback HTTP.

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"

	"indoorloc/internal/core"
	"indoorloc/internal/server"
	"indoorloc/internal/trainingdb"
	"indoorloc/internal/venue"
)

// venueConfig is the registry configuration of every workload: the
// venues in dir, served with the probabilistic scorer and buildConfig.
// Workloads add a budget or live training to it.
func venueConfig(dir string) venue.Config {
	return venue.Config{Dir: dir, Algorithm: core.AlgoProbabilistic, Build: buildConfig}
}

// dbService builds the service a registry configured as cfg serves
// from a training database: a .tdb venue's, and each rebuild of a live
// one. The snapshot checks and the ingest replay share it.
func dbService(cfg venue.Config, db *trainingdb.DB) (*core.Service, error) {
	in, err := core.New(core.WithDB(db), core.WithAlgorithm(cfg.Algorithm), core.WithConfig(cfg.Build), core.WithEntryNames())
	if err != nil {
		return nil, err
	}
	return in.Service, nil
}

type stack struct {
	reg  *venue.Registry
	srv  *server.Server
	hs   *http.Server // nil until listen
	base string
	done chan struct{} // closed when Serve returns
}

// newStack builds the registry and the server; nothing listens yet, and
// no venue loads until the first request.
func newStack(cfg venue.Config) (*stack, error) {
	reg, err := venue.NewRegistry(cfg)
	if err != nil {
		return nil, err
	}
	srv, err := server.NewMultiVenue(reg, nil)
	if err != nil {
		return nil, errors.Join(err, reg.Close())
	}
	return &stack{reg: reg, srv: srv}, nil
}

// listen serves the stack on a loopback port.
func (s *stack) listen() error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	s.hs, s.base, s.done = &http.Server{Handler: s.srv}, "http://"+ln.Addr().String(), make(chan struct{})
	go func() {
		defer close(s.done)
		s.hs.Serve(ln) // returns http.ErrServerClosed once close runs
	}()
	return nil
}

// close stops the listener, waits for Serve to return, and releases
// the server and every resident venue.
func (s *stack) close() {
	if s.hs != nil {
		s.hs.Close()
		<-s.done
	}
	s.srv.Close()
	s.reg.Close()
}

func newClient(conns int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxIdleConns:        conns,
		MaxIdleConnsPerHost: conns,
		MaxConnsPerHost:     conns,
		DisableCompression:  true,
	}}
}

// post sends body and returns the status and response body, appended
// to buf.
func post(c *http.Client, url string, body []byte, buf []byte) (int, []byte, error) {
	resp, err := c.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, buf, err
	}
	defer resp.Body.Close()
	w := bytes.NewBuffer(buf[:0])
	_, err = io.Copy(w, resp.Body)
	return resp.StatusCode, w.Bytes(), err
}

// field returns the string value of the first "key":"value" in b at or
// after from, and the offset after it. Locate responses are
// encoding/json output of plain ids, so no escapes occur.
func field(b []byte, key string, from int) ([]byte, int) {
	pat := `"` + key + `":"`
	i := bytes.Index(b[from:], []byte(pat))
	if i < 0 {
		return nil, -1
	}
	start := from + i + len(pat)
	end := bytes.IndexByte(b[start:], '"')
	if end < 0 {
		return nil, -1
	}
	return b[start : start+end], start + end
}

// answer is what a locate must return for one observation.
type answer struct {
	location string
	nearest  string
}

// checkSingle compares a single-locate response with the expected
// answer.
func checkSingle(status int, body []byte, want answer) error {
	if status != http.StatusOK {
		return fmt.Errorf("status %d: %.200s", status, body)
	}
	loc, i := field(body, "location", 0)
	if i < 0 || string(loc) != want.location {
		return fmt.Errorf("location %q, want %q", loc, want.location)
	}
	if want.nearest != "" {
		near, j := field(body, "nearest_name", i)
		if j < 0 || string(near) != want.nearest {
			return fmt.Errorf("nearest_name %q, want %q", near, want.nearest)
		}
	}
	return nil
}

// batchAnswers extracts the per-observation answers of a batch
// response, in order.
func batchAnswers(body []byte, n int) ([]answer, error) {
	out := make([]answer, 0, n)
	i := 0
	for len(out) < n {
		loc, j := field(body, "location", i)
		if j < 0 {
			return nil, fmt.Errorf("batch response has %d of %d answers: %.200s", len(out), n, body)
		}
		near, k := field(body, "nearest_name", j)
		if k < 0 {
			return nil, errors.New("batch answer without nearest_name")
		}
		out = append(out, answer{string(loc), string(near)})
		i = k
	}
	return out, nil
}
