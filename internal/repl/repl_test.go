package repl

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"indoorloc/internal/core"
	"indoorloc/internal/ingest"
	"indoorloc/internal/localize"
	"indoorloc/internal/trainingdb"
)

// This file holds the chaos/property suite for the full replication
// loop: a real ingest.Manager + Source on one end of an HTTP server,
// a real Follower on the other, with the network in between
// deliberately cut, swapped, and regressed.

// replRebuilder mirrors locserved's: probabilistic locator plus entry
// names, so the snapshot locator exposes a compiled view to replicate.
func replRebuilder(db *trainingdb.DB) (*core.Service, error) {
	in, err := core.New(core.WithDB(db), core.WithEntryNames())
	if err != nil {
		return nil, err
	}
	return in.Service, nil
}

// trainerInstance is one trainer lifetime: manager, source, and a
// channel that kills its in-flight WAL streams when the "process"
// dies (a real restart drops the TCP connections; httptest keeps the
// listener, so the harness cuts the streams itself).
type trainerInstance struct {
	mgr  *ingest.Manager
	src  *Source
	dead chan struct{}
}

// trainerHarness serves replication endpoints for a swappable trainer
// instance, with a one-shot byte limit that tears a WAL stream
// mid-flight and a kill switch that drops every active stream (the
// way a real restart drops TCP connections).
type trainerHarness struct {
	t   *testing.T
	ts  *httptest.Server
	cur atomic.Pointer[trainerInstance]
	cut atomic.Int64 // one-shot: >0 tears the next WAL stream after N bytes

	mu   sync.Mutex
	kill chan struct{} // closed+replaced to drop active WAL streams
}

func newTrainerHarness(t *testing.T, walPath string, cfg ingest.Config) *trainerHarness {
	t.Helper()
	h := &trainerHarness{t: t, kill: make(chan struct{})}
	h.cur.Store(h.spawn(walPath, cfg))
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/replicate/snapshot", func(w http.ResponseWriter, r *http.Request) {
		h.cur.Load().src.ServeSnapshot(w, r)
	})
	mux.HandleFunc("/v1/replicate/wal", func(w http.ResponseWriter, r *http.Request) {
		inst := h.cur.Load()
		h.mu.Lock()
		kill := h.kill
		h.mu.Unlock()
		ctx, cancel := context.WithCancel(r.Context())
		defer cancel()
		go func() {
			select {
			case <-inst.dead:
				cancel()
			case <-kill:
				cancel()
			case <-ctx.Done():
			}
		}()
		if limit := h.cut.Swap(0); limit > 0 {
			w = &cutWriter{ResponseWriter: w, budget: limit}
		}
		inst.src.ServeWAL(w, r.WithContext(ctx))
	})
	h.ts = httptest.NewServer(mux)
	t.Cleanup(h.ts.Close)
	t.Cleanup(func() { h.cur.Load().mgr.Close() })
	return h
}

// tear arms a byte budget for the next WAL stream and drops the
// active ones, so the follower reconnects into the cut.
func (h *trainerHarness) tear(limit int64) {
	h.cut.Store(limit)
	h.mu.Lock()
	close(h.kill)
	h.kill = make(chan struct{})
	h.mu.Unlock()
}

// spawn builds a trainer instance over a fresh master DB and the given
// WAL path, with replication capture wired from the first publish.
func (h *trainerHarness) spawn(walPath string, cfg ingest.Config) *trainerInstance {
	h.t.Helper()
	src := NewSource(SourceConfig{Heartbeat: 50 * time.Millisecond})
	cfg.WALPath = walPath
	cfg.OnPublish = src.OnPublish
	mgr, err := ingest.NewManager(replTestDB(), replRebuilder, cfg)
	if err != nil {
		h.t.Fatal(err)
	}
	src.Bind(mgr)
	return &trainerInstance{mgr: mgr, src: src, dead: make(chan struct{})}
}

// restart simulates a trainer dying and coming back with a fresh WAL
// (a new epoch, a new history): the old instance's streams are cut,
// its manager closed, and a new instance serves the same URL.
func (h *trainerHarness) restart(walPath string, cfg ingest.Config) *trainerInstance {
	h.t.Helper()
	old := h.cur.Load()
	close(old.dead)
	old.mgr.Close()
	inst := h.spawn(walPath, cfg)
	h.cur.Store(inst)
	h.t.Cleanup(func() { inst.mgr.Close() })
	return inst
}

func (h *trainerHarness) mgr() *ingest.Manager { return h.cur.Load().mgr }

// cutWriter tears the response after a byte budget: the next Write
// that would exceed it writes the remainder and then fails, so the
// stream dies mid-frame from the client's point of view.
type cutWriter struct {
	http.ResponseWriter
	budget int64
}

func (c *cutWriter) Write(b []byte) (int, error) {
	if c.budget <= 0 {
		return 0, fmt.Errorf("stream torn by test harness")
	}
	if int64(len(b)) > c.budget {
		n, _ := c.ResponseWriter.Write(b[:c.budget])
		c.budget = 0
		if f, ok := c.ResponseWriter.(http.Flusher); ok {
			f.Flush()
		}
		return n, fmt.Errorf("stream torn by test harness")
	}
	c.budget -= int64(len(b))
	return c.ResponseWriter.Write(b)
}

func (c *cutWriter) Unwrap() http.ResponseWriter { return c.ResponseWriter }

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func startFollower(t *testing.T, url string) *Follower {
	t.Helper()
	f, err := NewFollower(FollowerConfig{
		TrainerURL:   url,
		ReconnectMin: 10 * time.Millisecond,
		ReconnectMax: 100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := f.Start(ctx); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	return f
}

// compiledOf extracts the dense radio-map view a registry snapshot
// serves from.
func compiledOf(t *testing.T, snap *core.Snapshot) *trainingdb.Compiled {
	t.Helper()
	src, ok := snap.Service.Locator.(localize.CompiledSource)
	if !ok || src.CompiledView() == nil {
		t.Fatalf("snapshot locator %T exposes no compiled view", snap.Service.Locator)
	}
	return src.CompiledView()
}

// converged waits until the follower serves the trainer's current
// generation with the stream fully applied, then asserts the two
// compiled radio maps are byte-identical.
func converged(t *testing.T, mgr *ingest.Manager, f *Follower) {
	t.Helper()
	defer func() {
		if t.Failed() {
			t.Logf("follower stats: %+v", f.Stats())
			t.Logf("trainer: gen %d head %d", mgr.Registry().Current().Generation, mgr.WAL().Seq())
		}
	}()
	waitFor(t, "follower convergence", func() bool {
		st := f.Stats()
		return st.State == StateStreaming &&
			st.Generation == mgr.Registry().Current().Generation &&
			st.AppliedSeq == mgr.WAL().Seq()
	})
	want := compiledOf(t, mgr.Registry().Current())
	got := compiledOf(t, f.Registry().Current())
	compiledEqual(t, "trainer vs follower", want, got)
}

// submitReports streams n mixed reports through the trainer: named
// reinforcements, coordinate snaps, new entries, new APs.
func submitReports(t *testing.T, mgr *ingest.Manager, n, seed int) {
	t.Helper()
	for i := 0; i < n; i++ {
		k := seed + i
		var r ingest.Report
		switch k % 4 {
		case 0:
			r = ingest.Report{Name: fmt.Sprintf("g%d", k%9),
				Observation: map[string]float64{"ap0": -45 - float64(k%17)}}
		case 1:
			r = ingest.Report{Pos: &ingest.ReportPos{X: float64(k%3) * 20, Y: 1},
				Observation: map[string]float64{"ap1": -55.5 - float64(k%7)}}
		case 2:
			r = ingest.Report{Name: fmt.Sprintf("wing%d", k%3), Pos: &ingest.ReportPos{X: 200 + float64(k%3), Y: 300},
				Observation: map[string]float64{"ap2": -70, fmt.Sprintf("ap-x%d", k%2): -82}}
		default:
			r = ingest.Report{Name: "g4", Observation: map[string]float64{"ap0": -50, "ap1": -60, "ap2": -70}}
		}
		if err := mgr.Submit(r); err != nil {
			t.Fatal(err)
		}
	}
}

// TestFollowerConvergesByteIdentical is the tentpole property end to
// end: bootstrap from the snapshot payload, tail the WAL through real
// HTTP, and land on compiled matrices byte-identical to the trainer's
// at the same generation — through new entries, new APs, and σ=0
// clamp cases.
func TestFollowerConvergesByteIdentical(t *testing.T) {
	h := newTrainerHarness(t, filepath.Join(t.TempDir(), "t.wal"),
		ingest.Config{FlushReports: 5, FlushInterval: 20 * time.Millisecond, SnapRadius: 5})
	f := startFollower(t, h.ts.URL)
	converged(t, h.mgr(), f)

	submitReports(t, h.mgr(), 60, 0)
	waitFor(t, "trainer folds", func() bool { return h.mgr().Stats().Folded >= 60 })
	converged(t, h.mgr(), f)
	st := f.Stats()
	if st.Bootstraps != 1 {
		t.Errorf("bootstraps %d, want exactly 1", st.Bootstraps)
	}
	if st.Regressions != 0 {
		t.Errorf("regressions %d, want 0", st.Regressions)
	}
	if st.Folded == 0 {
		t.Error("follower folded nothing; it converged by re-bootstrapping, not streaming")
	}
}

// TestFollowerNamesMode checks the Names knob: the default derives a
// symbolic name map from the replica's entries, NamesNone publishes
// position-only services — matching a trainer that serves without a
// name map (and skipping the O(entries) nearest-name scan per locate).
func TestFollowerNamesMode(t *testing.T) {
	h := newTrainerHarness(t, filepath.Join(t.TempDir(), "t.wal"),
		ingest.Config{FlushReports: 5, FlushInterval: 20 * time.Millisecond, SnapRadius: 5})

	def := startFollower(t, h.ts.URL)
	converged(t, h.mgr(), def)
	if def.Registry().Current().Service.Names == nil {
		t.Error("default follower published no name map; want entry-derived names")
	}

	bare, err := NewFollower(FollowerConfig{
		TrainerURL:   h.ts.URL,
		Names:        NamesNone,
		ReconnectMin: 10 * time.Millisecond,
		ReconnectMax: 100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := bare.Start(ctx); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { bare.Close() })
	converged(t, h.mgr(), bare)
	if bare.Registry().Current().Service.Names != nil {
		t.Error("NamesNone follower published a name map; want position-only services")
	}

	// The knob changes only the name layer, never the radio map.
	submitReports(t, h.mgr(), 20, 0)
	waitFor(t, "trainer folds", func() bool { return h.mgr().Stats().Folded >= 20 })
	converged(t, h.mgr(), def)
	converged(t, h.mgr(), bare)
}

// TestFollowerSurvivesTornStreams cuts the WAL stream at hostile byte
// positions — mid-header, mid-payload — and checks the follower
// reconnects from its applied sequence and still converges bit-for-bit
// with no world reset.
func TestFollowerSurvivesTornStreams(t *testing.T) {
	h := newTrainerHarness(t, filepath.Join(t.TempDir(), "t.wal"),
		ingest.Config{FlushReports: 4, FlushInterval: 15 * time.Millisecond, SnapRadius: 5})
	f := startFollower(t, h.ts.URL)
	converged(t, h.mgr(), f)

	for round, limit := range []int64{23, 158, 401} {
		h.tear(limit)
		submitReports(t, h.mgr(), 30, 1000*(round+1))
		waitFor(t, "trainer folds", func() bool {
			return h.mgr().Stats().Folded >= uint64(30*(round+1))
		})
		converged(t, h.mgr(), f)
	}
	st := f.Stats()
	if st.Reconnects == 0 {
		t.Error("no reconnects — the cuts never landed and the test proved nothing")
	}
	if st.Regressions != 0 || st.Bootstraps != 1 {
		t.Errorf("torn streams caused %d regressions / %d bootstraps; want 0 / 1", st.Regressions, st.Bootstraps)
	}
}

// TestFollowerKillAndRestart kills a follower and starts a fresh one
// (the restart case: no memory, empty state) against a trainer that
// kept moving; the newcomer must bootstrap once and converge to the
// same bytes.
func TestFollowerKillAndRestart(t *testing.T) {
	h := newTrainerHarness(t, filepath.Join(t.TempDir(), "t.wal"),
		ingest.Config{FlushReports: 3, FlushInterval: 15 * time.Millisecond, SnapRadius: 5})
	f := startFollower(t, h.ts.URL)
	submitReports(t, h.mgr(), 20, 0)
	waitFor(t, "trainer folds", func() bool { return h.mgr().Stats().Folded >= 20 })
	converged(t, h.mgr(), f)
	f.Close() // kill

	// The trainer keeps publishing while the follower is down.
	submitReports(t, h.mgr(), 25, 500)
	waitFor(t, "trainer folds", func() bool { return h.mgr().Stats().Folded >= 45 })

	f2 := startFollower(t, h.ts.URL)
	converged(t, h.mgr(), f2)
	if st := f2.Stats(); st.Bootstraps != 1 || st.Regressions != 0 {
		t.Errorf("restarted follower: %d bootstraps / %d regressions, want 1 / 0", st.Bootstraps, st.Regressions)
	}
}

// TestFollowerRebootstrapsOnEpochChange is the trainer-restart chaos
// case: the trainer dies and comes back with a fresh WAL — a new
// epoch, a new history whose sequence numbers overlap the old ones.
// The follower must detect the regression, discard its world, and
// re-bootstrap onto the new history rather than fold alien records.
func TestFollowerRebootstrapsOnEpochChange(t *testing.T) {
	dir := t.TempDir()
	cfg := ingest.Config{FlushReports: 3, FlushInterval: 15 * time.Millisecond, SnapRadius: 5}
	h := newTrainerHarness(t, filepath.Join(dir, "life1.wal"), cfg)
	f := startFollower(t, h.ts.URL)
	submitReports(t, h.mgr(), 20, 0)
	waitFor(t, "trainer folds", func() bool { return h.mgr().Stats().Folded >= 20 })
	converged(t, h.mgr(), f)
	epoch1 := h.mgr().WAL().Epoch()

	// Trainer restart with a brand-new journal: different epoch, head
	// far below the follower's applied sequence.
	inst := h.restart(filepath.Join(dir, "life2.wal"), cfg)
	if e2 := inst.mgr.WAL().Epoch(); e2 == epoch1 {
		t.Fatalf("fresh WAL reused epoch %x", e2)
	}
	submitReports(t, inst.mgr, 7, 9000)
	waitFor(t, "new trainer folds", func() bool { return inst.mgr.Stats().Folded >= 7 })

	waitFor(t, "world reset", func() bool { return f.Stats().Regressions >= 1 })
	converged(t, inst.mgr, f)
	if st := f.Stats(); st.Bootstraps < 2 {
		t.Errorf("bootstraps %d, want ≥ 2 (one per trainer life)", st.Bootstraps)
	}
}

// TestBootstrapRejectsStaleGeneration pins the stale-snapshot guard: a
// bootstrap manifest from the epoch the follower already follows with
// a generation below what it serves must be refused, not regress the
// fleet.
func TestBootstrapRejectsStaleGeneration(t *testing.T) {
	h := newTrainerHarness(t, filepath.Join(t.TempDir(), "t.wal"),
		ingest.Config{FlushReports: 1, FlushInterval: time.Hour})
	f, err := NewFollower(FollowerConfig{TrainerURL: h.ts.URL})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := f.bootstrap(ctx); err != nil {
		t.Fatal(err)
	}
	// Pretend the fleet already serves a later generation of this epoch
	// (e.g. the balancer handed us a lagging trainer's snapshot).
	f.gen.Store(f.gen.Load() + 5)
	err = f.bootstrap(ctx)
	if err == nil {
		t.Fatal("stale snapshot accepted")
	}
	if st := f.Stats(); st.StaleRejects != 1 {
		t.Errorf("stale rejects %d, want 1 (err: %v)", st.StaleRejects, err)
	}
}

// TestServeWALPositionBeyondHead: a follower whose position is past
// the trainer's head (history regressed without an epoch change, e.g.
// a restored WAL backup) gets the hello and a clean end of stream, and
// the follower-side check turns it into a world reset.
func TestServeWALPositionBeyondHead(t *testing.T) {
	h := newTrainerHarness(t, filepath.Join(t.TempDir(), "t.wal"),
		ingest.Config{FlushReports: 1, FlushInterval: time.Hour})
	resp, err := http.Get(h.ts.URL + "/v1/replicate/wal?from=999")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	fr := NewFrameReader(resp.Body)
	frame, err := fr.Next()
	if err != nil || frame.Type != FrameHello {
		t.Fatalf("first frame %+v, err %v", frame, err)
	}
	hello, err := ParseHello(frame.Payload)
	if err != nil {
		t.Fatal(err)
	}
	if hello.HeadSeq >= 999 {
		t.Fatalf("head %d should be below the requested position", hello.HeadSeq)
	}
	if _, err := fr.Next(); err == nil {
		t.Fatal("stream continued past an unreachable position")
	}
}

func TestServeSnapshotGenAssertion(t *testing.T) {
	h := newTrainerHarness(t, filepath.Join(t.TempDir(), "t.wal"),
		ingest.Config{FlushReports: 1, FlushInterval: time.Hour})
	st := h.cur.Load().src.Stats()
	if !st.Ready {
		t.Fatal("source captured nothing from the initial publish")
	}
	get := func(q string) int {
		resp, err := http.Get(h.ts.URL + "/v1/replicate/snapshot" + q)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := get(fmt.Sprintf("?gen=%d", st.Generation)); code != http.StatusOK {
		t.Errorf("matching gen: %d", code)
	}
	if code := get(fmt.Sprintf("?gen=%d", st.Generation+1)); code != http.StatusConflict {
		t.Errorf("mismatched gen: %d, want 409", code)
	}
	if code := get("?gen=bogus"); code != http.StatusBadRequest {
		t.Errorf("unparsable gen: %d, want 400", code)
	}
}

// TestReplErrorEnvelope: replication-endpoint errors carry the same
// {"error":{code,message}} envelope as the serving API, with a stable
// machine-readable code, so followers and operators branch on codes
// rather than message text. Regression test for the ad-hoc
// {"error":"msg"} bodies replError used to emit.
func TestReplErrorEnvelope(t *testing.T) {
	h := newTrainerHarness(t, filepath.Join(t.TempDir(), "t.wal"),
		ingest.Config{FlushReports: 1, FlushInterval: time.Hour})
	st := h.cur.Load().src.Stats()
	cases := []struct {
		path     string
		status   int
		wantCode string
	}{
		{"/v1/replicate/snapshot?gen=bogus", http.StatusBadRequest, "bad_request"},
		{fmt.Sprintf("/v1/replicate/snapshot?gen=%d", st.Generation+1), http.StatusConflict, "generation_conflict"},
		{"/v1/replicate/wal?from=bogus", http.StatusBadRequest, "bad_request"},
	}
	for _, tc := range cases {
		resp, err := http.Get(h.ts.URL + tc.path)
		if err != nil {
			t.Fatal(err)
		}
		var env struct {
			Error struct {
				Code    string `json:"code"`
				Message string `json:"message"`
			} `json:"error"`
		}
		err = json.NewDecoder(resp.Body).Decode(&env)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("%s: body is not an error envelope: %v", tc.path, err)
		}
		if resp.StatusCode != tc.status {
			t.Errorf("%s: status %d, want %d", tc.path, resp.StatusCode, tc.status)
		}
		if env.Error.Code != tc.wantCode {
			t.Errorf("%s: code %q, want %q", tc.path, env.Error.Code, tc.wantCode)
		}
		if env.Error.Message == "" {
			t.Errorf("%s: empty message", tc.path)
		}
	}
}

// TestFollowerStatsUnderChurn runs readers over Stats while the
// follower streams — the gauges are read from handler goroutines in
// production, so this is the -race contract for the telemetry path.
func TestFollowerStatsUnderChurn(t *testing.T) {
	h := newTrainerHarness(t, filepath.Join(t.TempDir(), "t.wal"),
		ingest.Config{FlushReports: 2, FlushInterval: 10 * time.Millisecond, SnapRadius: 5})
	f := startFollower(t, h.ts.URL)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					st := f.Stats()
					if st.HeadSeq >= st.AppliedSeq && st.LagSeqs != st.HeadSeq-st.AppliedSeq {
						t.Errorf("inconsistent lag: %+v", st)
						return
					}
					time.Sleep(100 * time.Microsecond)
				}
			}
		}()
	}
	submitReports(t, h.mgr(), 40, 0)
	waitFor(t, "trainer folds", func() bool { return h.mgr().Stats().Folded >= 40 })
	converged(t, h.mgr(), f)
	close(stop)
	wg.Wait()
}
