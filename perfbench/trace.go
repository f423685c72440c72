package main

// The traced run. The program has no spans of its own yet, so each
// layer is timed from outside: the benchmark replays the workload's
// inputs through every layer's public call and records a span around
// each. Spans of one request share an id; a parent's self time is its
// duration minus its children's. Only the root and the in-process
// Server.ServeHTTP wrap the whole request; the layers below them are
// separate replays of the same input, marked as such in the table.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"time"

	"indoorloc/internal/core"
	"indoorloc/internal/localize"
	"indoorloc/internal/venue"
)

// span is one timed call. Parent indexes the span's parent in the
// tracer's slice, -1 for a root.
type span struct {
	ID     int64  `json:"id"`
	Name   string `json:"name"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Replay bool   `json:"replay"`
}

type tracer struct {
	mu    sync.Mutex
	base  time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

// add records a span of duration d starting at t0 and returns its
// index.
func (t *tracer) add(id int64, name string, parent int, t0 time.Time, d time.Duration, replay bool) int {
	s := int64(t0.Sub(t.base))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: id, Name: name, Parent: parent, Start: s, End: s + int64(d), Replay: replay})
	return len(t.spans) - 1
}

// selfTimes returns, per span name, the self time of every span of
// that name in microseconds, and per name the root duration total of
// the requests it appears in.
func (t *tracer) selfTimes(root string) (self map[string][]float64, replay map[string]bool, rootTotal float64) {
	self, replay = map[string][]float64{}, map[string]bool{}
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	inTree := make([]bool, len(t.spans))
	for i, s := range t.spans {
		inTree[i] = (s.Parent < 0 && s.Name == root) || (s.Parent >= 0 && inTree[s.Parent])
		if !inTree[i] {
			continue
		}
		self[s.Name] = append(self[s.Name], float64(s.End-s.Start-child[i])/1e3)
		replay[s.Name] = replay[s.Name] || s.Replay
		if s.Parent < 0 {
			rootTotal += float64(s.End-s.Start) / 1e3
		}
	}
	return self, replay, rootTotal
}

func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// recorder is a reusable in-process http.ResponseWriter.
type recorder struct {
	h      http.Header
	status int
	body   bytes.Buffer
}

func (r *recorder) Header() http.Header { return r.h }
func (r *recorder) WriteHeader(s int) {
	if r.status == 0 {
		r.status = s
	}
}
func (r *recorder) Write(p []byte) (int, error) {
	if r.status == 0 {
		r.status = http.StatusOK
	}
	return r.body.Write(p)
}
func (r *recorder) reset() {
	clear(r.h)
	r.status = 0
	r.body.Reset()
}

// inproc replays one request body through a handler without a
// network; it reuses its request and reader so the harness itself
// allocates nothing per call.
type inproc struct {
	req *http.Request
	rd  *bytes.Reader
	rec recorder
}

func newInproc(path string) *inproc {
	req, err := http.NewRequest(http.MethodPost, "http://bench"+path, nil)
	if err != nil {
		panic(err) // constant scheme and host; path comes from venue ids
	}
	req.Header.Set("Content-Type", "application/json")
	return &inproc{req: req, rd: bytes.NewReader(nil), rec: recorder{h: http.Header{}}}
}

func (p *inproc) serve(h http.Handler, body []byte) {
	p.rd.Reset(body)
	p.req.Body = io.NopCloser(p.rd)
	p.req.ContentLength = int64(len(body))
	p.rec.reset()
	h.ServeHTTP(&p.rec, p.req)
}

// venueService pins venue id, returns what fn computed from its current
// service, and releases the pin.
func venueService[T any](reg *venue.Registry, id string, fn func(*core.Service) (T, error)) (T, error) {
	v, err := reg.Acquire(id)
	if err != nil {
		var zero T
		return zero, err
	}
	defer v.Release()
	return fn(v.Snapshot().Service)
}

func timeAcquire(reg *venue.Registry, id string) (time.Duration, error) {
	t0 := time.Now()
	v, err := reg.Acquire(id)
	if err != nil {
		return 0, err
	}
	v.Release()
	return time.Since(t0), nil
}

// traced is the --trace 1 run: half the fixed-rate phase untraced,
// half traced, then the layer replays.
func (b *bench) traced(out io.Writer) (*result, error) {
	half := time.Duration(b.cfg.seconds * openShare / 2 * float64(time.Second))
	tr := newTracer()
	runtime.GC()
	plain, plainWr, _ := b.openPhase(half, b.readOp(0))
	runtime.GC()
	gc0 := readGC()
	inner := b.readOp(1 << 18)
	var reqID int64
	var idMu sync.Mutex
	tracedOp := func(w, k int) (int, error) {
		idMu.Lock()
		reqID++
		id := reqID
		idMu.Unlock()
		t0 := time.Now()
		n, err := inner(w, k)
		tr.add(id, "http.request", -1, t0, time.Since(t0), false)
		return n, err
	}
	rd, wr, _ := b.openPhase(half, tracedOp)
	gc1 := readGC()
	if err := b.checkBatchReads(); err != nil {
		return nil, err
	}

	lm := map[string]metric{}
	r := &replayer{b: b, tr: tr, m: lm, id: 1 << 40}
	if err := r.all(); err != nil {
		return nil, err
	}
	ops := plain.ops + plainWr.ops + rd.ops + wr.ops + r.ops + 1
	failed := plain.failed + plainWr.failed + rd.failed + wr.failed + b.batchFailures() + r.failed
	for _, l := range []*loopStats{plain, plainWr, rd, wr} {
		if l.firstErr != nil {
			fmt.Fprintf(out, "first failure: %v\n", l.firstErr)
			break
		}
	}

	obs := float64(rd.obs)
	lm["runtime.gc_cpu_share"] = metric{(gc1.gcCPU - gc0.gcCPU) / math.Max(gc1.totalCPU-gc0.totalCPU, 1e-9), "ratio"}
	lm["runtime.gc_cycles_per_kobs"] = metric{(gc1.cycles - gc0.cycles) / obs * 1000, "count"}
	lm["bench.late_ms_p99"] = metric{quantile(rd.late, 0.99), "ms"}
	p50u, p50t := plain.latQuantile(half.Seconds(), 0.5, 0.25, 100), rd.latQuantile(half.Seconds(), 0.5, 0.25, 100)
	lm["bench.trace_overhead_ms"] = metric{p50t - p50u, "ms"}
	if b.sp.writeRate > 0 {
		v, err := b.st.reg.Acquire(b.in.Venues[0])
		if err != nil {
			return nil, err
		}
		st := v.Manager().Stats()
		v.Release()
		lm["ingest.rejected_full"] = metric{float64(st.RejectedFull), "count"}
	}

	if err := tr.write(filepath.Join(b.cfg.work, "traces", fmt.Sprintf("%s-seed%d.jsonl", b.cfg.workload, b.cfg.seed))); err != nil {
		return nil, err
	}
	fmt.Fprintf(out, "workload %s seed %d (traced): %d operations, %d failed\n", b.cfg.workload, b.cfg.seed, ops, failed)
	fmt.Fprintf(out, "lat_p50_ms untraced %.4f (n=%d), traced %.4f (n=%d): tracing overhead %+.4f ms\n",
		p50u, len(plain.lat), p50t, len(rd.lat), p50t-p50u)
	fmt.Fprintln(out, r.note)
	printLayerTable(out, tr, "request", "single locate, replayed sequentially")
	printLayerTable(out, tr, "batch.request", fmt.Sprintf("batch locate of up to %d observations, replayed sequentially", replayBatch))
	for _, k := range sortedKeys(lm) {
		fmt.Fprintf(out, "  %-30s %14.4f %s\n", k, lm[k].Value, lm[k].Unit)
	}
	return &result{Correct: failed == 0, Attempted: ops, Failed: failed, Metrics: lm}, nil
}

func printLayerTable(out io.Writer, tr *tracer, root, title string) {
	self, replay, total := tr.selfTimes(root)
	if total == 0 {
		return
	}
	fmt.Fprintf(out, "layer table: %s (%d requests)\n", title, len(self[root]))
	fmt.Fprintf(out, "  %-20s %12s %12s %8s  %s\n", "layer", "self p50 us", "self p99 us", "share", "measured")
	names := sortedKeys(self)
	sort.SliceStable(names, func(i, j int) bool { return layerOrder(names[i]) < layerOrder(names[j]) })
	sum := 0.0
	for _, n := range names {
		xs := self[n]
		s := 0.0
		for _, x := range xs {
			s += x
		}
		sum += s
		how := "in run"
		if replay[n] {
			how = "by replay"
		}
		fmt.Fprintf(out, "  %-20s %12.2f %12.2f %7.2f%%  %s\n", n, quantile(xs, 0.5), quantile(xs, 0.99), 100*s/total, how)
	}
	fmt.Fprintf(out, "  %-20s %38.2f%%  (self times sum to the request time)\n", "sum", 100*sum/total)
}

func layerOrder(name string) int {
	for i, p := range []string{"request", "batch.request", "net", "server", "venue", "core", "localize", "locmap"} {
		if len(name) >= len(p) && name[:len(p)] == p {
			return i
		}
	}
	return 99
}

type gcStats struct{ gcCPU, totalCPU, cycles float64 }

func readGC() gcStats {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/gc/cycles/total:gc-cycles"},
	}
	metrics.Read(s)
	val := func(v metrics.Value) float64 {
		switch v.Kind() {
		case metrics.KindFloat64:
			return v.Float64()
		case metrics.KindUint64:
			return float64(v.Uint64())
		}
		return math.NaN()
	}
	return gcStats{val(s[0].Value), val(s[1].Value), val(s[2].Value)}
}

// replayBatch is the batch size of the batch-locate replay: that of
// floor-train's reads.
const replayBatch = 8

// replayer times each layer's public call on the workload's inputs.
type replayer struct {
	b      *bench
	tr     *tracer
	m      map[string]metric
	id     int64
	ops    int64
	failed int64
	note   string // the allocation breakdown, for the report
}

func (r *replayer) fail(format string, args ...any) {
	r.failed++
	if r.failed == 1 {
		fmt.Fprintf(os.Stderr, "perfbench: replay: "+format+"\n", args...)
	}
}

// budget bounds each replay loop in time; the count bounds it in work.
func (r *replayer) budget() time.Duration {
	return time.Duration(min(r.b.cfg.seconds/8, 2) * float64(time.Second))
}

func (r *replayer) all() error {
	for _, step := range []func() error{r.single, r.batch, r.allocs, r.coldLoads, r.loads, r.ingest} {
		if err := step(); err != nil {
			return err
		}
	}
	return nil
}

func us(d time.Duration) float64 { return float64(d) / 1e3 }
func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// replayReps is how often a request's replayed calls repeat. Each is
// timed apart from the others, so a single timing the hypervisor or a
// collection interrupted would set its own layer's self time and its
// parent's, with opposite signs; each call keeps its shortest time. The
// calls repeat as whole rounds in the order the server makes them, so
// each finds the caches as the served request leaves them: repeating
// one call back to back would time it on caches it had just filled.
const replayReps = 3

// timed returns how long fn took.
func timed(fn func()) time.Duration {
	t0 := time.Now()
	fn()
	return time.Since(t0)
}

// singleTimes is one round of a single locate's replayed calls.
type singleTimes struct{ serve, acq, core, loc, near, rt time.Duration }

func (t singleTimes) shortest(o singleTimes) singleTimes {
	return singleTimes{min(t.serve, o.serve), min(t.acq, o.acq), min(t.core, o.core),
		min(t.loc, o.loc), min(t.near, o.near), min(t.rt, o.rt)}
}

// single replays single locates. Per request: Acquire+Release (where
// a cold venue loads), then replayReps rounds of ServeHTTP in process,
// a warm Acquire+Release, core.Service.Locate, Locator.Locate,
// Names.Nearest and the loopback round trip. The request span is the
// round trip with the warm acquire swapped for the first one, so a
// cold load counts where it happens.
func (r *replayer) single() error {
	b := r.b
	reg := b.st.reg
	var netSelf, srvSelf, acq, coreSelf, coreT, loc, near []float64
	deadline := time.Now().Add(r.budget())
	paths := make([]*inproc, len(b.in.Venues))
	single := make([][]byte, len(b.in.Obs))
	for i, o := range b.in.Obs {
		single[i], _ = json.Marshal(map[string]any{"observation": o})
	}
	for k := 0; k < 4000 && time.Now().Before(deadline); k++ {
		i := b.in.Seq[k%len(b.in.Seq)]
		id := b.in.Venues[b.in.ObsVenue[i]]
		p := paths[b.in.ObsVenue[i]]
		if p == nil {
			p = newInproc("/v1/venues/" + id + "/locate")
			paths[b.in.ObsVenue[i]] = p
		}
		r.ops++
		tStart := time.Now()
		dAcq, err := timeAcquire(reg, id)
		if err != nil {
			return err
		}
		want := b.liveAnswer(i)
		t0 := time.Now()
		var lt singleTimes
		for round := 0; round < replayReps && err == nil; round++ {
			var t singleTimes
			t, err = r.singleRound(p, id, i, single[i], want)
			if round == 0 {
				lt = t
			}
			lt = lt.shortest(t)
		}
		if err != nil {
			r.fail("single-locate replay: %v", err)
			continue
		}
		r.id++
		root := r.tr.add(r.id, "request", -1, tStart, lt.rt-lt.acq+dAcq, true)
		r.tr.add(r.id, "net+client", root, t0, lt.rt-lt.serve, false)
		srv := r.tr.add(r.id, "server.ServeHTTP", root, tStart, lt.serve-lt.acq+dAcq, true)
		r.tr.add(r.id, "venue.Acquire", srv, tStart, dAcq, true)
		c := r.tr.add(r.id, "core.Service.Locate", srv, t0, lt.core, true)
		r.tr.add(r.id, "localize.Locate", c, t0, lt.loc, true)
		r.tr.add(r.id, "locmap.Nearest", c, t0, lt.near, true)

		netSelf = append(netSelf, us(lt.rt-lt.serve))
		srvSelf = append(srvSelf, us(lt.serve-lt.acq-lt.core))
		acq = append(acq, us(lt.acq))
		coreT = append(coreT, us(lt.core))
		coreSelf = append(coreSelf, us(lt.core-lt.loc-lt.near))
		loc = append(loc, us(lt.loc))
		near = append(near, us(lt.near))
	}
	if len(loc) == 0 {
		return fmt.Errorf("single-locate replay produced no sample")
	}
	r.m["net.self_us"] = metric{quantile(netSelf, 0.5), "us"}
	r.m["server.self_us"] = metric{quantile(srvSelf, 0.5), "us"}
	r.m["venue.acquire_us"] = metric{quantile(acq, 0.5), "us"}
	r.m["core.locate_us_p50"] = metric{quantile(coreT, 0.5), "us"}
	r.m["core.self_us"] = metric{quantile(coreSelf, 0.5), "us"}
	r.m["localize.locate_us_p50"] = metric{quantile(loc, 0.5), "us"}
	r.m["localize.locate_us_p99"] = metric{quantile(loc, 0.99), "us"}
	r.m["locmap.nearest_us_p50"] = metric{quantile(near, 0.5), "us"}
	return nil
}

// singleRound times one round of observation i's replayed calls on
// venue id and checks their answers against want.
func (r *replayer) singleRound(p *inproc, id string, i int32, body []byte, want answer) (t singleTimes, err error) {
	b := r.b
	t.serve = timed(func() { p.serve(b.st.srv, body) })
	if err := checkSingle(p.rec.status, p.rec.body.Bytes(), want); err != nil {
		return t, fmt.Errorf("in process: %w", err)
	}
	if t.acq, err = timeAcquire(b.st.reg, id); err != nil {
		return t, err
	}
	_, err = venueService(b.st.reg, id, func(svc *core.Service) (struct{}, error) {
		obs := localize.Observation(b.in.Obs[i])
		var res core.Resolution
		var est localize.Estimate
		var err error
		if t.core = timed(func() { res, err = svc.Locate(obs) }); err != nil {
			return struct{}{}, err
		}
		if t.loc = timed(func() { est, err = svc.Locator.Locate(obs) }); err != nil {
			return struct{}{}, err
		}
		if svc.Names != nil {
			t.near = timed(func() { svc.Names.Nearest(est.Pos) })
		}
		if res.Estimate.Name != est.Name {
			return struct{}{}, fmt.Errorf("Service.Locate %q, Locator.Locate %q", res.Estimate.Name, est.Name)
		}
		return struct{}{}, nil
	})
	if err != nil {
		return t, err
	}
	var status int
	var out []byte
	if t.rt = timed(func() { status, out, err = post(b.client, b.st.base+"/v1/venues/"+id+"/locate", body, nil) }); err != nil {
		return t, err
	}
	if err := checkSingle(status, out, want); err != nil {
		return t, fmt.Errorf("loopback: %w", err)
	}
	return t, nil
}

// liveAnswer is the answer the serving venue gives observation i now:
// the load-time answer, or on a live venue the current snapshot's.
func (b *bench) liveAnswer(i int32) answer {
	if b.hist == nil {
		return b.expect[i]
	}
	a, err := venueService(b.st.reg, b.in.Venues[0], func(svc *core.Service) (answer, error) {
		res, err := svc.Locate(b.in.Obs[i])
		return answer{res.Estimate.Name, res.NearestName}, err
	})
	if err != nil {
		return answer{location: err.Error()}
	}
	return a
}

// replayBatches groups observations into batches of one venue: up to
// replayBatch consecutive requests on a single-venue workload, a
// venue's whole pool on the city.
func (b *bench) replayBatches(n int) [][]int32 {
	var out [][]int32
	if len(b.in.Venues) == 1 {
		for off := 0; off+replayBatch <= len(b.in.Seq) && len(out) < n; off += replayBatch {
			out = append(out, b.in.Seq[off:off+replayBatch])
		}
		return out
	}
	byVenue := map[int32][]int32{}
	for i, v := range b.in.ObsVenue {
		byVenue[v] = append(byVenue[v], int32(i))
	}
	for k := 0; k < len(b.in.Seq) && len(out) < n; k++ {
		v := b.in.ObsVenue[b.in.Seq[k]]
		out = append(out, byVenue[v][:min(replayBatch, len(byVenue[v]))])
	}
	return out
}

// batchTimes is one round of a batch locate's replayed calls.
type batchTimes struct{ serve, acq, batch, near, rt time.Duration }

func (t batchTimes) shortest(o batchTimes) batchTimes {
	return batchTimes{min(t.serve, o.serve), min(t.acq, o.acq), min(t.batch, o.batch), min(t.near, o.near), min(t.rt, o.rt)}
}

// batch replays batch locates in replayReps rounds of ServeHTTP in
// process, a warm acquire, localize.BatchInto, Names.Nearest per
// estimate, and the round trip.
func (r *replayer) batch() error {
	b := r.b
	reg := b.st.reg
	deadline := time.Now().Add(r.budget())
	var srvSelf, perObs []float64
	for _, idx := range b.replayBatches(500) {
		if time.Now().After(deadline) {
			break
		}
		id := b.in.Venues[b.in.ObsVenue[idx[0]]]
		obs := make([]localize.Observation, len(idx))
		raw := make([]map[string]float64, len(idx))
		want := make([]answer, len(idx))
		for i, j := range idx {
			obs[i], raw[i], want[i] = b.in.Obs[j], b.in.Obs[j], b.liveAnswer(j)
		}
		body, _ := json.Marshal(map[string]any{"observations": raw})
		path := "/v1/venues/" + id + "/locate/batch"
		p := newInproc(path)
		r.ops++
		if _, err := timeAcquire(reg, id); err != nil { // load a cold venue outside the spans
			return err
		}
		t0 := time.Now()
		var lt batchTimes
		var err error
		for round := 0; round < replayReps && err == nil; round++ {
			var t batchTimes
			t, err = r.batchRound(p, id, path, body, obs, want)
			if round == 0 {
				lt = t
			}
			lt = lt.shortest(t)
		}
		if err != nil {
			r.fail("batch replay: %v", err)
			continue
		}
		r.id++
		root := r.tr.add(r.id, "batch.request", -1, t0, lt.rt, false)
		r.tr.add(r.id, "net+client", root, t0, lt.rt-lt.serve, false)
		srv := r.tr.add(r.id, "server.ServeHTTP", root, t0, lt.serve, true)
		r.tr.add(r.id, "venue.Acquire", srv, t0, lt.acq, true)
		r.tr.add(r.id, "localize.BatchInto", srv, t0, lt.batch, true)
		r.tr.add(r.id, "locmap.Nearest", srv, t0, lt.near, true)
		n := float64(len(idx))
		srvSelf = append(srvSelf, us(lt.serve-lt.acq-lt.batch-lt.near)/n)
		perObs = append(perObs, us(lt.batch)/n)
	}
	if len(perObs) == 0 {
		return fmt.Errorf("batch replay produced no sample")
	}
	r.m["server.batch_self_us_per_obs"] = metric{quantile(srvSelf, 0.5), "us"}
	r.m["localize.batch_us_per_obs"] = metric{quantile(perObs, 0.5), "us"}
	return nil
}

// batchRound times one round of a batch's replayed calls on venue id
// and checks the in-process answers against want.
func (r *replayer) batchRound(p *inproc, id, path string, body []byte, obs []localize.Observation, want []answer) (t batchTimes, err error) {
	b := r.b
	t.serve = timed(func() { p.serve(b.st.srv, body) })
	if p.rec.status != http.StatusOK {
		return t, fmt.Errorf("in process: status %d", p.rec.status)
	}
	got, err := batchAnswers(p.rec.body.Bytes(), len(want))
	if err != nil {
		return t, fmt.Errorf("in process: %w", err)
	}
	for i := range got {
		if got[i] != want[i] {
			return t, fmt.Errorf("in process: answer %d: %v, want %v", i, got[i], want[i])
		}
	}
	if t.acq, err = timeAcquire(b.st.reg, id); err != nil {
		return t, err
	}
	_, err = venueService(b.st.reg, id, func(svc *core.Service) (struct{}, error) {
		res := make([]localize.BatchResult, len(obs))
		t.batch = timed(func() { localize.BatchInto(svc.Locator, obs, res) })
		if svc.Names != nil {
			t.near = timed(func() {
				for i := range res {
					svc.Names.Nearest(res[i].Estimate.Pos)
				}
			})
		}
		return struct{}{}, nil
	})
	if err != nil {
		return t, err
	}
	var status int
	if t.rt = timed(func() { status, _, err = post(b.client, b.st.base+path, body, nil) }); err != nil {
		return t, err
	}
	if status != http.StatusOK {
		return t, fmt.Errorf("loopback: status %d", status)
	}
	return t, nil
}

// allocs counts allocations per call: ServeHTTP in process (less the
// harness's own, measured around a no-op handler), Acquire+Release,
// Service.Locate and Locator.Locate, over the same requests.
func (r *replayer) allocs() error {
	b := r.b
	reg := b.st.reg
	n := min(200, len(b.in.Seq))
	if b.cfg.workload == "campus-locate" {
		n = 20
	}
	// One venue's observations, so every measured call finds its venue
	// resident: the city's cold path is venue.cold_load_*'s business.
	v := b.in.ObsVenue[b.in.Seq[0]]
	var pool []int32
	for i, ov := range b.in.ObsVenue {
		if ov == v {
			pool = append(pool, int32(i))
		}
	}
	reqs := make([]int32, n)
	for k := range reqs {
		reqs[k] = pool[k%len(pool)]
	}
	if _, err := timeAcquire(reg, b.in.Venues[v]); err != nil {
		return err
	}
	single := make([][]byte, len(reqs))
	procs := make([]*inproc, len(reqs))
	for k, i := range reqs {
		single[k], _ = json.Marshal(map[string]any{"observation": b.in.Obs[i]})
		procs[k] = newInproc("/v1/venues/" + b.in.Venues[b.in.ObsVenue[i]] + "/locate")
	}
	count := func(fn func(k int)) float64 {
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for k := range reqs {
			fn(k)
		}
		runtime.ReadMemStats(&m1)
		return float64(m1.Mallocs-m0.Mallocs) / float64(len(reqs))
	}
	noop := http.HandlerFunc(func(http.ResponseWriter, *http.Request) {})
	harness := count(func(k int) { procs[k].serve(noop, single[k]) })
	serve := count(func(k int) { procs[k].serve(b.st.srv, single[k]) })
	acq := count(func(k int) { timeAcquire(reg, b.in.Venues[b.in.ObsVenue[reqs[k]]]) })
	var coreA, locA float64
	_, err := venueService(reg, b.in.Venues[b.in.ObsVenue[reqs[0]]], func(svc *core.Service) (struct{}, error) {
		coreA = count(func(k int) { svc.Locate(b.in.Obs[reqs[k]]) })
		locA = count(func(k int) { svc.Locator.Locate(b.in.Obs[reqs[k]]) })
		return struct{}{}, nil
	})
	if err != nil {
		return err
	}
	r.note = fmt.Sprintf("allocations per single locate in process: ServeHTTP %.1f (harness's %.1f removed) = venue.Acquire %.1f + core.Service.Locate %.1f (localize.Locate %.1f) + server self %.1f",
		serve-harness, harness, acq, coreA, locA, serve-harness-acq-coreA)
	r.m["server.allocs_per_req"] = metric{serve - harness - acq - coreA, "count"}
	r.m["localize.allocs_per_locate"] = metric{locA, "count"}
	return nil
}
