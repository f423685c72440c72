package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"indoorloc/internal/core"
	"indoorloc/internal/ingest"
	"indoorloc/internal/trainingdb"
	"indoorloc/internal/venue"
)

type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	work     string
	sz       sizes
	gen      func(work, workload string, sz sizes, seed int64) error
}

// spec is a workload's fixed load shape. The read rates sit at about
// a quarter of the capacity the serving stack reached when the
// benchmark was written (2 vCPUs, client and server in one process):
// at half, the bursts of CPU a shared host's hypervisor steals pushed
// the open-loop phase into queueing and doubled its median latency.
type spec struct {
	rate       float64 // open-loop read requests per second
	batch      int     // observations per read request; 1 = single locate
	writeRate  float64 // open-loop training POSTs per second
	writeBatch int     // reports per training POST
	// flushReports is ingest.Config.FlushReports: recompiles fire by
	// count only, one per flushReports reports.
	flushReports int
	// budgetShare sizes the LRU budget as a share of the venue bytes;
	// zero means unbounded.
	budgetShare float64
	setupReps   int // start-ups timed per run; setup_s is their median
}

var specs = map[string]spec{
	"house-locate":  {rate: 4000, batch: 1, setupReps: 1001},
	"campus-locate": {rate: 100, batch: 1, setupReps: 31},
	"floor-train":   {rate: 50, batch: 8, writeRate: 25, writeBatch: 16, flushReports: 400, setupReps: 41},
	"city-zipf":     {rate: 3000, batch: 1, budgetShare: 0.25, setupReps: 1001},
}

// openShare is the part of --seconds spent in the fixed-rate phase;
// the saturated phase takes the rest.
const openShare = 0.75

type bench struct {
	cfg runConfig
	sp  spec
	p   paths
	in  *inputs

	bodies      [][]byte  // single-locate body per observation
	batches     [][]int32 // batch-locate observation indices per body
	batchBodies [][]byte
	reportBody  [][]byte // training POST bodies
	expect      []answer // per observation, on the venue as loaded
	vcfg        venue.Config

	// The start-up's request, served in process.
	first     *inproc
	firstIdx  []int32
	firstBody []byte

	st     *stack
	hist   *history // floor-train publish history of the serving stack
	client *http.Client
	paths  []string // per-venue locate (or locate/batch) path
	train  string   // floor-train report path

	// floor-train bookkeeping, filled by the phases.
	readsMu sync.Mutex
	reads   []batchRead
	acksMu  sync.Mutex
	acks    []ack
	seqNext uint64 // WAL seq of the next accepted report (single writer)
}

// batchRead is one batch response kept for checking after the phase:
// the snapshot history index range it may have been served from.
type batchRead struct {
	batch  int
	lo, hi int
	body   []byte
}

// ack is one accepted training POST: its reports are WAL seqs
// first..last, acknowledged at t.
type ack struct {
	t           time.Time
	first, last uint64
}

// history records every snapshot a live venue publishes.
type history struct {
	mu   sync.Mutex
	pubs []publish
	n    atomic.Int64
}

// publish is one published snapshot. It keeps the frozen database,
// whose entries the snapshot shares copy-on-write with the live one,
// rather than the compiled service, so the history costs little
// memory; checkBatchReads rebuilds the service with the venue's recipe.
type publish struct {
	at        time.Time
	watermark uint64
	db        *trainingdb.DB
}

func (h *history) onPublish(ev ingest.PublishEvent) {
	h.mu.Lock()
	h.pubs = append(h.pubs, publish{at: time.Now(), watermark: ev.Watermark, db: ev.DB})
	h.mu.Unlock()
	h.n.Add(1)
}

func run(cfg runConfig, out io.Writer) (*result, error) {
	if err := cfg.gen(cfg.work, cfg.workload, cfg.sz, cfg.seed); err != nil {
		return nil, err
	}
	p, err := workloadPaths(cfg.work, cfg.workload, cfg.sz, cfg.seed)
	if err != nil {
		return nil, err
	}
	b := &bench{cfg: cfg, sp: specs[cfg.workload], p: p}
	if b.in, err = readInputs(b.p.inputs); err != nil {
		return nil, err
	}
	if err := b.prepare(); err != nil {
		return nil, err
	}
	runDir, err := os.MkdirTemp(cfg.work, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(runDir)

	reps := b.sp.setupReps
	if cfg.trace {
		reps = 1
	}
	setups := make([]float64, 0, reps)
	// One collection before the start-ups, none between them: a
	// start-up right after runtime.GC took three times as long on the
	// house and varied twice as much, and a fresh process does not
	// start after a collection either.
	runtime.GC()
	for r := 0; r < reps; r++ {
		wal := ""
		if b.sp.writeRate > 0 {
			wal = filepath.Join(runDir, fmt.Sprintf("wal-%d", r))
		}
		secs, err := b.startup(wal)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, secs)
		if r < reps-1 {
			b.shutdown()
		}
	}
	defer b.shutdown()
	if err := b.serve(); err != nil {
		return nil, err
	}

	if cfg.trace {
		return b.traced(out)
	}
	openDur := time.Duration(cfg.seconds * openShare * float64(time.Second))
	satDur := time.Duration(cfg.seconds*float64(time.Second)) - openDur

	runtime.GC()
	ticks0 := hostTicks()
	rd, wr, ows := b.openPhase(openDur, b.readOp(0))
	steal := 100 * hostTicks().stealSince(ticks0)
	runtime.GC()
	sat, satWr := b.saturatedPhase(satDur)
	rss := peakRSSMiB()
	if err := b.checkBatchReads(); err != nil {
		return nil, err
	}

	ops := rd.ops + wr.ops + sat.ops + satWr.ops + int64(len(setups))
	failed := rd.failed + wr.failed + sat.failed + satWr.failed + b.batchFailures()
	for _, l := range []*loopStats{rd, wr, sat, satWr} {
		if l.firstErr != nil {
			fmt.Fprintf(out, "first failure: %v\n", l.firstErr)
			break
		}
	}
	res := &result{Correct: failed == 0, Attempted: ops, Failed: failed, Metrics: map[string]metric{}}
	m := res.Metrics
	counts := map[string]int{}
	add := func(name string, v float64, unit string, n int) {
		m[name] = metric{v, unit}
		counts[name] = n
	}
	add("setup_s", median(setups), "s", len(setups))
	openS := openDur.Seconds()
	step := openStep.Seconds()
	add("cpu_us_per_obs", perObs(ows, rd, step, func(w window) float64 { return w.cpu * 1e6 }), "us", int(rd.obs))
	add("allocs_per_obs", perObs(ows, rd, step, func(w window) float64 { return w.mallocs }), "count", int(rd.obs))
	add("alloc_kb_per_obs", perObs(ows, rd, step, func(w window) float64 { return w.bytes / 1024 }), "KiB", int(rd.obs))
	add("rss_peak_mb", rss, "MiB", 1)

	// Reported beside the contract metrics, not in the JSON line.
	extra := map[string]metric{}
	extraN := map[string]int{}
	addx := func(name string, v float64, unit string, n int) {
		extra[name] = metric{v, unit}
		extraN[name] = n
	}
	addx("capacity_obs_s", float64(sat.obs)/satDur.Seconds(), "obs/s", int(sat.obs))
	addx("lat_p50_ms", rd.latQuantile(openS, 0.5, 0.25, 100), "ms", len(rd.lat))
	addx("lat_p99_ms", rd.latQuantile(openS, 0.99, 0.5, 1000), "ms", len(rd.lat))
	addx("fail_ratio", float64(failed)/float64(ops), "ratio", int(ops))
	addx("late_ms_p50", quantile(rd.late, 0.5), "ms", len(rd.late))
	addx("late_ms_p99", quantile(rd.late, 0.99), "ms", len(rd.late))
	addx("host_steal_pct", steal, "%", 1)
	if b.sp.writeRate > 0 {
		acks := append(wr.lat, satWr.lat...)
		addx("ack_p99_ms", quantile(acks, 0.99), "ms", len(acks))
		vis := b.visibility()
		addx("visible_p50_ms", quantile(vis, 0.5), "ms", len(vis))
		addx("visible_p99_ms", quantile(vis, 0.99), "ms", len(vis))
	}
	fmt.Fprintf(out, "workload %s seed %d: %d operations, %d failed\n", cfg.workload, cfg.seed, ops, failed)
	for _, k := range sortedKeys(m) {
		fmt.Fprintf(out, "  %-18s %14.4f %-6s n=%d\n", k, m[k].Value, m[k].Unit, counts[k])
	}
	for _, k := range sortedKeys(extra) {
		fmt.Fprintf(out, "  %-18s %14.4f %-6s n=%d (not gated)\n", k, extra[k].Value, extra[k].Unit, extraN[k])
	}
	return res, nil
}

// prepare builds request bodies and the expected answers: every
// observation located in process by core.Service.Locate, through a
// private registry configured as the served one, with the
// reference-checked sample confirming them.
func (b *bench) prepare() error {
	in := b.in
	enc := func(v any) []byte {
		out, err := json.Marshal(v)
		if err != nil {
			panic(err) // maps of float64 always encode
		}
		return out
	}
	if b.sp.batch == 1 {
		b.bodies = make([][]byte, len(in.Obs))
		for i, o := range in.Obs {
			b.bodies[i] = enc(map[string]any{"observation": o})
		}
	} else {
		for off := 0; off+b.sp.batch <= len(in.Seq) && len(b.batches) < 1024; off += b.sp.batch {
			idx := in.Seq[off : off+b.sp.batch]
			obs := make([]map[string]float64, len(idx))
			for i, j := range idx {
				obs[i] = in.Obs[j]
			}
			b.batches = append(b.batches, idx)
			b.batchBodies = append(b.batchBodies, enc(map[string]any{"observations": obs}))
		}
	}
	for off := 0; b.sp.writeBatch > 0 && off+b.sp.writeBatch <= len(in.Reports); off += b.sp.writeBatch {
		b.reportBody = append(b.reportBody, enc(map[string]any{"reports": in.Reports[off : off+b.sp.writeBatch]}))
	}
	// Only the ingest replay reads the reports from here on.
	in.Reports = in.Reports[:min(len(in.Reports), replayFlush*replaySwaps)]

	b.vcfg = venueConfig(b.p.serve)
	if b.sp.budgetShare > 0 {
		var total int64
		ents, err := os.ReadDir(b.p.serve)
		if err != nil {
			return err
		}
		for _, e := range ents {
			if fi, err := e.Info(); err == nil {
				total += fi.Size()
			}
		}
		b.vcfg.MaxBytes = int64(float64(total) * b.sp.budgetShare)
	}
	if b.sp.writeRate > 0 {
		b.vcfg.Ingest = ingest.Config{FlushReports: b.sp.flushReports, FlushInterval: time.Hour}
	}
	if err := b.expectAnswers(); err != nil {
		return err
	}
	var sample []sampleAnswer
	if err := readJSON(b.p.sample, &sample); err != nil {
		return err
	}
	for _, s := range sample {
		if got := b.expect[s.Idx].location; got != s.Location {
			return fmt.Errorf("observation %d locates to %q in process, %q in the reference-checked sample", s.Idx, got, s.Location)
		}
	}

	// The start-up's request is the pool's first observation, on the
	// first venue, so every seed's start-up loads the same venue.
	if b.sp.batch == 1 {
		b.firstIdx, b.firstBody = []int32{0}, b.bodies[0]
		b.first = newInproc("/v1/venues/" + in.Venues[in.ObsVenue[0]] + "/locate")
	} else {
		b.firstIdx, b.firstBody = b.batches[0], b.batchBodies[0]
		b.first = newInproc("/v1/venues/" + in.Venues[0] + "/locate/batch")
	}
	return nil
}

// expectAnswers locates every observation through a private registry
// configured as the served one. A live venue starts from the answers
// of its database; the snapshot checks follow it from there.
func (b *bench) expectAnswers() error {
	in := b.in
	reg, err := venue.NewRegistry(b.vcfg)
	if err != nil {
		return err
	}
	defer reg.Close()
	b.expect = make([]answer, len(in.Obs))
	byVenue := make([][]int, len(in.Venues))
	for i, v := range in.ObsVenue {
		byVenue[v] = append(byVenue[v], i)
	}
	for v, idx := range byVenue {
		_, err := venueService(reg, in.Venues[v], func(svc *core.Service) (struct{}, error) {
			for _, i := range idx {
				res, err := svc.Locate(in.Obs[i])
				if err != nil {
					return struct{}{}, fmt.Errorf("venue %s observation %d: %w", in.Venues[v], i, err)
				}
				// Clone: names alias the artifact mapping, unmapped when
				// the venue is evicted.
				b.expect[i] = answer{strings.Clone(res.Estimate.Name), strings.Clone(res.NearestName)}
			}
			return struct{}{}, nil
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// startup builds the stack from inputs on disk and returns the seconds
// to the first correct answer on the workload's venue: registry and
// server construction, the venue load (on floor-train the .tdb load,
// compile and WAL open) and one request through Server.ServeHTTP in
// process. walDir, when set, gives the venue a fresh live-training WAL.
func (b *bench) startup(walDir string) (float64, error) {
	cfg := b.vcfg
	var h *history
	if walDir != "" {
		if err := os.MkdirAll(walDir, 0o755); err != nil {
			return 0, err
		}
		h = &history{}
		cfg.WALDir = walDir
		cfg.Ingest.OnPublish = h.onPublish
	}
	t0 := time.Now()
	st, err := newStack(cfg)
	if err != nil {
		return 0, err
	}
	b.st, b.hist = st, h
	if err := b.firstAnswer(); err != nil {
		return 0, err
	}
	return time.Since(t0).Seconds(), nil
}

func (b *bench) firstAnswer() error {
	p := b.first
	p.serve(b.st.srv, b.firstBody)
	if b.sp.batch == 1 {
		return checkSingle(p.rec.status, p.rec.body.Bytes(), b.expect[b.firstIdx[0]])
	}
	if p.rec.status != http.StatusOK {
		return fmt.Errorf("status %d: %.200s", p.rec.status, p.rec.body.Bytes())
	}
	got, err := batchAnswers(p.rec.body.Bytes(), len(b.firstIdx))
	if err != nil {
		return err
	}
	for i, j := range b.firstIdx {
		if got[i] != b.expect[j] {
			return fmt.Errorf("batch answer %d: %v, want %v", i, got[i], b.expect[j])
		}
	}
	return nil
}

// serve puts the last started stack on a loopback port and makes the
// load's client.
func (b *bench) serve() error {
	if err := b.st.listen(); err != nil {
		return err
	}
	b.client = newClient(runtime.NumCPU())
	suffix := "/locate"
	if b.sp.batch > 1 {
		suffix = "/locate/batch"
	}
	b.paths = make([]string, len(b.in.Venues))
	for v, id := range b.in.Venues {
		b.paths[v] = b.st.base + "/v1/venues/" + id + suffix
	}
	b.train = b.st.base + "/v1/venues/" + b.in.Venues[0] + "/train/report"
	b.seqNext = 1
	return nil
}

func (b *bench) shutdown() {
	if b.st == nil {
		return
	}
	if b.client != nil {
		b.client.CloseIdleConnections()
	}
	b.st.close()
	b.st = nil
}

// loopStats accumulates one load loop's outcomes.
type loopStats struct {
	lat, late []float64 // ms; latency from due time, and send lateness
	// at is each open-loop sample's due time in seconds since the phase
	// start; n is the observations each sample located.
	at       []float64
	n        []int32
	ops      int64
	failed   int64
	obs      int64
	firstErr error
}

func (l *loopStats) merge(o *loopStats) {
	l.lat = append(l.lat, o.lat...)
	l.late = append(l.late, o.late...)
	l.at = append(l.at, o.at...)
	l.n = append(l.n, o.n...)
	l.ops += o.ops
	l.failed += o.failed
	l.obs += o.obs
	if l.firstErr == nil {
		l.firstErr = o.firstErr
	}
}

// op sends request k from worker w and returns the observations it
// located.
type op func(w, k int) (int, error)

// openLoop sends requests on a fixed schedule, rate per second from
// start until end, from `workers` goroutines; worker w sends slots w,
// w+workers, w+2·workers, ...
//
// Each request is timed from its due time as an ideal sender would
// have seen it: the sender sends at the later of the due time and the
// end of its previous request, and that request's end is its send plus
// its measured service time. A slow response so still delays the
// requests queued behind it, but the sender's own timer overshoot
// (Go wakes an idle P with about a millisecond's resolution, far
// above a house-locate request) does not; it is reported as lateness.
func openLoop(start, end time.Time, rate float64, workers int, do op) *loopStats {
	interval := time.Duration(float64(time.Second) / rate)
	parts := make([]*loopStats, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		parts[w] = &loopStats{}
		wg.Add(1)
		go func(w int, l *loopStats) {
			defer wg.Done()
			var idealEnd time.Duration // since start
			for k := w; ; k += workers {
				due := time.Duration(k) * interval
				if !start.Add(due).Before(end) {
					return
				}
				if d := time.Until(start.Add(due)); d > 0 {
					time.Sleep(d)
				}
				t1 := time.Now()
				l.late = append(l.late, float64(t1.Sub(start)-due)/1e6)
				n, err := do(w, k)
				svc := time.Since(t1)
				send := max(due, idealEnd)
				idealEnd = send + svc
				l.lat = append(l.lat, float64(idealEnd-due)/1e6)
				l.at = append(l.at, due.Seconds())
				l.record(n, err)
			}
		}(w, parts[w])
	}
	wg.Wait()
	total := &loopStats{}
	for _, p := range parts {
		total.merge(p)
	}
	return total
}

// closedLoop keeps `workers` requests in flight until end.
func closedLoop(end time.Time, workers int, do op) *loopStats {
	var next atomic.Int64
	parts := make([]*loopStats, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		parts[w] = &loopStats{}
		wg.Add(1)
		go func(w int, l *loopStats) {
			defer wg.Done()
			for time.Now().Before(end) {
				n, err := do(w, int(next.Add(1)-1))
				l.record(n, err)
			}
		}(w, parts[w])
	}
	wg.Wait()
	total := &loopStats{}
	for _, p := range parts {
		total.merge(p)
	}
	return total
}

func (l *loopStats) record(n int, err error) {
	l.ops++
	if err != nil {
		n = 0
		l.failed++
		if l.firstErr == nil {
			l.firstErr = err
		}
	}
	l.n = append(l.n, int32(n))
	l.obs += int64(n)
}

// windows splits a phase of dur seconds into k equal windows and
// returns, for each, the indexes of the samples whose time falls in it.
func (l *loopStats) windows(dur float64, k int) [][]int {
	out := make([][]int, k)
	for i, t := range l.at {
		w := min(k-1, max(0, int(t/dur*float64(k))))
		out[w] = append(out[w], i)
	}
	return out
}

// latQuantile splits the phase into windows of about minN samples,
// takes the q-quantile of the latencies in each, and returns the
// across-quantile of those. With across = 0.25, the figure comes from
// the quieter windows: on a shared host, windows in which the
// hypervisor took the CPUs away do not set it, while a slower program
// is slower in every window.
func (l *loopStats) latQuantile(dur, q, across float64, minN int) float64 {
	k := max(1, len(l.lat)/minN)
	var per []float64
	for _, idx := range l.windows(dur, k) {
		xs := make([]float64, len(idx))
		for j, i := range idx {
			xs[j] = l.lat[i]
		}
		if len(xs) > 0 {
			per = append(per, quantile(xs, q))
		}
	}
	return quantile(per, across)
}

// readers is the read goroutine count: one per CPU, less the writer.
func (b *bench) readers() int {
	n := runtime.NumCPU()
	if b.sp.writeRate > 0 {
		n--
	}
	return max(1, n)
}

// readOp returns the workload's read request: a single locate checked
// inline against its expected answer, or a batch kept for checking
// against the snapshot history after the phase.
func (b *bench) readOp(offset int) op {
	bufs := make([][]byte, runtime.NumCPU())
	if b.sp.batch == 1 {
		return func(w, k int) (int, error) {
			i := b.in.Seq[(offset+k)%len(b.in.Seq)]
			status, body, err := post(b.client, b.paths[b.in.ObsVenue[i]], b.bodies[i], bufs[w])
			bufs[w] = body
			if err != nil {
				return 0, err
			}
			return 1, checkSingle(status, body, b.expect[i])
		}
	}
	return func(w, k int) (int, error) {
		j := (offset + k) % len(b.batchBodies)
		lo := int(b.hist.n.Load())
		status, body, err := post(b.client, b.paths[0], b.batchBodies[j], bufs[w])
		bufs[w] = body
		if err != nil {
			return 0, err
		}
		if status != http.StatusOK {
			return 0, fmt.Errorf("batch status %d: %.200s", status, body)
		}
		hi := int(b.hist.n.Load())
		b.readsMu.Lock()
		b.reads = append(b.reads, batchRead{batch: j, lo: lo, hi: hi, body: append([]byte(nil), body...)})
		b.readsMu.Unlock()
		return len(b.batches[j]), nil
	}
}

// writeOp is floor-train's training POST. One goroutine sends them, so
// accepted reports take consecutive WAL seqs.
func (b *bench) writeOp(offset int) op {
	var buf []byte
	return func(_, k int) (int, error) {
		j := (offset + k) % len(b.reportBody)
		status, body, err := post(b.client, b.train, b.reportBody[j], buf)
		buf = body
		if err != nil {
			return 0, err
		}
		if status != http.StatusAccepted {
			return 0, fmt.Errorf("train status %d: %.200s", status, body)
		}
		n := uint64(b.sp.writeBatch)
		b.acksMu.Lock()
		b.acks = append(b.acks, ack{t: time.Now(), first: b.seqNext, last: b.seqNext + n - 1})
		b.acksMu.Unlock()
		b.seqNext += n
		return 0, nil
	}
}

// window is one fixed step of a phase: the CPU time the process used
// and its heap allocations.
type window struct {
	cpu            float64 // seconds
	mallocs, bytes float64
}

func cpuNow() time.Duration {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// sampleWindows reads the process CPU time and the allocation counters
// at start and every step after it until end, and returns the
// differences.
func sampleWindows(start, end time.Time, step time.Duration) []window {
	var out []window
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	prev, prevMs := cpuNow(), ms
	for t := start.Add(step); !t.After(end); t = t.Add(step) {
		time.Sleep(time.Until(t))
		now := cpuNow()
		runtime.ReadMemStats(&ms)
		out = append(out, window{
			cpu:     (now - prev).Seconds(),
			mallocs: float64(ms.Mallocs - prevMs.Mallocs),
			bytes:   float64(ms.TotalAlloc - prevMs.TotalAlloc),
		})
		prev, prevMs = now, ms
	}
	return out
}

// obsPerWindow sums the observations of the samples in each window.
func obsPerWindow(l *loopStats, ws []window, step float64) []float64 {
	obs := make([]float64, len(ws))
	for i, t := range l.at {
		if w := int(t / step); w >= 0 && w < len(obs) {
			obs[w] += float64(l.n[i])
		}
	}
	return obs
}

// perObs is the median over windows of f(window) per observation
// located in it.
func perObs(ws []window, rd *loopStats, step float64, f func(window) float64) float64 {
	var per []float64
	for w, obs := range obsPerWindow(rd, ws, step) {
		if obs > 0 {
			per = append(per, f(ws[w])/obs)
		}
	}
	return median(per)
}

// openStep is the window of the per-observation costs.
const openStep = time.Second

// openPhase runs the fixed-rate reads `read` (and writes) for dur.
func (b *bench) openPhase(dur time.Duration, read op) (rd, wr *loopStats, ws []window) {
	start := time.Now().Add(time.Millisecond)
	end := start.Add(dur)
	wr = &loopStats{}
	var wg sync.WaitGroup
	if b.sp.writeRate > 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			wr = openLoop(start, end, b.sp.writeRate, 1, b.writeOp(0))
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		ws = sampleWindows(start, end, openStep)
	}()
	rd = openLoop(start, end, b.sp.rate, b.readers(), read)
	wg.Wait()
	return rd, wr, ws
}

// saturatedPhase runs closed-loop reads for dur; floor-train's writes
// continue at their fixed rate beside them.
func (b *bench) saturatedPhase(dur time.Duration) (rd, wr *loopStats) {
	start := time.Now()
	end := start.Add(dur)
	wr = &loopStats{}
	var wg sync.WaitGroup
	if b.sp.writeRate > 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			wr = openLoop(start, end, b.sp.writeRate, 1, b.writeOp(1<<20))
		}()
	}
	rd = closedLoop(end, b.readers(), b.readOp(1<<16))
	wg.Wait()
	return rd, wr
}

// checkBatchReads checks every kept batch response: each answer must
// equal what core.Service.Locate gives on one of the snapshots that
// could have served the request (published between its send and its
// response, allowing one publish still in flight).
func (b *bench) checkBatchReads() error {
	if b.hist == nil {
		return nil
	}
	b.hist.mu.Lock()
	pubs := b.hist.pubs
	b.hist.mu.Unlock()
	// Reads arrive in publish order, so services are built as the check
	// reaches them and dropped once it has moved past.
	svcs := map[int]*core.Service{}
	answers := map[[2]int32]answer{}
	want := func(p int, obs int32) (answer, error) {
		if a, ok := answers[[2]int32{int32(p), obs}]; ok {
			return a, nil
		}
		svc := svcs[p]
		if svc == nil {
			for q := range svcs {
				if q < p-2 {
					delete(svcs, q)
				}
			}
			var err error
			if svc, err = dbService(b.vcfg, pubs[p].db); err != nil {
				return answer{}, err
			}
			svcs[p] = svc
		}
		res, err := svc.Locate(b.in.Obs[obs])
		if err != nil {
			return answer{}, err
		}
		a := answer{res.Estimate.Name, res.NearestName}
		answers[[2]int32{int32(p), obs}] = a
		return a, nil
	}
	bad := 0
	for r := range b.reads {
		rd := &b.reads[r]
		idx := b.batches[rd.batch]
		got, err := batchAnswers(rd.body, len(idx))
		rd.body = nil
		if err != nil {
			rd.batch = -1
			bad++
			continue
		}
		for i, obs := range idx {
			ok := false
			for p := max(0, rd.lo-1); p <= min(len(pubs)-1, rd.hi); p++ {
				a, err := want(p, obs)
				if err != nil {
					return err
				}
				if a == got[i] {
					ok = true
					break
				}
			}
			if !ok {
				rd.batch = -1
				bad++
				break
			}
		}
	}
	if bad > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: %d batch responses matched no snapshot\n", bad)
	}
	return nil
}

func (b *bench) batchFailures() int64 {
	n := int64(0)
	for _, r := range b.reads {
		if r.batch < 0 {
			n++
		}
	}
	return n
}

// visibility returns, per acknowledged report, the milliseconds from
// its 202 to the publish of the first snapshot whose watermark covers
// it. Reports no snapshot covered by the end of the run are left out.
func (b *bench) visibility() []float64 {
	b.hist.mu.Lock()
	pubs := b.hist.pubs
	b.hist.mu.Unlock()
	var out []float64
	for _, a := range b.acks {
		for s := a.first; s <= a.last; s++ {
			p := sort.Search(len(pubs), func(i int) bool { return pubs[i].watermark >= s })
			if p < len(pubs) {
				out = append(out, float64(pubs[p].at.Sub(a.t))/1e6)
			}
		}
	}
	return out
}

// quantile is the linearly interpolated q-quantile of xs (sorted in
// place); NaN when xs is empty.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	f := pos - float64(lo)
	return xs[lo]*(1-f) + xs[lo+1]*f
}

func median(xs []float64) float64 { return quantile(append([]float64(nil), xs...), 0.5) }

// peakRSSMiB reads the process's resident high-water mark (VmHWM).
func peakRSSMiB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimSpace(rest), "%g kB", &kb); err == nil {
				return kb / 1024
			}
		}
	}
	return math.NaN()
}

// cpuTicks is the machine-wide /proc/stat CPU line.
type cpuTicks []float64

func hostTicks() cpuTicks {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return nil
	}
	line, _, _ := strings.Cut(string(b), "\n")
	var t cpuTicks
	for _, f := range strings.Fields(line)[1:] {
		var v float64
		fmt.Sscan(f, &v)
		t = append(t, v)
	}
	return t
}

// stealSince returns the share of the machine's CPU ticks since t0
// that the hypervisor stole; 0 where /proc/stat has no steal column.
func (t cpuTicks) stealSince(t0 cpuTicks) float64 {
	if len(t) < 8 || len(t0) < 8 {
		return 0
	}
	total := 0.0
	for i := range t {
		total += t[i] - t0[i]
	}
	if total <= 0 {
		return 0
	}
	return (t[7] - t0[7]) / total
}
