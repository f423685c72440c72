// soak drives sustained mixed traffic — /locate, /locate/batch,
// /track and /train/report — against the serving front end and reports
// the latency distribution (p50/p99/p999 per route), sustained
// observation throughput, and an allocations-per-request curve sampled
// over the run. It is the load-side companion to the zero-allocation
// router: BENCH_soak.json, its output, is the evidence that the
// serving path holds its latency and allocation behaviour for minutes,
// not just for one benchmark iteration.
//
// Usage:
//
//	soak -duration 60s -qps 2000 -out BENCH_soak.json
//	soak -url http://10.0.0.5:8080 -mix locate=90,batch=5,track=5
//
// Without -url the harness boots an in-process server over the paper
// house simulation — the same fixture the benchmarks use — with live
// training enabled (WAL in a temp dir), and drives it over real
// loopback HTTP so the measured path includes the TCP stack and the
// client, exactly like BENCH_serving.json's numbers.
//
// The traffic mix is percentages by request (batch requests carry
// -batch-size observations each); -qps 0 removes pacing and measures
// saturated throughput. Latency is recorded into the same fixed-bucket
// histograms the server exports at /metrics, so the client-side
// quantiles here and the server-side quantiles there are directly
// comparable. The allocs-per-request curve comes from
// runtime.MemStats sampled every -window: client and server share the
// process in in-process mode, so the curve bounds the whole stack's
// allocation rate — a leak or a regression shows up as a rising curve.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"indoorloc/internal/core"
	"indoorloc/internal/geom"
	"indoorloc/internal/ingest"
	"indoorloc/internal/metrics"
	"indoorloc/internal/server"
	"indoorloc/internal/sim"
	"indoorloc/internal/trainingdb"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "soak:", err)
		os.Exit(1)
	}
}

// ops are the traffic classes, in mix order.
const (
	opLocate = iota
	opBatch
	opTrack
	opIngest
	numOps
)

var opNames = [numOps]string{"locate", "batch", "track", "ingest"}

// parseMix turns "locate=80,batch=5,track=10,ingest=5" into per-op
// percentages summing to 100.
func parseMix(s string) ([numOps]int, error) {
	var mix [numOps]int
	total := 0
	for _, part := range strings.Split(s, ",") {
		name, val, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			return mix, fmt.Errorf("mix entry %q: want name=percent", part)
		}
		n, err := strconv.Atoi(val)
		if err != nil || n < 0 {
			return mix, fmt.Errorf("mix entry %q: bad percentage", part)
		}
		idx := -1
		for i, known := range opNames {
			if name == known {
				idx = i
			}
		}
		if idx < 0 {
			return mix, fmt.Errorf("mix entry %q: unknown op (want %v)", part, opNames)
		}
		mix[idx] = n
		total += n
	}
	if total != 100 {
		return mix, fmt.Errorf("mix percentages sum to %d, want 100", total)
	}
	return mix, nil
}

// schedule unrolls the mix into a 100-slot rotation, interleaved so a
// worker cycling through it reproduces the percentages without
// clustering (all batches back to back would distort pacing).
func schedule(mix [numOps]int) []int {
	var sched []int
	remaining := mix
	for len(sched) < 100 {
		for op := 0; op < numOps; op++ {
			if remaining[op] > 0 {
				sched = append(sched, op)
				remaining[op]--
			}
		}
	}
	return sched
}

type soakReport struct {
	Description string         `json:"description"`
	Date        string         `json:"date"`
	Config      soakConfig     `json:"config"`
	Totals      soakTotals     `json:"totals"`
	Routes      map[string]any `json:"routes"`
	Windows     []windowRec    `json:"windows"`
	Reference   map[string]any `json:"reference,omitempty"`
}

type soakConfig struct {
	URL       string  `json:"url"`
	Duration  string  `json:"duration"`
	QPS       float64 `json:"qps"`
	Workers   int     `json:"workers"`
	Mix       string  `json:"mix"`
	BatchSize int     `json:"batch_size"`
}

type soakTotals struct {
	DurationS    float64 `json:"duration_s"`
	Requests     uint64  `json:"requests"`
	Errors       uint64  `json:"errors"`
	Observations uint64  `json:"observations"`
	RequestsSec  float64 `json:"requests_per_sec"`
	ObsSec       float64 `json:"obs_per_sec"`
}

type routeRec struct {
	Count  uint64  `json:"count"`
	Errors uint64  `json:"errors"`
	P50us  int64   `json:"p50_us"`
	P99us  int64   `json:"p99_us"`
	P999us int64   `json:"p999_us"`
	MeanUs float64 `json:"mean_us"`
}

type windowRec struct {
	TS          float64 `json:"t_s"`
	Requests    uint64  `json:"requests"`
	QPS         float64 `json:"qps"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	HeapMB      float64 `json:"heap_mb"`
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("soak", flag.ContinueOnError)
	var (
		url       = fs.String("url", "", "target base URL (empty = in-process server over the paper-house sim)")
		duration  = fs.Duration("duration", 60*time.Second, "soak length")
		qps       = fs.Float64("qps", 0, "target total requests/sec (0 = unpaced, saturate)")
		workers   = fs.Int("workers", 2*runtime.GOMAXPROCS(0), "concurrent request loops")
		mixSpec   = fs.String("mix", "locate=70,batch=10,track=15,ingest=5", "traffic mix, percent by request")
		batchSize = fs.Int("batch-size", 64, "observations per /locate/batch request")
		window    = fs.Duration("window", 5*time.Second, "allocs/op sampling window")
		outPath   = fs.String("out", "", "write the JSON report here (default stdout only)")
		refPath   = fs.String("ref", "BENCH_serving.json", "serving benchmark file for the reference section ('' = skip)")

		followers  = fs.Int("followers", 0, "replication mode: soak 1 in-process trainer + N followers (replaces the single-venue mix)")
		preload    = fs.Int("preload", 2000, "reports folded into the trainer before cold catch-up is timed (-followers mode)")
		reportsQPS = fs.Float64("reports-qps", 200, "trainer ingest rate during the steady-state phase (-followers mode)")
		locateQPS  = fs.Float64("locate-qps", 300, "paced locate rate per node during the steady-state phase (-followers mode)")
		capSlice   = fs.Duration("cap-slice", 0, "length of each of a node's 3 saturated capacity slices (-followers mode; 0 = duration/2 clamped to [500ms, 5s])")
		mapEntries = fs.Int("map-entries", 0, "replicate a synthetic map this large instead of the paper house (-followers mode)")
		mapAPs     = fs.Int("map-aps", 0, "APs in the synthetic map (-followers mode with -map-entries; 0 = 8)")

		venues       = fs.Int("venues", 0, "city-scale mode: soak N synthetic venues behind /v1/venues under an LRU budget (replaces the single-venue mix)")
		venuesBudget = fs.Int64("venues-budget", 0, "LRU memory budget in bytes for -venues mode (0 = a quarter of the generated city)")
		venuesDir    = fs.String("venues-dir", "", "reuse/emit city artifacts here instead of a temp dir (-venues mode)")
		zipfS        = fs.Float64("zipf-s", 1.1, "zipf skew of the venue popularity distribution (-venues mode; must be > 1)")
		seed         = fs.Int64("seed", 1, "city generation and traffic seed (-venues mode)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *followers > 0 {
		if *venues > 0 {
			return errors.New("-followers and -venues are mutually exclusive")
		}
		return runFollow(followSoakOpts{
			followers:  *followers,
			preload:    *preload,
			duration:   *duration,
			capSlice:   *capSlice,
			workers:    *workers,
			reportsQPS: *reportsQPS,
			locateQPS:  *locateQPS,
			mapEntries: *mapEntries,
			mapAPs:     *mapAPs,
			outPath:    *outPath,
		}, out)
	}
	if *venues > 0 {
		return runVenues(venueSoakOpts{
			venues:   *venues,
			budget:   *venuesBudget,
			duration: *duration,
			workers:  *workers,
			qps:      *qps,
			zipfS:    *zipfS,
			seed:     *seed,
			outPath:  *outPath,
			dir:      *venuesDir,
		}, out)
	}
	if *venuesBudget != 0 || *venuesDir != "" {
		return errors.New("-venues-budget and -venues-dir need -venues N")
	}
	if *duration <= 0 || *workers <= 0 || *batchSize <= 0 || *window <= 0 {
		return errors.New("-duration, -workers, -batch-size and -window must be positive")
	}
	mix, err := parseMix(*mixSpec)
	if err != nil {
		return err
	}
	if *url != "" && mix[opIngest] > 0 && !strings.Contains(*mixSpec, "ingest=0") {
		fmt.Fprintln(out, "soak: note: remote target must serve /train/report or ingest traffic will count as errors")
	}

	base := *url
	if base == "" {
		addr, shutdown, err := startInProcess()
		if err != nil {
			return err
		}
		defer shutdown()
		base = "http://" + addr
	}

	bodies, err := buildBodies(*batchSize)
	if err != nil {
		return err
	}
	client := &http.Client{Transport: &http.Transport{
		MaxIdleConns:        *workers * 2,
		MaxIdleConnsPerHost: *workers * 2,
	}}

	var (
		hists     [numOps]metrics.Histogram
		counts    [numOps]atomic.Uint64
		errCounts [numOps]atomic.Uint64
		requests  atomic.Uint64
		obsCount  atomic.Uint64
	)
	sched := schedule(mix)
	interval := time.Duration(0)
	if *qps > 0 {
		interval = time.Duration(float64(*workers) * float64(time.Second) / *qps)
	}

	start := time.Now()
	deadline := start.Add(*duration)
	stop := make(chan struct{})
	var windows []windowRec
	var windowWG sync.WaitGroup
	windowWG.Add(1)
	go func() { // allocs/op + throughput curve
		defer windowWG.Done()
		tick := time.NewTicker(*window)
		defer tick.Stop()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		lastMallocs, lastReqs, lastT := ms.Mallocs, requests.Load(), time.Now()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
			}
			runtime.ReadMemStats(&ms)
			reqs := requests.Load()
			now := time.Now()
			dReq := reqs - lastReqs
			rec := windowRec{
				TS:       now.Sub(start).Seconds(),
				Requests: dReq,
				QPS:      float64(dReq) / now.Sub(lastT).Seconds(),
				HeapMB:   float64(ms.HeapAlloc) / (1 << 20),
			}
			if dReq > 0 {
				rec.AllocsPerOp = float64(ms.Mallocs-lastMallocs) / float64(dReq)
			}
			windows = append(windows, rec)
			lastMallocs, lastReqs, lastT = ms.Mallocs, reqs, now
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < *workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			trackPath := "/track/soak-" + strconv.Itoa(w)
			seq := w // stagger workers through the rotation
			next := time.Now()
			for time.Now().Before(deadline) {
				if interval > 0 {
					if now := time.Now(); now.Before(next) {
						time.Sleep(next.Sub(now))
					}
					next = next.Add(interval)
					if behind := time.Since(next); behind > time.Second {
						next = time.Now() // stall recovery, not a burst
					}
				}
				op := sched[seq%len(sched)]
				seq++
				var path string
				var body []byte
				switch op {
				case opLocate:
					path, body = "/locate", bodies.locate[seq%len(bodies.locate)]
				case opBatch:
					path, body = "/locate/batch", bodies.batch
				case opTrack:
					path, body = trackPath, bodies.locate[seq%len(bodies.locate)]
				case opIngest:
					path, body = "/train/report", bodies.ingest[seq%len(bodies.ingest)]
				}
				t0 := time.Now()
				ok := post(client, base+path, body)
				hists[op].Observe(time.Since(t0))
				counts[op].Add(1)
				requests.Add(1)
				if !ok {
					errCounts[op].Add(1)
				} else if op == opBatch {
					obsCount.Add(uint64(*batchSize))
				} else {
					obsCount.Add(1)
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	windowWG.Wait()
	elapsed := time.Since(start)

	report := soakReport{
		Description: "Sustained mixed-traffic soak of the serving front end; latency quantiles are client-observed over loopback HTTP, allocs/op windows cover the whole process (client+server in-process).",
		Date:        time.Now().UTC().Format("2006-01-02"),
		Config: soakConfig{
			URL: *url, Duration: duration.String(), QPS: *qps,
			Workers: *workers, Mix: *mixSpec, BatchSize: *batchSize,
		},
		Routes:  map[string]any{},
		Windows: windows,
	}
	var totalReq, totalErr uint64
	for op := 0; op < numOps; op++ {
		n := counts[op].Load()
		if n == 0 {
			continue
		}
		totalReq += n
		totalErr += errCounts[op].Load()
		report.Routes[opNames[op]] = routeRec{
			Count:  n,
			Errors: errCounts[op].Load(),
			P50us:  hists[op].Quantile(0.50).Microseconds(),
			P99us:  hists[op].Quantile(0.99).Microseconds(),
			P999us: hists[op].Quantile(0.999).Microseconds(),
			MeanUs: float64(hists[op].Sum().Microseconds()) / float64(n),
		}
	}
	report.Totals = soakTotals{
		DurationS:    elapsed.Seconds(),
		Requests:     totalReq,
		Errors:       totalErr,
		Observations: obsCount.Load(),
		RequestsSec:  float64(totalReq) / elapsed.Seconds(),
		ObsSec:       float64(obsCount.Load()) / elapsed.Seconds(),
	}
	if *refPath != "" {
		if ref := referenceSection(*refPath, report.Totals); ref != nil {
			report.Reference = ref
		}
	}

	enc, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	enc = append(enc, '\n')
	if *outPath != "" {
		if err := os.WriteFile(*outPath, enc, 0o644); err != nil {
			return err
		}
	}
	_, err = out.Write(enc)
	return err
}

// referenceSection compares sustained soak throughput against the
// sequential single-request loopback benchmark in BENCH_serving.json:
// the soak must at least match what one unpipelined client achieves,
// or the front end regressed.
func referenceSection(path string, totals soakTotals) map[string]any {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil
	}
	var ref struct {
		Benchmarks map[string]struct {
			After struct {
				NsPerOp int64 `json:"ns_per_op"`
			} `json:"after"`
		} `json:"benchmarks"`
	}
	if err := json.Unmarshal(raw, &ref); err != nil {
		return nil
	}
	b, ok := ref.Benchmarks["BenchmarkServerLocate"]
	if !ok || b.After.NsPerOp == 0 {
		return nil
	}
	seqRPS := float64(time.Second) / float64(b.After.NsPerOp)
	return map[string]any{
		"serving_locate_ns_op":       b.After.NsPerOp,
		"serving_locate_seq_rps":     seqRPS,
		"soak_obs_per_sec":           totals.ObsSec,
		"throughput_vs_seq_baseline": totals.ObsSec / seqRPS,
		"note":                       "baseline is one sequential loopback client (BENCH_serving.json); the soak's concurrent obs/sec must not fall below it",
	}
}

// post issues one request and reports success (2xx).
func post(c *http.Client, url string, body []byte) bool {
	resp, err := c.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return false
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode >= 200 && resp.StatusCode < 300
}

// soakBodies are the precomputed request payloads: realistic
// observations captured from the simulation at distinct positions, so
// the server-side scoring work is representative while the client does
// no per-request marshalling.
type soakBodies struct {
	locate [][]byte
	batch  []byte
	ingest [][]byte
}

// soakPositions spreads sampling points through the paper house.
func soakPositions() []geom.Point {
	var pts []geom.Point
	for i := 0; i < 16; i++ {
		pts = append(pts, geom.Pt(4+float64(i*3%40), 4+float64(i*7%28)))
	}
	return pts
}

func buildBodies(batchSize int) (*soakBodies, error) {
	scen := sim.PaperHouse()
	env, err := scen.Environment()
	if err != nil {
		return nil, err
	}
	sc := sim.NewScanner(env, 977)
	var b soakBodies
	var observations []map[string]float64
	for _, p := range soakPositions() {
		obs := map[string]float64{}
		for _, r := range sc.Capture(p, 8, 0) {
			obs[r.BSSID] = float64(r.RSSI)
		}
		observations = append(observations, obs)
		lb, err := json.Marshal(map[string]any{"observation": obs})
		if err != nil {
			return nil, err
		}
		b.locate = append(b.locate, lb)
		ib, err := json.Marshal(map[string]any{
			"pos":         map[string]float64{"x": p.X, "y": p.Y},
			"observation": obs,
		})
		if err != nil {
			return nil, err
		}
		b.ingest = append(b.ingest, ib)
	}
	var batch []map[string]float64
	for i := 0; i < batchSize; i++ {
		batch = append(batch, observations[i%len(observations)])
	}
	if b.batch, err = json.Marshal(map[string]any{"observations": batch}); err != nil {
		return nil, err
	}
	return &b, nil
}

// startInProcess boots the same serving stack locserved would run —
// paper-house training data, probabilistic locator, live ingest over a
// temp WAL — on a loopback listener, and returns its address plus a
// shutdown func.
func startInProcess() (string, func(), error) {
	scen := sim.PaperHouse()
	env, err := scen.Environment()
	if err != nil {
		return "", nil, err
	}
	grid, err := scen.TrainingPoints()
	if err != nil {
		return "", nil, err
	}
	coll := sim.NewScanner(env, 41).CaptureCollection(grid, 20)
	db, _, err := trainingdb.Generate(coll, grid, trainingdb.Options{})
	if err != nil {
		return "", nil, err
	}
	rebuild := func(db *trainingdb.DB) (*core.Service, error) {
		in, err := core.New(
			core.WithDB(db),
			core.WithAlgorithm(core.AlgoProbabilistic),
			core.WithNames(grid),
		)
		if err != nil {
			return nil, err
		}
		return in.Service, nil
	}
	walDir, err := os.MkdirTemp("", "soak-wal-")
	if err != nil {
		return "", nil, err
	}
	mgr, err := ingest.NewManager(db, rebuild, ingest.Config{
		WALPath: filepath.Join(walDir, "reports.wal"),
	})
	if err != nil {
		os.RemoveAll(walDir)
		return "", nil, err
	}
	srv, err := server.NewLive(mgr, nil)
	if err != nil {
		mgr.Close()
		os.RemoveAll(walDir)
		return "", nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		mgr.Close()
		os.RemoveAll(walDir)
		return "", nil, err
	}
	hs := &http.Server{Handler: srv}
	go hs.Serve(ln)
	shutdown := func() {
		hs.Close()
		srv.Close()
		mgr.Close()
		os.RemoveAll(walDir)
	}
	return ln.Addr().String(), shutdown, nil
}
