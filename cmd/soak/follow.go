package main

// Replication fleet mode: one in-process trainer with -followers N
// read replicas attached over loopback HTTP. The run measures the
// three numbers BENCH_repl.json documents:
//
//   - cold catch-up: how long a fresh follower takes to bootstrap from
//     the snapshot payload and reach the trainer's WAL head after the
//     trainer has already folded -preload reports;
//   - steady-state lag: while reports stream into the trainer and
//     locate traffic hits every node, how far behind (sequences, bytes,
//     seconds) each follower falls, sampled continuously;
//   - fleet capacity: saturated /locate throughput of the trainer alone
//     and of each follower, measured sequentially (the container is
//     single-CPU — concurrent measurement would just split one core),
//     with the fleet figure the sum over followers. The scaling ratio
//     compares successful locates per process CPU-second, which other
//     processes sharing the machine move far less than requests per
//     wall-clock second.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"indoorloc/internal/core"
	"indoorloc/internal/geom"
	"indoorloc/internal/ingest"
	"indoorloc/internal/metrics"
	"indoorloc/internal/repl"
	"indoorloc/internal/server"
	"indoorloc/internal/sim"
	"indoorloc/internal/stats"
	"indoorloc/internal/trainingdb"
)

type followSoakOpts struct {
	followers  int
	preload    int           // reports folded before the first follower starts
	duration   time.Duration // steady-state phase length
	capSlice   time.Duration // per-node saturated capacity slice (0 = derive)
	workers    int
	reportsQPS float64 // trainer ingest rate during steady state
	locateQPS  float64 // per-node paced locate rate during steady state
	mapEntries int     // 0 = paper house; else a synthetic map this large
	mapAPs     int     // APs for the synthetic map (0 = 8)
	outPath    string
}

type followReport struct {
	Description string          `json:"description"`
	Date        string          `json:"date"`
	Config      followConfig    `json:"config"`
	ColdCatchup []catchupRec    `json:"cold_catchup"`
	SteadyState followSteady    `json:"steady_state"`
	Capacity    followCapacity  `json:"capacity"`
	Followers   []followerFinal `json:"followers"`
}

type followConfig struct {
	Followers  int     `json:"followers"`
	Preload    int     `json:"preload_reports"`
	Duration   string  `json:"duration"`
	Workers    int     `json:"workers"`
	ReportsQPS float64 `json:"reports_qps"`
	LocateQPS  float64 `json:"locate_qps_per_node"`
	MapEntries int     `json:"map_entries,omitempty"`
	MapAPs     int     `json:"map_aps,omitempty"`
}

type catchupRec struct {
	Follower int     `json:"follower"`
	Seconds  float64 `json:"seconds"`
	HeadSeq  uint64  `json:"head_seq"`
}

type followSteady struct {
	Reports       uint64  `json:"reports"`
	ReportErrors  uint64  `json:"report_errors"`
	LocateErrors  uint64  `json:"locate_errors"`
	LagSamples    int     `json:"lag_samples"`
	MaxLagSeqs    uint64  `json:"max_lag_seqs"`
	MeanLagSeqs   float64 `json:"mean_lag_seqs"`
	MaxLagBytes   int64   `json:"max_lag_bytes"`
	MaxLagSeconds float64 `json:"max_lag_seconds"`
	Trainer       nodeLat `json:"trainer_locate"`
	Follower      nodeLat `json:"follower_locate"`
}

type nodeLat struct {
	Count  uint64 `json:"count"`
	P50us  int64  `json:"p50_us"`
	P99us  int64  `json:"p99_us"`
	P999us int64  `json:"p999_us"`
}

type followCapacity struct {
	SliceS      float64   `json:"slice_s"`
	Rounds      int       `json:"rounds"`
	SingleRPS   float64   `json:"single_node_rps"`
	PerFollower []float64 `json:"per_follower_rps"`
	FleetRPS    float64   `json:"fleet_rps"`
	// SinglePerCPUS and PerFollowerPerCPUS are successful locates per
	// process CPU-second; Scaling is their fleet-over-single ratio.
	SinglePerCPUS      float64   `json:"single_node_locates_per_cpu_s"`
	PerFollowerPerCPUS []float64 `json:"per_follower_locates_per_cpu_s"`
	Scaling            float64   `json:"scaling_vs_single"`
	Note               string    `json:"note"`
}

type followerFinal struct {
	Follower   int    `json:"follower"`
	Generation uint64 `json:"generation"`
	State      string `json:"state"`
	Bootstraps uint64 `json:"bootstraps"`
	Reconnects uint64 `json:"reconnects"`
	Folded     uint64 `json:"folded"`
}

// followNode is one running read replica: the repl.Follower plus the
// serving front end listening on loopback.
type followNode struct {
	fol  *repl.Follower
	srv  *server.Server
	hs   *http.Server
	base string
}

func (n *followNode) close() {
	n.hs.Close()
	n.srv.Close()
	n.fol.Close()
}

func runFollow(o followSoakOpts, out io.Writer) error {
	if o.followers <= 0 || o.workers <= 0 || o.duration <= 0 || o.preload <= 0 {
		return errors.New("-followers, -workers, -duration and -preload must be positive")
	}
	if o.reportsQPS <= 0 || o.locateQPS <= 0 {
		return errors.New("-reports-qps and -locate-qps must be positive")
	}
	capSlice := o.capSlice
	if capSlice <= 0 {
		capSlice = o.duration / 2
		if capSlice < 500*time.Millisecond {
			capSlice = 500 * time.Millisecond
		}
		if capSlice > 5*time.Second {
			capSlice = 5 * time.Second
		}
	}

	// Trainer: the standard in-process stack plus a replication source.
	// The paper house is the default fixture; -map-entries swaps in a
	// synthetic campus-scale map (with a slower publish cadence — a
	// recompile there is ~a second of work, not microseconds).
	db, rebuild, bodies, build, err := buildFollowFixture(o.mapEntries, o.mapAPs)
	if err != nil {
		return err
	}
	flushReports, flushInterval := 64, 100*time.Millisecond
	if o.mapEntries > 0 {
		flushReports, flushInterval = 4096, 2*time.Second
	}
	walDir, err := os.MkdirTemp("", "soak-repl-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(walDir)
	src := repl.NewSource(repl.SourceConfig{Heartbeat: 250 * time.Millisecond})
	mgr, err := ingest.NewManager(db, rebuild, ingest.Config{
		WALPath:       filepath.Join(walDir, "reports.wal"),
		QueueDepth:    16384,
		FlushReports:  flushReports,
		FlushInterval: flushInterval,
		OnPublish:     src.OnPublish,
	})
	if err != nil {
		return err
	}
	defer mgr.Close()
	src.Bind(mgr)
	trainerSrv, err := server.NewLive(mgr, nil, server.WithReplicationSource(src))
	if err != nil {
		return err
	}
	defer trainerSrv.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	trainerHS := &http.Server{Handler: trainerSrv}
	go trainerHS.Serve(ln)
	defer trainerHS.Close()
	trainerBase := "http://" + ln.Addr().String()

	client := &http.Client{Transport: &http.Transport{
		MaxIdleConns:        o.workers * (o.followers + 2),
		MaxIdleConnsPerHost: o.workers * 2,
	}}

	// Preload: fold a corpus before any follower exists, so cold
	// catch-up measures snapshot transfer + residual WAL replay over a
	// non-trivial map, not an empty bootstrap.
	fmt.Fprintf(out, "soak: preloading %d reports into the trainer...\n", o.preload)
	for i := 0; i < o.preload; i++ {
		ok := false
		for try := 0; try < 50 && !ok; try++ { // 429 backpressure: wait out a recompile
			if ok = post(client, trainerBase+"/train/report", bodies.ingest[i%len(bodies.ingest)]); !ok {
				time.Sleep(100 * time.Millisecond)
			}
		}
		if !ok {
			return fmt.Errorf("preload report %d rejected", i)
		}
	}
	if err := waitUntil(30*time.Second, func() bool {
		return mgr.Stats().Folded >= uint64(o.preload)
	}); err != nil {
		return fmt.Errorf("trainer never folded the preload: %w", err)
	}

	// Cold catch-up: start each follower against the preloaded trainer
	// and time bootstrap → caught-up-at-head.
	var nodes []*followNode
	defer func() {
		for _, n := range nodes {
			n.close()
		}
	}()
	var catchups []catchupRec
	for i := 0; i < o.followers; i++ {
		t0 := time.Now()
		fol, err := repl.NewFollower(repl.FollowerConfig{
			TrainerURL:   trainerBase,
			Build:        build,
			ReconnectMin: 50 * time.Millisecond,
			ReconnectMax: time.Second,
		})
		if err != nil {
			return err
		}
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		err = fol.Start(ctx)
		cancel()
		if err != nil {
			return err
		}
		if err := waitUntil(30*time.Second, func() bool {
			st := fol.Stats()
			return st.State == repl.StateStreaming && st.AppliedSeq == mgr.WAL().Seq()
		}); err != nil {
			fol.Close()
			return fmt.Errorf("follower %d never caught up: %w", i, err)
		}
		elapsed := time.Since(t0)
		fsrv, err := server.NewFollower(fol, nil)
		if err != nil {
			fol.Close()
			return err
		}
		fln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			fsrv.Close()
			fol.Close()
			return err
		}
		hs := &http.Server{Handler: fsrv}
		go hs.Serve(fln)
		nodes = append(nodes, &followNode{fol: fol, srv: fsrv, hs: hs, base: "http://" + fln.Addr().String()})
		catchups = append(catchups, catchupRec{
			Follower: i,
			Seconds:  elapsed.Seconds(),
			HeadSeq:  mgr.WAL().Seq(),
		})
		fmt.Fprintf(out, "soak: follower %d cold catch-up %.3fs (head %d)\n", i, elapsed.Seconds(), mgr.WAL().Seq())
	}

	// Steady state: a report writer streams into the trainer while
	// paced locate traffic hits the trainer and every follower; a
	// sampler tracks replication lag the whole time.
	fmt.Fprintf(out, "soak: steady state for %s (%g reports/s, %g locates/s per node)...\n",
		o.duration, o.reportsQPS, o.locateQPS)
	var (
		steady       followSteady
		trainerHist  metrics.Histogram
		followerHist metrics.Histogram
		trainerN     atomic.Uint64
		followerN    atomic.Uint64
		locateErrs   atomic.Uint64
		reports      atomic.Uint64
		reportErrs   atomic.Uint64
	)
	stop := make(chan struct{})
	var wg sync.WaitGroup

	wg.Add(1)
	go func() { // report writer
		defer wg.Done()
		interval := time.Duration(float64(time.Second) / o.reportsQPS)
		tick := time.NewTicker(interval)
		defer tick.Stop()
		i := 0
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
			}
			if post(client, trainerBase+"/train/report", bodies.ingest[i%len(bodies.ingest)]) {
				reports.Add(1)
			} else {
				reportErrs.Add(1)
			}
			i++
		}
	}()

	targets := []string{trainerBase}
	for _, n := range nodes {
		targets = append(targets, n.base)
	}
	for ti, target := range targets {
		wg.Add(1)
		go func(ti int, target string) { // paced locate loop per node
			defer wg.Done()
			interval := time.Duration(float64(time.Second) / o.locateQPS)
			tick := time.NewTicker(interval)
			defer tick.Stop()
			i := ti
			for {
				select {
				case <-stop:
					return
				case <-tick.C:
				}
				body := bodies.locate[i%len(bodies.locate)]
				i++
				t0 := time.Now()
				ok := post(client, target+"/locate", body)
				d := time.Since(t0)
				if !ok {
					locateErrs.Add(1)
					continue
				}
				if ti == 0 {
					trainerHist.Observe(d)
					trainerN.Add(1)
				} else {
					followerHist.Observe(d)
					followerN.Add(1)
				}
			}
		}(ti, target)
	}

	var lagSum float64
	sampler := time.NewTicker(100 * time.Millisecond)
	steadyDeadline := time.Now().Add(o.duration)
	for time.Now().Before(steadyDeadline) {
		<-sampler.C
		for _, n := range nodes {
			st := n.fol.Stats()
			steady.LagSamples++
			lagSum += float64(st.LagSeqs)
			if st.LagSeqs > steady.MaxLagSeqs {
				steady.MaxLagSeqs = st.LagSeqs
			}
			if st.LagBytes > steady.MaxLagBytes {
				steady.MaxLagBytes = st.LagBytes
			}
			if st.LagSeconds > steady.MaxLagSeconds {
				steady.MaxLagSeconds = st.LagSeconds
			}
		}
	}
	sampler.Stop()
	close(stop)
	wg.Wait()
	if steady.LagSamples > 0 {
		steady.MeanLagSeqs = lagSum / float64(steady.LagSamples)
	}
	steady.Reports = reports.Load()
	steady.ReportErrors = reportErrs.Load()
	steady.LocateErrors = locateErrs.Load()
	steady.Trainer = nodeLat{
		Count:  trainerN.Load(),
		P50us:  trainerHist.Quantile(0.50).Microseconds(),
		P99us:  trainerHist.Quantile(0.99).Microseconds(),
		P999us: trainerHist.Quantile(0.999).Microseconds(),
	}
	steady.Follower = nodeLat{
		Count:  followerN.Load(),
		P50us:  followerHist.Quantile(0.50).Microseconds(),
		P99us:  followerHist.Quantile(0.99).Microseconds(),
		P999us: followerHist.Quantile(0.999).Microseconds(),
	}

	// Let the fleet drain to the head before measuring capacity, so no
	// fold work competes with the locate loops.
	if err := waitUntil(30*time.Second, func() bool {
		head := mgr.WAL().Seq()
		for _, n := range nodes {
			st := n.fol.Stats()
			if st.State != repl.StateStreaming || st.AppliedSeq != head {
				return false
			}
		}
		return true
	}); err != nil {
		return fmt.Errorf("fleet never drained after steady state: %w", err)
	}

	// The WAL draining is not quiescence: the trainer's final
	// FlushInterval tick can land a recompile (and, via its publish
	// note, one per follower) seconds after the last report, and on a
	// 100k-entry map that is ~1s of CPU that would skew whichever
	// capacity slice it falls into. Wait until every node's serving
	// generation is identical and has stayed put for a full flush
	// interval's worth of polls.
	var lastGen uint64
	stableSince := time.Now()
	if err := waitUntil(30*time.Second, func() bool {
		gen := mgr.Registry().Current().Generation
		for _, n := range nodes {
			if n.fol.Stats().Generation != gen {
				return false
			}
		}
		if gen != lastGen {
			lastGen, stableSince = gen, time.Now()
			return false
		}
		return time.Since(stableSince) >= flushInterval+500*time.Millisecond
	}); err != nil {
		return fmt.Errorf("fleet generations never settled after steady state: %w", err)
	}

	// Capacity: saturated locate throughput, one node at a time, in
	// capRounds interleaved rounds. Each node's figure is the median of
	// its slices, so one slice the shared machine slowed down does not
	// decide the scaling ratio. The ratio compares locates per process
	// CPU-second: wall-clock throughput drops whenever other processes
	// take the CPUs, CPU time per locate hardly moves.
	fmt.Fprintf(out, "soak: capacity slices (%d rounds of %s each, %d workers)...\n", capRounds, capSlice, o.workers)
	cap_ := followCapacity{
		SliceS: capSlice.Seconds(),
		Rounds: capRounds,
		Note:   "single-CPU container: per-node saturation measured sequentially, median over interleaved rounds; fleet_rps is the sum over followers; scaling_vs_single compares locates per process CPU-second (getrusage), the *_rps fields are wall-clock",
	}
	urls := []string{trainerBase + "/locate"}
	for _, n := range nodes {
		urls = append(urls, n.base+"/locate")
	}
	rps := make([][]float64, len(urls))
	perCPU := make([][]float64, len(urls))
	for r := 0; r < capRounds; r++ {
		for i, url := range urls {
			runtime.GC() // pay earlier GC debt outside the slice
			wall, cpu := saturate(client, url, bodies.locate, o.workers, capSlice)
			rps[i] = append(rps[i], wall)
			perCPU[i] = append(perCPU[i], cpu)
		}
	}
	cap_.SingleRPS = stats.Median(rps[0])
	cap_.SinglePerCPUS = stats.Median(perCPU[0])
	fleetPerCPUS := 0.0
	for i := range nodes {
		wall, cpu := stats.Median(rps[i+1]), stats.Median(perCPU[i+1])
		cap_.PerFollower = append(cap_.PerFollower, wall)
		cap_.PerFollowerPerCPUS = append(cap_.PerFollowerPerCPUS, cpu)
		cap_.FleetRPS += wall
		fleetPerCPUS += cpu
		fmt.Fprintf(out, "soak: follower %d saturated at %.0f locates/s, %.0f per CPU-second\n", i, wall, cpu)
	}
	if cap_.SinglePerCPUS > 0 {
		cap_.Scaling = fleetPerCPUS / cap_.SinglePerCPUS
	}

	report := followReport{
		Description: "Replication fleet soak: one trainer, N followers over loopback HTTP; cold catch-up, steady-state replication lag under live ingest, and sequentially-measured saturated locate capacity.",
		Date:        time.Now().UTC().Format("2006-01-02"),
		Config: followConfig{
			Followers: o.followers, Preload: o.preload, Duration: o.duration.String(),
			Workers: o.workers, ReportsQPS: o.reportsQPS, LocateQPS: o.locateQPS,
			MapEntries: o.mapEntries, MapAPs: o.mapAPs,
		},
		ColdCatchup: catchups,
		SteadyState: steady,
		Capacity:    cap_,
	}
	for i, n := range nodes {
		st := n.fol.Stats()
		report.Followers = append(report.Followers, followerFinal{
			Follower: i, Generation: st.Generation, State: st.State,
			Bootstraps: st.Bootstraps, Reconnects: st.Reconnects, Folded: st.Folded,
		})
	}

	enc, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	enc = append(enc, '\n')
	if o.outPath != "" {
		if err := os.WriteFile(o.outPath, enc, 0o644); err != nil {
			return err
		}
	}
	_, err = out.Write(enc)
	return err
}

// capRounds is how many capacity slices each node gets: three is the
// fewest whose median ignores one outlier slice.
const capRounds = 3

// saturate drives unpaced POSTs at url with the given worker count for
// one slice. It returns the successful requests per wall-clock second
// and per CPU-second of this process, which serves and drives them.
func saturate(client *http.Client, url string, bodies [][]byte, workers int, slice time.Duration) (rps, perCPUS float64) {
	var n atomic.Uint64
	cpu0 := processCPU()
	start := time.Now()
	deadline := start.Add(slice)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			i := w
			for time.Now().Before(deadline) {
				if post(client, url, bodies[i%len(bodies)]) {
					n.Add(1)
				}
				i++
			}
		}(w)
	}
	wg.Wait()
	ok := float64(n.Load())
	rps = ok / time.Since(start).Seconds()
	if cpu := processCPU() - cpu0; cpu > 0 {
		perCPUS = ok / cpu.Seconds()
	}
	return rps, perCPUS
}

// processCPU is the user plus system CPU time this process has used.
func processCPU() time.Duration {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// buildFollowFixture assembles the replication soak's training DB,
// rebuild func, request bodies and locator build config (the follower
// mirrors it for answer-identical serving). mapEntries == 0 gives the
// paper house (the fixture every other soak mode uses); a positive
// count gives a synthetic campus-scale map — served with top-k
// ranking, the configuration a fleet would actually run — so cold
// catch-up and recompile cost are measured at realistic map sizes.
func buildFollowFixture(mapEntries, mapAPs int) (*trainingdb.DB, func(*trainingdb.DB) (*core.Service, error), *soakBodies, core.BuildConfig, error) {
	if mapEntries == 0 {
		var build core.BuildConfig
		scen := sim.PaperHouse()
		env, err := scen.Environment()
		if err != nil {
			return nil, nil, nil, build, err
		}
		grid, err := scen.TrainingPoints()
		if err != nil {
			return nil, nil, nil, build, err
		}
		coll := sim.NewScanner(env, 41).CaptureCollection(grid, 20)
		db, _, err := trainingdb.Generate(coll, grid, trainingdb.Options{})
		if err != nil {
			return nil, nil, nil, build, err
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
		bodies, err := buildBodies(8)
		return db, rebuild, bodies, build, err
	}

	if mapAPs == 0 {
		mapAPs = 8
	}
	heard := mapAPs / 2
	if heard < 1 {
		heard = 1
	}
	// TopK bounds ranking so a 100k-entry locate stays sane.
	build := core.BuildConfig{TopK: 8}
	rng := rand.New(rand.NewSource(30))
	db := &trainingdb.DB{Entries: make(map[string]*trainingdb.Entry, mapEntries)}
	db.BSSIDs = make([]string, mapAPs)
	for a := range db.BSSIDs {
		db.BSSIDs[a] = fmt.Sprintf("fe:ed:00:00:%02x:%02x", a/256, a%256)
	}
	cols := (mapEntries + 39) / 40
	for e := 0; e < mapEntries; e++ {
		name := fmt.Sprintf("pt-%06d", e)
		ent := &trainingdb.Entry{
			Name:  name,
			Pos:   geom.Pt(float64(e%cols)*5, float64(e/cols)*5),
			PerAP: make(map[string]*trainingdb.APStats, heard),
		}
		first := (e * 7) % (mapAPs - heard + 1)
		for a := first; a < first+heard; a++ {
			ent.PerAP[db.BSSIDs[a]] = &trainingdb.APStats{
				BSSID: db.BSSIDs[a], N: 20,
				Mean:   -45 - rng.Float64()*40,
				StdDev: 2 + rng.Float64()*4,
			}
		}
		db.Entries[name] = ent
	}
	// The trainer serves entry names, as every follower does.
	rebuild := func(db *trainingdb.DB) (*core.Service, error) {
		in, err := core.New(
			core.WithDB(db),
			core.WithAlgorithm(core.AlgoProbabilistic),
			core.WithConfig(build),
			core.WithEntryNames(),
		)
		if err != nil {
			return nil, err
		}
		return in.Service, nil
	}

	// Bodies: locate observations near existing entries' means; ingest
	// reports reinforce existing entries by name, so the map's shape
	// (and so recompile cost) stays fixed while the cells keep moving.
	var b soakBodies
	for i := 0; i < 16; i++ {
		ent := db.Entries[fmt.Sprintf("pt-%06d", i*(mapEntries/16))]
		obs := make(map[string]float64, len(ent.PerAP))
		for bssid, st := range ent.PerAP {
			obs[bssid] = st.Mean + rng.NormFloat64()*st.StdDev
		}
		lb, err := json.Marshal(map[string]any{"observation": obs})
		if err != nil {
			return nil, nil, nil, build, err
		}
		b.locate = append(b.locate, lb)
	}
	for i := 0; i < 64; i++ {
		ent := db.Entries[fmt.Sprintf("pt-%06d", i*(mapEntries/64))]
		obs := make(map[string]float64, len(ent.PerAP))
		for bssid, st := range ent.PerAP {
			obs[bssid] = st.Mean + rng.NormFloat64()*st.StdDev
		}
		ib, err := json.Marshal(map[string]any{"name": ent.Name, "observation": obs})
		if err != nil {
			return nil, nil, nil, build, err
		}
		b.ingest = append(b.ingest, ib)
	}
	return db, rebuild, &b, build, nil
}

// waitUntil polls cond every 2ms until true or the timeout lapses.
func waitUntil(timeout time.Duration, cond func() bool) error {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return nil
		}
		time.Sleep(2 * time.Millisecond)
	}
	return errors.New("condition not met in time")
}
