// locserved serves a trained location service over HTTP — the
// "install a software location system in the host machine" endpoint
// the paper's applications (call forwarding, conference material,
// surveillance) would talk to.
//
// Usage:
//
//	locserved -db train.tdb -listen :8080
//	locserved -db train.tdb -algo geometric -plan house.plan -listen 127.0.0.1:9000
//	locserved -db big.tdb -batch-max 1024
//	locserved -db train.tdb -train-wal reports.wal -train-flush-count 128
//	locserved -map-file campus.ilr -quantize -topk 8
//	locserved -db train.tdb -train-wal reports.wal -train-artifact live.ilr
//
// Endpoints: GET /healthz /algorithms /locations, POST /locate,
// POST /locate/batch, POST/DELETE /track/{client}, and — with
// -train-wal — POST /train/report. See internal/server for the schema.
//
// The serving knobs: each locate is one scan of the radio map on the
// request's goroutine, and cores are used by concurrent requests and
// by /locate/batch, whose observations fan out over a worker pool.
// -batch-max caps the observations accepted by one /locate/batch
// request. -quantize serves the int16-quantized radio map (about a
// quarter of the float64 matrix footprint, accuracy bounds documented
// in DESIGN.md), and -topk N replaces the full candidate sort with a
// bounded heap selection of the best N — both apply to the
// probabilistic and kNN families.
//
// -map-file serves a compiled radio-map artifact (the v2 binary
// `tdbtool compile` writes) instead of a training database: the file
// is memory-mapped read-only, so startup does no compilation and
// matrix pages fault in on demand. Artifact mode supports the
// probabilistic, nnss/knn/wknn and sector algorithms and excludes
// -train-wal (live training folds raw samples, which the artifact does
// not carry). With -train-wal, -train-artifact PATH writes the freshly
// compiled radio map to PATH after every hot swap, so a follow-up
// -map-file deployment picks up where live training left off.
//
// The live-training knobs (all gated on -train-wal, which names the
// durable report journal): -train-queue bounds the accepted-but-
// unfolded backlog (a full queue answers 429 + Retry-After),
// -train-flush-count and -train-flush-interval set the radio-map
// recompile cadence, -train-snap-radius folds coordinate-only reports
// into an existing training point within that many feet, and
// -train-sync fsyncs the journal on every accepted batch. On startup
// the journal is replayed, so a crash or restart loses no accepted
// report.
//
// Replication turns one trainer into a read fleet. On the trainer,
// -replicate (needs -train-wal) exposes GET /v1/replicate/snapshot
// and GET /v1/replicate/wal; on each follower, -follow=<trainer-url>
// replaces -db/-map-file entirely — the follower bootstraps its radio
// map from the trainer's snapshot, tails the WAL folding every report
// exactly as the trainer does, and hot-swaps on every trainer publish.
// Followers are read-only (POST /train/report answers 409
// venue_frozen) and report replication lag on /healthz and /metrics.
// -follow-timeout bounds the wait for the first bootstrap.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"time"

	"indoorloc/internal/core"
	"indoorloc/internal/floorplan"
	"indoorloc/internal/ingest"
	"indoorloc/internal/locmap"
	"indoorloc/internal/repl"
	"indoorloc/internal/server"
	"indoorloc/internal/trainingdb"
	"indoorloc/internal/venue"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, nil); err != nil {
		fmt.Fprintln(os.Stderr, "locserved:", err)
		os.Exit(1)
	}
}

// run builds the server and serves on the listener. When ready is
// non-nil the bound address is sent on it once listening (tests use
// this to avoid port races); pass nil in production.
func run(args []string, out io.Writer, ready chan<- string) error {
	fs := flag.NewFlagSet("locserved", flag.ContinueOnError)
	var (
		dbPath       = fs.String("db", "", "training database (required unless -map-file or -venues)")
		mapFile      = fs.String("map-file", "", "compiled radio-map artifact (v2 binary) to serve, memory-mapped; replaces -db")
		venueDir     = fs.String("venues", "", "artifact directory for multi-venue serving (<id>.ilr / <id>.tdb per venue); replaces -db/-map-file and exposes /v1/venues/{venue}/...")
		venueBudget  = fs.Int64("venues-budget", 0, "LRU memory budget in bytes over resident venues (0 = unbounded)")
		venueDefault = fs.String("default-venue", "", "venue the legacy unversioned routes alias onto (empty = aliases answer venue_not_found)")
		venueWALDir  = fs.String("venues-wal-dir", "", "directory of per-venue ingest journals; gives every .tdb venue live training")
		algo         = fs.String("algo", core.AlgoProbabilistic, fmt.Sprintf("algorithm %v", core.Algorithms()))
		planPath     = fs.String("plan", "", "annotated plan supplying AP positions (geometric algorithms)")
		listen       = fs.String("listen", "127.0.0.1:8080", "listen address")
		batchMax     = fs.Int("batch-max", server.DefaultMaxBatch, "max observations per /locate/batch request")
		maxBody      = fs.Int64("max-body", 0, "request body cap in bytes for every route (0 = per-route defaults: 1 MiB, 8 MiB batch/train)")
		routeTO      = fs.Duration("route-timeout", 0, "per-route handler deadline; overruns answer 503 (0 = off, keeps the hot path allocation-free)")
		metricsOn    = fs.Bool("metrics", true, "expose Prometheus metrics at GET /metrics")
		accessLog    = fs.String("access-log", "", "append one line per request here via the drop-oldest ring ('-' = stderr)")
		quantize     = fs.Bool("quantize", false, "serve the int16-quantized radio map (~4× smaller matrices)")
		topK         = fs.Int("topk", 0, "bound rankings to the best K candidates via heap selection (0 = full sort)")

		trainWAL      = fs.String("train-wal", "", "report journal path; enables live training via POST /train/report")
		trainQueue    = fs.Int("train-queue", 0, "bounded ingest queue depth (0 = 1024)")
		trainCount    = fs.Int("train-flush-count", 0, "reports folded before a radio-map recompile (0 = 256)")
		trainIvl      = fs.Duration("train-flush-interval", 0, "max time folded reports wait for a recompile (0 = 2s)")
		trainSnap     = fs.Float64("train-snap-radius", 0, "feet within which coordinate reports fold into an existing entry (0 = 10)")
		trainSync     = fs.Bool("train-sync", false, "fsync the report journal on every accepted batch")
		trainArtifact = fs.String("train-artifact", "", "write the compiled radio map as a v2 artifact here after every swap")

		replicate = fs.Bool("replicate", false, "expose GET /v1/replicate/{snapshot,wal} for followers; needs -train-wal")
		follow    = fs.String("follow", "", "trainer base URL; serve as a read-only replication follower (replaces -db/-map-file)")
		followTO  = fs.Duration("follow-timeout", 0, "max wait for the follower's first snapshot bootstrap (0 = 1m)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	sources := 0
	for _, set := range []bool{*dbPath != "", *mapFile != "", *venueDir != "", *follow != ""} {
		if set {
			sources++
		}
	}
	if sources != 1 {
		return errors.New("need exactly one of -db FILE, -map-file FILE, -venues DIR or -follow URL")
	}
	if *follow != "" && (*trainWAL != "" || *planPath != "") {
		// A follower's map and names come from the trainer; local
		// training would fork the replicated history.
		return errors.New("-follow replicates the trainer's map; -train-wal and -plan do not apply")
	}
	if *follow == "" && *followTO != 0 {
		return errors.New("-follow-timeout needs -follow URL")
	}
	if *followTO < 0 {
		return errors.New("-follow-timeout must be non-negative")
	}
	if *replicate && *trainWAL == "" {
		return errors.New("-replicate streams the report journal; it needs -train-wal FILE")
	}
	if *venueDir == "" && (*venueBudget != 0 || *venueDefault != "" || *venueWALDir != "") {
		return errors.New("-venues-budget, -default-venue and -venues-wal-dir need -venues DIR")
	}
	if *venueDir != "" && *trainWAL != "" {
		return errors.New("-venues uses per-venue journals via -venues-wal-dir, not -train-wal")
	}
	if *batchMax <= 0 {
		return errors.New("-batch-max must be positive")
	}
	if *topK < 0 {
		return errors.New("-topk must be non-negative")
	}
	if *trainWAL == "" && (*trainQueue != 0 || *trainCount != 0 || *trainIvl != 0 ||
		*trainSnap != 0 || *trainSync || *trainArtifact != "") {
		return errors.New("-train-* flags need -train-wal FILE")
	}
	if *trainQueue < 0 || *trainCount < 0 || *trainIvl < 0 || *trainSnap < 0 {
		return errors.New("-train-* values must be non-negative")
	}
	if *mapFile != "" && *trainWAL != "" {
		return errors.New("-map-file serves a frozen artifact; live training needs -db")
	}
	if *maxBody < 0 || *routeTO < 0 {
		return errors.New("-max-body and -route-timeout must be non-negative")
	}
	var opts []server.Option
	if *maxBody > 0 {
		opts = append(opts, server.WithMaxBody(*maxBody))
	}
	if *routeTO > 0 {
		opts = append(opts, server.WithRouteTimeout(*routeTO))
	}
	if !*metricsOn {
		opts = append(opts, server.WithoutMetrics())
	}
	if *accessLog != "" {
		// The wrapper hides *os.File's Closer from the logger's Close
		// (via srv.Close), which would otherwise close process stderr
		// and eat any error printed after shutdown.
		w := io.Writer(struct{ io.Writer }{os.Stderr})
		if *accessLog != "-" {
			f, err := os.OpenFile(*accessLog, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				return err
			}
			// server.Close closes the file through the logger.
			w = f
		}
		opts = append(opts, server.WithAccessLog(w))
	}
	cfg := core.BuildConfig{Quantize: *quantize, TopK: *topK}
	var planNames *locmap.Map
	if *planPath != "" {
		plan, err := floorplan.LoadFile(*planPath)
		if err != nil {
			return err
		}
		cfg.APPositions, err = plan.APPositions()
		if err != nil {
			return err
		}
		if planNames, err = plan.LocationMap(); err != nil {
			return err
		}
	}
	var srv *server.Server
	var mgr *ingest.Manager
	var venues *venue.Registry
	var fol *repl.Follower
	switch {
	case *follow != "":
		// Follower mode: the radio map is the trainer's, bootstrapped
		// from its snapshot endpoint and kept current by tailing its
		// WAL. The process serves reads only.
		to := *followTO
		if to == 0 {
			to = time.Minute
		}
		var err error
		fol, err = repl.NewFollower(repl.FollowerConfig{
			TrainerURL: *follow,
			Algorithm:  *algo,
			Build:      cfg,
		})
		if err != nil {
			return err
		}
		bctx, cancel := context.WithTimeout(context.Background(), to)
		err = fol.Start(bctx)
		cancel()
		if err != nil {
			return err
		}
		defer fol.Close()
		if srv, err = server.NewFollower(fol, nil, opts...); err != nil {
			return err
		}
	case *venueDir != "":
		// Multi-venue mode: one process hosts every venue in the
		// directory, lazily loaded and LRU-evicted under the budget.
		var err error
		venues, err = venue.NewRegistry(venue.Config{
			Dir:       *venueDir,
			Algorithm: *algo,
			Build:     cfg,
			MaxBytes:  *venueBudget,
			WALDir:    *venueWALDir,
			Ingest: ingest.Config{
				SyncEveryAppend: *trainSync,
				QueueDepth:      *trainQueue,
				FlushReports:    *trainCount,
				FlushInterval:   *trainIvl,
				SnapRadius:      *trainSnap,
			},
			Default: *venueDefault,
		})
		if err != nil {
			return err
		}
		defer venues.Close()
		if srv, err = server.NewMultiVenue(venues, nil, opts...); err != nil {
			return err
		}
	case *mapFile != "":
		// Artifact mode: the v2 binary is memory-mapped and served
		// directly — no raw database, no recompilation at startup.
		in, err := core.New(core.WithCompiledFile(*mapFile), core.WithAlgorithm(*algo), core.WithConfig(cfg))
		if err != nil {
			return err
		}
		defer in.Close()
		if planNames != nil {
			in.Service.Names = planNames
		}
		if srv, err = server.New(in.Service, nil, opts...); err != nil {
			return err
		}
	default:
		db, err := trainingdb.LoadFile(*dbPath)
		if err != nil {
			return err
		}
		// rebuild turns a frozen database into a warmed serving state: the
		// locator compiled from exactly that entry set, plus name
		// resolution covering it (the plan's names when given, else the
		// training locations themselves — including any entries live
		// training founded).
		rebuild := func(db *trainingdb.DB) (*core.Service, error) {
			nopts := []core.Option{core.WithDB(db), core.WithAlgorithm(*algo), core.WithConfig(cfg)}
			if planNames != nil {
				nopts = append(nopts, core.WithNames(planNames))
			} else {
				nopts = append(nopts, core.WithEntryNames())
			}
			in, err := core.New(nopts...)
			if err != nil {
				return nil, err
			}
			return in.Service, nil
		}

		if *trainWAL != "" {
			icfg := ingest.Config{
				WALPath:         *trainWAL,
				SyncEveryAppend: *trainSync,
				QueueDepth:      *trainQueue,
				FlushReports:    *trainCount,
				FlushInterval:   *trainIvl,
				SnapRadius:      *trainSnap,
				ArtifactPath:    *trainArtifact,
			}
			var src *repl.Source
			if *replicate {
				src = repl.NewSource(repl.SourceConfig{})
				icfg.OnPublish = src.OnPublish
				opts = append(opts, server.WithReplicationSource(src))
			}
			mgr, err = ingest.NewManager(db, rebuild, icfg)
			if err != nil {
				return err
			}
			defer mgr.Close()
			if src != nil {
				src.Bind(mgr)
			}
			if srv, err = server.NewLive(mgr, nil, opts...); err != nil {
				return err
			}
		} else {
			svc, err := rebuild(db)
			if err != nil {
				return err
			}
			if srv, err = server.New(svc, nil, opts...); err != nil {
				return err
			}
		}
	}
	srv.MaxBatch = *batchMax
	defer srv.Close()
	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		return err
	}
	if venues != nil {
		list, err := venues.List()
		if err != nil {
			return err
		}
		mode := fmt.Sprintf("budget %d bytes", *venueBudget)
		if *venueBudget == 0 {
			mode = "unbounded budget"
		}
		fmt.Fprintf(out, "locserved: %s algorithm over %d venues in %s (%s, lazy load), listening on %s\n",
			*algo, len(list), *venueDir, mode, ln.Addr())
	} else {
		snap := srv.Snapshot()
		mode := "static map"
		if *mapFile != "" {
			mode = fmt.Sprintf("compiled artifact %s", *mapFile)
		}
		if mgr != nil {
			st := mgr.Stats()
			mode = fmt.Sprintf("live training via %s (%d replayed)", *trainWAL, st.Replayed)
			if *replicate {
				mode += ", replicating"
			}
		}
		if fol != nil {
			mode = fmt.Sprintf("following %s at generation %d", *follow, fol.Stats().Generation)
		}
		fmt.Fprintf(out, "locserved: %s algorithm over %d locations (%s), listening on %s\n",
			snap.Service.Locator.Name(), snap.Service.DB.Len(), mode, ln.Addr())
	}
	if ready != nil {
		ready <- ln.Addr().String()
	}
	// The listener-side request limits the in-process router cannot
	// enforce: a header budget (the router's body and path caps have a
	// header sibling here), a header read deadline against slowloris
	// clients, and an idle keep-alive deadline so abandoned connections
	// do not pin goroutines.
	hs := &http.Server{
		Handler:           srv,
		MaxHeaderBytes:    64 << 10,
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	return hs.Serve(ln)
}
