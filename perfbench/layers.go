package main

// Replays of the build-side layers: venue cold loads, the trainingdb
// codecs and compiler, core.New, and the ingest pipeline.

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"indoorloc/internal/core"
	"indoorloc/internal/ingest"
	"indoorloc/internal/trainingdb"
	"indoorloc/internal/venue"
)

// reps is how often a build-side replay repeats: the campus takes
// about half a second per load and a third per compile, the rest
// milliseconds.
func (r *replayer) reps() int {
	if r.b.cfg.workload == "campus-locate" {
		return 2
	}
	return 7
}

// coldLoads times Acquire calls during which Stats().Loads advanced.
// On the city they come from replaying the zipf request order against
// a fresh registry under the workload's budget, which also gives the
// hit ratio and eviction rate; on a single venue each is the first
// Acquire of a fresh registry.
func (r *replayer) coldLoads() error {
	b := r.b
	runDir, err := os.MkdirTemp(b.cfg.work, "replay-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(runDir)
	var cold []float64
	acquires, hits := 0, 0
	var evictions uint64
	replay := func(cfg venue.Config, n int) error {
		reg, err := venue.NewRegistry(cfg)
		if err != nil {
			return err
		}
		defer reg.Close()
		deadline := time.Now().Add(r.budget())
		for k := 0; k < n && time.Now().Before(deadline); k++ {
			id := b.in.Venues[b.in.ObsVenue[b.in.Seq[k]]]
			loads := reg.Stats().Loads
			d, err := timeAcquire(reg, id)
			if err != nil {
				return err
			}
			acquires++
			if reg.Stats().Loads > loads {
				cold = append(cold, ms(d))
			} else {
				hits++
			}
		}
		evictions += reg.Stats().Evictions
		return nil
	}
	if len(b.in.Venues) > 1 {
		if err := replay(b.vcfg, len(b.in.Seq)); err != nil {
			return err
		}
	} else {
		for k := 0; k < r.reps(); k++ {
			cfg := b.vcfg
			if b.sp.writeRate > 0 {
				cfg.WALDir = filepath.Join(runDir, fmt.Sprint("wal-", k))
				if err := os.MkdirAll(cfg.WALDir, 0o755); err != nil {
					return err
				}
			}
			if err := replay(cfg, 1000); err != nil {
				return err
			}
		}
	}
	r.m["venue.cold_load_ms_p50"] = metric{quantile(cold, 0.5), "ms"}
	r.m["venue.cold_load_ms_p99"] = metric{quantile(cold, 0.99), "ms"}
	r.m["venue.hit_ratio"] = metric{float64(hits) / float64(acquires), "ratio"}
	r.m["venue.evictions_per_kreq"] = metric{float64(evictions) / float64(acquires) * 1000, "count"}
	return nil
}

// refVenues lists the venues with reference files: the workload's own,
// or the city's most popular ones.
func (r *replayer) refVenues() []string {
	if len(r.b.in.Venues) == 1 {
		return r.b.in.Venues
	}
	return r.b.in.Venues[:min(r.reps(), cityRefVenues(r.b.cfg.sz))]
}

// artifact is the compiled file of venue id: the served one, or
// floor-train's reference copy of its served database.
func (r *replayer) artifact(id string) string {
	if p := filepath.Join(r.b.p.serve, id+".ilr"); statOK(p) {
		return p
	}
	return filepath.Join(r.b.p.ref, id+".ilr")
}

func statOK(p string) bool {
	_, err := os.Stat(p)
	return err == nil
}

// loads times trainingdb.OpenCompiledFile and core.New over the
// artifact, and trainingdb.LoadFile and Compile+Quantize over the
// reference database.
func (r *replayer) loads() error {
	var open, newT, load, compile []float64
	ids := r.refVenues()
	for k := 0; k < r.reps(); k++ {
		id := ids[k%len(ids)]
		art := r.artifact(id)
		t0 := time.Now()
		_, closeMap, err := trainingdb.OpenCompiledFile(art)
		open = append(open, ms(time.Since(t0)))
		if err != nil {
			return err
		}
		if err := closeMap(); err != nil {
			return err
		}
		t0 = time.Now()
		inst, err := core.New(core.WithCompiledFile(art), core.WithAlgorithm(r.b.vcfg.Algorithm), core.WithConfig(r.b.vcfg.Build))
		newT = append(newT, ms(time.Since(t0)))
		if err != nil {
			return err
		}
		if err := inst.Close(); err != nil {
			return err
		}
		t0 = time.Now()
		db, err := trainingdb.LoadFile(filepath.Join(r.b.p.ref, id+".tdb"))
		load = append(load, ms(time.Since(t0)))
		if err != nil {
			return err
		}
		t0 = time.Now()
		c := db.Compile(floorRSSI, floorSigma)
		c.Quantize()
		compile = append(compile, ms(time.Since(t0)))
		r.ops++
	}
	runtime.GC()
	r.m["trainingdb.open_ms"] = metric{quantile(open, 0.5), "ms"}
	r.m["core.new_ms"] = metric{quantile(newT, 0.5), "ms"}
	r.m["trainingdb.load_ms"] = metric{quantile(load, 0.5), "ms"}
	r.m["trainingdb.compile_ms"] = metric{quantile(compile, 0.5), "ms"}
	return nil
}

// replayFlush is the ingest replay's recompile cadence; the replay
// submits enough reports for replaySwaps recompiles.
const (
	replayFlush = 64
	replaySwaps = 2
)

// ingest replays training reports through a private ingest.Manager
// over the workload's reference database, with the venue's rebuild
// recipe: floor-train's own report stream, elsewhere the workload's
// observations tagged with the location they resolve to. It times
// Manager.Submit, the wait until Stats().Applied covers the
// submission, and each published DB replayed through core.New.
func (r *replayer) ingest() error {
	b := r.b
	id := r.refVenues()[0]
	db, err := trainingdb.LoadFile(filepath.Join(b.p.ref, id+".tdb"))
	if err != nil {
		return err
	}
	dir, err := os.MkdirTemp(b.cfg.work, "replay-wal-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	var dbs []*trainingdb.DB
	recipe := func(db *trainingdb.DB) (*core.Service, error) { return dbService(b.vcfg, db) }
	mgr, err := ingest.NewManager(db, recipe, ingest.Config{
		WALPath: filepath.Join(dir, "replay.wal"), FlushReports: replayFlush, FlushInterval: time.Hour,
		OnPublish: func(ev ingest.PublishEvent) { dbs = append(dbs, ev.DB) },
	})
	if err != nil {
		return err
	}
	defer mgr.Close()

	reports := b.in.Reports
	if len(reports) == 0 {
		for _, i := range b.in.Seq {
			if b.in.Venues[b.in.ObsVenue[i]] == id {
				reports = append(reports, ingest.Report{Name: b.expect[i].location, Observation: b.in.Obs[i]})
			}
			if len(reports) == replayFlush*replaySwaps {
				break
			}
		}
	}
	reports = reports[:min(len(reports), replayFlush*replaySwaps)]
	const per = 4 // reports per Submit
	var submit, wait []float64
	for off := 0; off+per <= len(reports); off += per {
		target := mgr.Applied() + per
		t0 := time.Now()
		if err := mgr.Submit(reports[off : off+per]...); err != nil {
			r.fail("ingest submit: %v", err)
			continue
		}
		submit = append(submit, us(time.Since(t0)))
		for mgr.Applied() < target {
			runtime.Gosched()
		}
		wait = append(wait, ms(time.Since(t0)))
		r.ops++
	}
	st := mgr.Stats()
	if err := mgr.Close(); err != nil {
		return err
	}
	// The compactor has stopped: dbs is complete and no longer written.
	var rebuild []float64
	for _, d := range dbs {
		t0 := time.Now()
		if _, err := recipe(d); err != nil {
			return err
		}
		rebuild = append(rebuild, ms(time.Since(t0)))
	}
	r.m["ingest.submit_us_p50"] = metric{quantile(submit, 0.5), "us"}
	r.m["ingest.submit_us_p99"] = metric{quantile(submit, 0.99), "us"}
	r.m["ingest.fold_wait_ms_p99"] = metric{quantile(wait, 0.99), "ms"}
	r.m["ingest.rebuild_ms_p50"] = metric{quantile(rebuild, 0.5), "ms"}
	r.m["ingest.rebuild_ms_p99"] = metric{quantile(rebuild, 0.99), "ms"}
	r.m["ingest.swaps_per_kreport"] = metric{float64(st.Swaps) / float64(len(reports)) * 1000, "count"}
	// floor-train overwrites this with its live venue's count.
	r.m["ingest.rejected_full"] = metric{float64(st.RejectedFull), "count"}
	return nil
}
