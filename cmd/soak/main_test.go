package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

func TestParseMix(t *testing.T) {
	mix, err := parseMix("locate=70,batch=10,track=15,ingest=5")
	if err != nil {
		t.Fatal(err)
	}
	if mix != [numOps]int{70, 10, 15, 5} {
		t.Errorf("mix %v", mix)
	}
	for _, bad := range []string{
		"locate=100,extra=0", // unknown op
		"locate=50",          // doesn't sum to 100
		"locate",             // no percentage
		"locate=-10,batch=110",
	} {
		if _, err := parseMix(bad); err == nil {
			t.Errorf("mix %q accepted", bad)
		}
	}
}

func TestSchedule(t *testing.T) {
	mix := [numOps]int{70, 10, 15, 5}
	sched := schedule(mix)
	if len(sched) != 100 {
		t.Fatalf("schedule length %d", len(sched))
	}
	var got [numOps]int
	for _, op := range sched {
		got[op]++
	}
	if got != mix {
		t.Errorf("schedule distributes %v, want %v", got, mix)
	}
	// Interleaved, not clustered: the first four slots cover every op.
	var head [numOps]int
	for _, op := range sched[:numOps] {
		head[op]++
	}
	for op, n := range head {
		if n != 1 {
			t.Errorf("op %s appears %d times in the first %d slots", opNames[op], n, numOps)
		}
	}
}

// TestSoakSmoke runs a short in-process soak end to end and checks the
// report is well-formed: every traffic class served, zero errors, and
// a non-empty allocs/op curve. This is the CI lane that proves the
// harness itself works; the 60-second BENCH_soak.json run uses the
// same code path.
func TestSoakSmoke(t *testing.T) {
	outPath := filepath.Join(t.TempDir(), "soak.json")
	var buf bytes.Buffer
	err := run([]string{
		"-duration", "2s", "-qps", "300", "-workers", "2",
		"-window", "500ms", "-out", outPath, "-ref", "",
	}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	var rep soakReport
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatalf("report not JSON: %v", err)
	}
	if rep.Totals.Errors != 0 {
		t.Errorf("%d errored requests", rep.Totals.Errors)
	}
	if rep.Totals.Requests == 0 || rep.Totals.Observations < rep.Totals.Requests {
		t.Errorf("implausible totals: %+v", rep.Totals)
	}
	for _, op := range opNames {
		r, ok := rep.Routes[op]
		if !ok {
			t.Errorf("route %s missing from report", op)
			continue
		}
		m := r.(map[string]any)
		if m["count"].(float64) == 0 {
			t.Errorf("route %s served no requests", op)
		}
		if m["p50_us"].(float64) <= 0 || m["p99_us"].(float64) < m["p50_us"].(float64) {
			t.Errorf("route %s quantiles implausible: %v", op, m)
		}
	}
	if len(rep.Windows) == 0 {
		t.Error("no allocs/op windows sampled")
	}
	for _, w := range rep.Windows {
		if w.Requests > 0 && w.AllocsPerOp <= 0 {
			t.Errorf("window at %.1fs has requests but no alloc accounting", w.TS)
		}
	}
}

// TestSoakFollowSmoke runs the replication fleet mode end to end at CI
// size: one trainer, two followers, a small preload, two seconds of
// steady state and sub-second capacity slices. It asserts the claims
// BENCH_repl.json documents — every follower bootstraps exactly once
// and ends streaming at the trainer's generation, steady-state traffic
// sees zero errors, and two followers' summed saturated throughput
// clears 1.8× a single node, each node measured as the median of at
// least three slices — and it must finish well inside the 60-second
// CI allowance.
func TestSoakFollowSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("boots a 3-node fleet; skipped in -short")
	}
	outPath := filepath.Join(t.TempDir(), "repl.json")
	var buf bytes.Buffer
	err := run([]string{
		"-followers", "2", "-duration", "2s", "-workers", "2",
		"-preload", "300", "-reports-qps", "100", "-locate-qps", "200",
		"-cap-slice", "750ms", "-out", outPath,
	}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	var rep followReport
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatalf("report not JSON: %v", err)
	}
	if len(rep.ColdCatchup) != 2 {
		t.Fatalf("%d cold catch-up records, want 2", len(rep.ColdCatchup))
	}
	for _, c := range rep.ColdCatchup {
		if c.Seconds <= 0 || c.HeadSeq < 300 {
			t.Errorf("implausible catch-up record: %+v", c)
		}
	}
	ss := rep.SteadyState
	if ss.Reports == 0 || ss.ReportErrors != 0 || ss.LocateErrors != 0 {
		t.Errorf("steady state not clean: %+v", ss)
	}
	if ss.LagSamples == 0 {
		t.Error("no lag samples collected")
	}
	if ss.Trainer.Count == 0 || ss.Follower.Count == 0 ||
		ss.Trainer.P50us <= 0 || ss.Follower.P50us <= 0 {
		t.Errorf("locate latency records implausible: trainer %+v follower %+v", ss.Trainer, ss.Follower)
	}
	if rep.Capacity.SingleRPS <= 0 || len(rep.Capacity.PerFollower) != 2 || rep.Capacity.Rounds < 3 {
		t.Fatalf("implausible capacity record: %+v", rep.Capacity)
	}
	// The acceptance bar: two read replicas together must beat 1.8× one
	// node. They run the same serving stack measured sequentially, so
	// anything below that means replication taxed the hot path.
	if rep.Capacity.Scaling < 1.8 {
		t.Errorf("fleet scaling %.2f× vs single node, want ≥ 1.8×", rep.Capacity.Scaling)
	}
	for _, f := range rep.Followers {
		if f.State != "streaming" || f.Bootstraps != 1 || f.Folded == 0 {
			t.Errorf("follower %d ended unhealthy: %+v", f.Follower, f)
		}
	}
	if rep.Followers[0].Generation != rep.Followers[1].Generation {
		t.Errorf("followers ended at different generations: %d vs %d",
			rep.Followers[0].Generation, rep.Followers[1].Generation)
	}
}

func TestSoakFlagErrors(t *testing.T) {
	var buf bytes.Buffer
	for _, args := range [][]string{
		{"-duration", "0s"},
		{"-workers", "0"},
		{"-batch-size", "0"},
		{"-mix", "locate=50"},
		{"-venues-budget", "1024"},          // needs -venues
		{"-venues", "10", "-zipf-s", "1.0"}, // zipf skew must exceed 1
		{"-followers", "2", "-preload", "0"},
		{"-followers", "2", "-reports-qps", "0"},
		{"-followers", "1", "-venues", "5"}, // mutually exclusive modes
	} {
		if err := run(args, &buf); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}

// TestSoakVenuesSmoke runs the city-scale mode end to end at CI size:
// 100 venues, a budget tight enough that the zipf tail forces
// evictions, a few seconds of traffic. It asserts the three claims
// BENCH_venues.json documents at 1000 venues — errors stay zero while
// venues churn, the resident set respects the LRU budget, and
// evictions actually happened — and it must finish well inside the
// 60-second CI allowance, generation included.
func TestSoakVenuesSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("city generation is seconds of work; skipped in -short")
	}
	outPath := filepath.Join(t.TempDir(), "venues.json")
	var buf bytes.Buffer
	err := run([]string{
		"-venues", "100", "-duration", "3s", "-workers", "4",
		"-out", outPath, "-seed", "7",
	}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	var rep venueReport
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatalf("report not JSON: %v", err)
	}
	if rep.Config.Venues != 100 {
		t.Errorf("generated %d venues, want 100", rep.Config.Venues)
	}
	if rep.SteadyState.Errors != 0 {
		t.Errorf("%d errored requests", rep.SteadyState.Errors)
	}
	if rep.SteadyState.Requests == 0 || rep.SteadyState.RequestsSec <= 0 {
		t.Errorf("implausible steady state: %+v", rep.SteadyState)
	}
	if rep.SteadyState.DistinctHit < 2 {
		t.Errorf("zipf traffic hit only %d venues", rep.SteadyState.DistinctHit)
	}
	if rep.ColdLoad.Loads == 0 || rep.ColdLoad.LoadErrors != 0 || rep.ColdLoad.P99us <= 0 {
		t.Errorf("implausible cold-load record: %+v", rep.ColdLoad)
	}
	if rep.Memory.Evictions == 0 {
		t.Error("no evictions under a quarter-city budget; LRU not exercised")
	}
	if rep.Memory.ResidentEndBytes > rep.Memory.BudgetBytes {
		t.Errorf("resident %d bytes ended above the %d budget",
			rep.Memory.ResidentEndBytes, rep.Memory.BudgetBytes)
	}
}
