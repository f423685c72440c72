// Command perfbench is the repository's benchmark. It generates seeded
// inputs, serves them through the locserved multi-venue stack
// (server.NewMultiVenue over a venue.Registry, in this process, over
// loopback HTTP), drives one workload, checks every answer, and prints
// the metrics. The last line of its output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1
// the run replays the workload's inputs through each layer's public
// calls and reports the per-layer ones, after printing the layer
// table. Run it from the repository root:
//
//	bash perfbench/run.sh --workload campus-locate --seed 1 --seconds 15 --trace 0
//
// See perfbench/README.md for the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"sort"
)

var workloads = []string{"house-locate", "campus-locate", "floor-train", "city-zipf"}

func main() {
	var (
		workload = flag.String("workload", "", "one of: house-locate, campus-locate, floor-train, city-zipf")
		seed     = flag.Int64("seed", 1, "input seed")
		seconds  = flag.Float64("seconds", 15, "measured seconds")
		trace    = flag.Int("trace", 0, "1 = traced run printing the per-layer metrics")
		work     = flag.String("work", ".bench_build", "directory for cached inputs and run state")
		gen      = flag.Bool("gen", false, "generate the inputs and exit (the measuring process runs this as a child)")
	)
	flag.Parse()
	if !validWorkload(*workload) || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need --workload (house-locate|campus-locate|floor-train|city-zipf), --seconds > 0, --trace 0|1")
		os.Exit(2)
	}
	if *gen {
		if err := generate(*work, *workload, fullSizes, *seed); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: generate:", err)
			os.Exit(1)
		}
		return
	}
	cfg := runConfig{
		workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1,
		work: *work, sz: fullSizes, gen: childGenerate,
	}
	res, err := run(cfg, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := printResult(res); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if !res.Correct {
		os.Exit(1)
	}
}

func validWorkload(w string) bool {
	for _, n := range workloads {
		if n == w {
			return true
		}
	}
	return false
}

// childGenerate runs the generator in a child process of this binary,
// so generation garbage and the reference databases stay off the
// measured heap and out of rss_peak_mb.
func childGenerate(work, workload string, _ sizes, seed int64) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	cmd := exec.Command(exe, "-gen", "-work", work, "-workload", workload, "-seed", fmt.Sprint(seed))
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("generator: %w", err)
	}
	return nil
}

// result is the final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func printResult(res *result) error {
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Printf("%s\n", b)
	return err
}

// sortedKeys lists a metric map's names in order, for the tables.
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
