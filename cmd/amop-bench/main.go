// Command amop-bench regenerates the paper's tables and figures as text
// tables and CSV files.
//
// Usage:
//
//	amop-bench -experiment all                    # everything, default caps
//	amop-bench -experiment fig5a -maxT 524288     # one figure, bigger sweep
//	amop-bench -experiment fig7 -maxTraceT 16384  # deeper cache simulation
//	amop-bench -list
//
// Experiment IDs map one-to-one onto the paper: fig5a/fig5b/fig5c (running
// time), fig6 (energy), fig7 (cache misses), fig10 (energy by domain),
// table5 (scaling with p), table2 (work exponents), accuracy, ablation —
// plus batch, the chain-repricing workload of the batch engine;
// sweep-scenarios, the scenario-sweep engine against the naive per-scenario
// PriceBatch fan-out on a 45-contract x 25-scenario risk grid; analytic-tier,
// the spectral-collocation fast path against the lattice; and the live
// server's serve-load, serve-chaos and obs-overhead experiments (-list
// prints them all).
//
// Every run also writes a machine-readable BENCH_<experiment>.json record
// (override the path with -json, disable with -json -), so the repository's
// performance trajectory is tracked commit over commit.
package main

import (
	"flag"
	"fmt"
	"os"

	"github.com/nlstencil/amop/internal/harness"
)

func main() {
	var (
		experiment = flag.String("experiment", "all", "experiment ID or 'all'")
		maxT       = flag.Int("maxT", 1<<17, "largest T for fast-algorithm sweeps")
		maxQuadT   = flag.Int("maxQuadT", 1<<15, "largest T for quadratic baselines (wall clock)")
		maxTraceT  = flag.Int("maxTraceT", 1<<13, "largest T for traced (simulated) runs")
		outDir     = flag.String("out", "", "directory for CSV output (empty: stdout only)")
		jsonOut    = flag.String("json", "", "path for a machine-readable run record (empty: BENCH_<experiment>.json; '-' disables)")
		list       = flag.Bool("list", false, "list experiment IDs and exit")
	)
	flag.Parse()

	if *list {
		for _, e := range harness.Experiments() {
			fmt.Printf("%-20s %s\n", e.ID, e.Title)
		}
		return
	}
	jsonPath := *jsonOut
	switch jsonPath {
	case "":
		jsonPath = fmt.Sprintf("BENCH_%s.json", *experiment)
	case "-":
		jsonPath = ""
	}
	cfg := harness.Config{
		MaxT:      *maxT,
		MaxQuadT:  *maxQuadT,
		MaxTraceT: *maxTraceT,
		OutDir:    *outDir,
		JSONPath:  jsonPath,
	}
	if err := harness.RunByID(*experiment, cfg); err != nil {
		fmt.Fprintln(os.Stderr, "amop-bench:", err)
		os.Exit(1)
	}
}
