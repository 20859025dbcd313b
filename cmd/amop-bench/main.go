// Command amop-bench regenerates the paper's tables and figures as text
// tables and, with -json FILE, one machine-readable record.
//
// Usage:
//
//	amop-bench -experiment all                    # everything, default caps
//	amop-bench -experiment fig5a -maxT 524288     # one figure, bigger sweep
//	amop-bench -experiment fig5a,table2 -json r.json  # two, one record
//	amop-bench -experiment fig7 -maxTraceT 16384  # deeper cache simulation
//	amop-bench -list
//
// Experiment IDs map one-to-one onto the paper: fig5a/fig5b/fig5c (running
// time), fig6 (energy), fig7 (cache misses), fig10 (energy by domain),
// table5 (scaling with p), table2 (work exponents), accuracy, ablation —
// plus serve-chaos, the live server's availability under injected faults
// (-list prints them all). Each timed point is the median of five
// half-second testing.Benchmark runs; the record gives its IQR and sample count, and
// names the machine and, for a binary made by go build, the commit.
// `make paper` regenerates the committed records, BENCH_paper.json and
// BENCH_chaos.json. Performance of the library as a whole is measured by the
// seeded benchmark in bench/, not here.
package main

import (
	"flag"
	"fmt"
	"os"
	"testing"

	"github.com/nlstencil/amop/internal/harness"
)

func main() {
	var (
		experiment = flag.String("experiment", "all", "experiment ID, comma-separated IDs, or 'all'")
		maxT       = flag.Int("maxT", 1<<17, "largest T for fast-algorithm sweeps")
		maxQuadT   = flag.Int("maxQuadT", 1<<15, "largest T for quadratic baselines (wall clock)")
		maxTraceT  = flag.Int("maxTraceT", 1<<13, "largest T for traced (simulated) runs")
		jsonPath   = flag.String("json", "", "path for a machine-readable run record (empty: none)")
		list       = flag.Bool("list", false, "list experiment IDs and exit")
	)
	flag.Parse()
	// A testing.Benchmark sample runs for -test.benchtime (testing.Init's
	// flag, set here after Parse, so no option): half the default second.
	testing.Init()
	if err := flag.Set("test.benchtime", "500ms"); err != nil {
		panic(err)
	}

	if *list {
		for _, e := range harness.Experiments() {
			fmt.Printf("%-20s %s\n", e.ID, e.Title)
		}
		return
	}
	cfg := harness.Config{
		MaxT:      *maxT,
		MaxQuadT:  *maxQuadT,
		MaxTraceT: *maxTraceT,
		JSONPath:  *jsonPath,
	}
	if err := harness.RunByID(*experiment, cfg); err != nil {
		fmt.Fprintln(os.Stderr, "amop-bench:", err)
		os.Exit(1)
	}
}
