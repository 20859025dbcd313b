// Command bench is the seeded end-to-end benchmark of the amop pricing
// stack. It runs one workload per process, measures it for a fixed time,
// checks the outputs against independent references, and prints one line
// per metric followed by a one-line JSON result:
//
//	bench -workload lattice-deep -seed 1 -seconds 10 -trace 0 [-json runs.ndjson]
//	bench -workload chain-lattice -seed 1 -trace 1
//	bench -compare base.ndjson head.ndjson
//
// With -trace 0 it reports the end-to-end metrics; with -trace 1 it runs
// the workload at p=1 with span tracing and reports the per-layer metrics.
// -json appends the run's full record to a file; -compare applies the
// regression rule to two such files. See README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"strings"

	"github.com/nlstencil/amop"
	"github.com/nlstencil/amop/internal/fft"
)

// workloads names every workload with the reason it is in the benchmark.
var workloads = []struct{ name, why string }{
	{"lattice-deep", "one fast lattice solve per op at T=65536, cycling BOPM call, TOPM call, BSM put: fft, linstencil and fbstencil do the work"},
	{"chain-lattice", "call+put chains with Greeks and IV on the lattice at T=4000: batch engine, memo and spectrum cache under many medium solves"},
	{"chain-analytic", "the same surfaces under TierAuto: the analytic tier does the work and the lattice layers do none"},
	{"sweep-grid", "45 contracts x 25 scenarios at T=2000 on a new market each op: spectrum-cache builds, plan dedup, cross-resolution symbols"},
	{"serve-replay", "open-loop ticks and quotes against a live Server on TierAuto with lattice fallbacks: quantizer, coalescer, serving path"},
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var c config
	var traceFlag int
	var jsonPath string
	var cmp bool
	fs.StringVar(&c.workload, "workload", "", "workload to run: "+workloadNames())
	fs.Int64Var(&c.seed, "seed", 1, "seed every input is generated from")
	fs.Float64Var(&c.seconds, "seconds", 10, "how long the end-to-end run measures")
	fs.IntVar(&traceFlag, "trace", 0, "1 runs the traced per-layer pass instead of the end-to-end run")
	fs.StringVar(&jsonPath, "json", "", "append this run's full record, one JSON line, to this file")
	fs.BoolVar(&cmp, "compare", false, "compare two record files: -compare BASE HEAD")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if cmp {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare needs two record files")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if fs.NArg() != 0 || (traceFlag != 0 && traceFlag != 1) || c.seconds <= 0 {
		fmt.Fprintln(stderr, "bench: bad arguments; see -h")
		return 2
	}
	c.trace = traceFlag == 1
	out, err := runWorkload(c)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %s: %v\n", c.workload, err)
		return 2
	}
	rec := newRecord(c, out)
	for _, v := range rec.Metrics {
		fmt.Fprintf(stdout, "workload=%s metric=%s value=%.6g unit=%s n=%d\n", c.workload, v.Name, v.Value, v.Unit, v.N)
	}
	for _, p := range rec.Problems {
		fmt.Fprintf(stderr, "bench: %s: check failed: %s\n", c.workload, p)
	}
	if !rec.Machine.Valid {
		fmt.Fprintf(stderr, "bench: run marked invalid: %s\n", rec.Machine.Invalid)
	}
	if jsonPath != "" {
		if err := appendRecord(jsonPath, rec); err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 2
		}
	}
	line, err := json.Marshal(rec.result())
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 2
	}
	fmt.Fprintln(stdout, string(line))
	if !rec.Correct {
		return 1
	}
	return 0
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

func runWorkload(c config) (*outcome, error) {
	out := &outcome{}
	var err error
	switch c.workload {
	case "lattice-deep":
		err = runClosed(c, newLatticeDeep(c), out)
	case "chain-lattice":
		err = runClosed(c, newChainSurface(c, amop.TierLattice), out)
	case "chain-analytic":
		err = runClosed(c, newChainSurface(c, amop.TierAuto), out)
	case "sweep-grid":
		err = runClosed(c, newSweepGrid(c), out)
	case "serve-replay":
		err = newServeReplay(c).run(out)
	default:
		return nil, fmt.Errorf("unknown workload %q (have %s)", c.workload, workloadNames())
	}
	if err != nil {
		return nil, err
	}
	for i, v := range out.metrics.vals {
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			out.problem("metric %s is %v", v.Name, v.Value)
			out.metrics.vals[i].Value = 0
		}
	}
	return out, nil
}

// machine identifies what a record was measured on. -compare refuses to
// compare records whose kernel, GOAMD64 or CPU count differ.
type machine struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Uname      string `json:"uname_r"`
	GOAMD64    string `json:"goamd64"`
	FFTKernel  string `json:"fft_kernel"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	Valid      bool   `json:"valid"`
	Invalid    string `json:"invalid,omitempty"`
}

func readMachine() machine {
	m := machine{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Uname:      kernelRelease(),
		FFTKernel:  fft.KernelName(),
		GoVersion:  runtime.Version(),
		Commit:     "unknown",
		Valid:      true,
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		dirty := false
		for _, s := range bi.Settings {
			switch s.Key {
			case "GOAMD64":
				m.GOAMD64 = s.Value
			case "vcs.revision":
				m.Commit = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
		if dirty {
			m.Commit += "-dirty"
		}
	}
	if m.GOMAXPROCS > m.NProc {
		m.Valid = false
		m.Invalid = fmt.Sprintf("GOMAXPROCS=%d exceeds nproc=%d", m.GOMAXPROCS, m.NProc)
	}
	return m
}

// record is one run's full result, the unit -json appends and -compare reads.
type record struct {
	Workload  string   `json:"workload"`
	Seed      int64    `json:"seed"`
	Seconds   float64  `json:"seconds"`
	Trace     bool     `json:"trace"`
	Machine   machine  `json:"machine"`
	Correct   bool     `json:"correct"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Problems  []string `json:"problems,omitempty"`
	Metrics   []value  `json:"metrics"`
}

func newRecord(c config, out *outcome) record {
	return record{
		Workload: c.workload, Seed: c.seed, Seconds: c.seconds, Trace: c.trace,
		Machine: readMachine(), Correct: out.correct(),
		Attempted: out.attempted, Failed: out.failed, Problems: out.problems,
		Metrics: out.metrics.vals,
	}
}

type resultMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final output line: end-to-end metrics for the end-to-end
// run, per-layer metrics for the traced run.
func (r record) result() any {
	defs := endToEnd
	if r.Trace {
		defs = perLayer
	}
	ms := map[string]resultMetric{}
	for _, d := range defs {
		for _, v := range r.Metrics {
			if v.Name == d.name {
				ms[v.Name] = resultMetric{v.Value, v.Unit}
			}
		}
	}
	return struct {
		Correct   bool                    `json:"correct"`
		Attempted int                     `json:"attempted"`
		Failed    int                     `json:"failed"`
		Metrics   map[string]resultMetric `json:"metrics"`
	}{r.Correct, max(r.Attempted, 1), r.Failed, ms}
}

func appendRecord(path string, rec record) (err error) {
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	defer func() { err = errors.Join(err, f.Close()) }()
	_, err = f.Write(append(line, '\n'))
	return err
}
