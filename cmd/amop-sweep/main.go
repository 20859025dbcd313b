// Command amop-sweep reprices a portfolio under a grid of market scenarios
// through the scenario-sweep engine, streaming one NDJSON line per
// (contract, scenario) cell as it completes. It is the risk-ladder entry
// point: feed it the desk's book and bump grid and it amortizes the shared
// structure — deduplicated repricing points, reduced-resolution scenario
// lattices control-variated against the full-resolution base, and the
// shared FFT kernel-spectrum cache underneath.
//
// Usage:
//
//	amop-sweep -in sweep.json            # spec file
//	cat sweep.json | amop-sweep          # read stdin
//	amop-sweep -in sweep.json -greeks    # add per-scenario Greeks
//
// The input is one JSON object:
//
//	{
//	  "contracts": [
//	    {"type": "call", "S": 127.62, "K": 130, "R": 0.00163, "V": 0.2,
//	     "Y": 0.0163, "E": 1.0, "steps": 10000}
//	  ],
//	  "grid": {
//	    "spot_bumps": [-0.05, 0, 0.05],
//	    "vol_bumps":  [-0.02, 0, 0.02],
//	    "rate_bumps": [0],
//	    "stress": [{"name": "crash", "spot": -0.3, "vol": 0.15}]
//	  },
//	  "scenarios":      [{"name": "vol-up", "vol": 0.05}],
//	  "steps":          10000,
//	  "scenario_steps": 0
//	}
//
// A non-empty "grid" expands to the cartesian product of its bump axes plus
// its stress list, with "scenarios" appended after it; a spec with only
// "scenarios" sweeps exactly those (the output's scenario indices match the
// list), and a spec with neither sweeps the single base scenario. Contract
// fields steps/model/algorithm/european are optional; "steps" sets the
// default resolution and "scenario_steps" is passed through to the engine
// (0: half resolution with control-variate correction; negative: full
// resolution). Output is NDJSON in completion order:
//
//	{"contract":0,"scenario":3,"name":"spot+5%","price":7.51,"pnl":0.62,"ms":1.3}
//
// followed by one {"base":...} line per contract. price/pnl are meaningful
// only on lines without "error"; "ms" is the spacing since the previous
// streamed line. A summary with the dedup factor and the number of
// kernel spectra the sweep built goes to stderr.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
	"time"

	"github.com/nlstencil/amop"
	"github.com/nlstencil/amop/internal/cliutil"
)

// out buffers the NDJSON stream. Buffering makes the per-cell Encode calls
// cheap, but it means every exit path — including early failures — must
// flush, or the tail of the stream is silently truncated; fail() and main's
// exits all route through flushOut.
var out = bufio.NewWriter(os.Stdout)

func flushOut() {
	if err := out.Flush(); err != nil {
		fmt.Fprintln(os.Stderr, "amop-sweep: flushing output:", err)
	}
}

// spec is the JSON input document. Contract rows are the shared CLI format
// (internal/cliutil), so the sweep accepts exactly the rows amop-chain does.
type spec struct {
	Contracts     []cliutil.Contract `json:"contracts"`
	Grid          amop.ScenarioGrid  `json:"grid"`
	Scenarios     []amop.Scenario    `json:"scenarios"`
	Steps         int                `json:"steps"`
	ScenarioSteps int                `json:"scenario_steps"`
	Greeks        bool               `json:"greeks"`
}

// cellLine is one NDJSON output record. price and pnl are meaningful only
// when error is absent; ms is the stream spacing — milliseconds since the
// previous streamed line, not the cell's own pricing time (cells complete
// concurrently), matching amop-chain's field.
type cellLine struct {
	Contract int          `json:"contract"`
	Scenario int          `json:"scenario"`
	Name     string       `json:"name"`
	Price    float64      `json:"price"`
	PnL      float64      `json:"pnl"`
	Greeks   *amop.Greeks `json:"greeks,omitempty"`
	Error    string       `json:"error,omitempty"`
	Ms       float64      `json:"ms"`
}

// baseLine reports one contract's full-resolution base price (meaningful
// only when error is absent).
type baseLine struct {
	Base  int     `json:"base"`
	Price float64 `json:"price"`
	Error string  `json:"error,omitempty"`
}

func main() {
	var (
		in        = flag.String("in", "-", "sweep spec file (JSON); '-' reads stdin")
		workers   = flag.Int("workers", 0, "worker pool bound (0: one per core)")
		scenSteps = flag.Int("scenario-steps", 0, "override the spec's scenario_steps (0: keep spec value)")
		greeks    = flag.Bool("greeks", false, "compute per-scenario Greeks (or set \"greeks\" in the spec)")
		quiet     = flag.Bool("q", false, "suppress the stderr summary line")
	)
	flag.Parse()

	sp, err := readSpec(*in)
	if err != nil {
		fail(err)
	}
	if len(sp.Contracts) == 0 {
		fail(fmt.Errorf("no contracts in %s", *in))
	}
	// A non-empty grid expands first, then the explicit scenarios append. A
	// spec carrying only explicit scenarios gets exactly those (no injected
	// base point — indices in the output match the spec's list), and a spec
	// with neither still expands to the single base scenario so the sweep
	// never silently prices nothing.
	scenarios := sp.Scenarios
	if !sp.Grid.IsEmpty() || len(scenarios) == 0 {
		scenarios = append(sp.Grid.Scenarios(), sp.Scenarios...)
	}

	defaultSteps := sp.Steps
	if defaultSteps == 0 {
		defaultSteps = 10_000
	}
	reqs := make([]amop.Request, len(sp.Contracts))
	for i, c := range sp.Contracts {
		req, err := c.Request(defaultSteps)
		if err != nil {
			fail(fmt.Errorf("contract %d: %w", i, err))
		}
		reqs[i] = req
	}

	opts := amop.SweepOptions{
		Workers:       *workers,
		ScenarioSteps: sp.ScenarioSteps,
		Greeks:        sp.Greeks || *greeks,
	}
	if *scenSteps != 0 {
		opts.ScenarioSteps = *scenSteps
	}

	enc := json.NewEncoder(out)
	var encErr error
	emit := func(v any) {
		// OnResult deliveries are serialized by the engine, and the base
		// lines are written after the sweep returns, so encErr needs no
		// lock. The first write error stops the stream; it is reported
		// after the (already paid-for) sweep completes.
		if encErr == nil {
			encErr = enc.Encode(v)
		}
	}
	before := amop.ReadPerfCounters()
	start := time.Now()
	last := start
	opts.OnResult = func(c, s int, r amop.ScenarioResult) {
		now := time.Now()
		line := cellLine{
			Contract: c, Scenario: s, Name: scenarios[s].Label(),
			Ms: float64(now.Sub(last).Microseconds()) / 1e3,
		}
		last = now
		if r.Err != nil {
			line.Error = r.Err.Error()
		} else {
			line.Price, line.PnL = r.Price, r.PnL
			if opts.Greeks {
				g := r.Greeks
				line.Greeks = &g
			}
		}
		emit(line)
	}
	// ^C cancels the sweep at trapezoid granularity instead of killing the
	// process: cells already solved have streamed, unsolved cells report the
	// cancellation per item, and the summary still flushes.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	sw := amop.ScenarioSweepCtx(ctx, reqs, scenarios, opts)
	elapsed := time.Since(start)
	after := amop.ReadPerfCounters()

	failed := 0
	for c, b := range sw.Base {
		line := baseLine{Base: c}
		if b.Err != nil {
			line.Error = b.Err.Error()
		} else {
			line.Price = b.Price
		}
		emit(line)
	}
	for _, r := range sw.Results {
		if r.Err != nil {
			failed++
		}
	}
	for _, b := range sw.Base {
		if b.Err != nil {
			failed++
		}
	}

	flushOut()
	if encErr != nil {
		fmt.Fprintln(os.Stderr, "amop-sweep: writing output:", encErr)
		os.Exit(1)
	}
	if !*quiet {
		fmt.Fprintf(os.Stderr,
			"amop-sweep: %d contracts x %d scenarios = %d cells in %v (%d failed); %d unique repricings (%.1fx dedup), %d kernel spectra built\n",
			len(reqs), len(scenarios), sw.Stats.Cells, elapsed.Round(time.Millisecond), failed,
			sw.Stats.UniqueRepricings,
			float64(sw.Stats.Cells+len(reqs))/float64(max(sw.Stats.UniqueRepricings, 1)),
			after.SpectrumCacheMisses-before.SpectrumCacheMisses)
	}
	if failed > 0 {
		os.Exit(1)
	}
}

func readSpec(path string) (spec, error) {
	var sp spec
	var r io.Reader = os.Stdin
	if path != "-" {
		f, err := os.Open(path)
		if err != nil {
			return sp, err
		}
		defer f.Close()
		r = f
	}
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&sp); err != nil {
		return sp, fmt.Errorf("parsing sweep spec: %w", err)
	}
	return sp, nil
}

// fail flushes whatever portion of the stream was already produced before
// exiting: a consumer of partial output sees every completed line plus the
// error on stderr, never a silently truncated stream.
func fail(err error) {
	flushOut()
	fmt.Fprintln(os.Stderr, "amop-sweep:", err)
	os.Exit(1)
}
