// Command amop-xval cross-validates the pricing tiers against each other on
// randomized parameters: the fast FFT-based pricers against the direct
// Theta(T^2) sweeps (per lattice model), and the analytic spectral-collocation
// tier against the Richardson-extrapolated lattice (puts and calls, inside
// the analytic validity envelope). It is the standalone soak test behind the
// CI xval job.
//
// Every new per-model worst disagreement is streamed as one NDJSON line (to
// stdout, and to -report when set) as it is found, so a failing run leaves a
// machine-readable trail of offenders even if it is cut short. Each model has
// a failure budget (-budget, default 0): the run exits non-zero the moment
// any model exhausts its budget, rather than soaking on after the verdict is
// already in.
//
// Usage:
//
//	amop-xval -trials 200 -maxT 2000 -seed 7 -tol 1e-9 \
//	          -analytic-trials 40 -analytic-tol 1e-6 \
//	          -budget 0 -report xval-report.ndjson
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"

	"github.com/nlstencil/amop"
	"github.com/nlstencil/amop/internal/analytic"
	"github.com/nlstencil/amop/internal/bopm"
	"github.com/nlstencil/amop/internal/bsm"
	"github.com/nlstencil/amop/internal/option"
	"github.com/nlstencil/amop/internal/topm"
)

// line is one NDJSON report record: a new per-model worst disagreement.
type line struct {
	Model string `json:"model"`
	// Kind is "call" or "put" for the analytic pairs; empty for the
	// fast-vs-naive lattice pairs (those always price calls).
	Kind string  `json:"kind,omitempty"`
	T    int     `json:"T,omitempty"`
	Rel  float64 `json:"rel"`
	// Allowed is the acceptance threshold this pair was judged against: the
	// flat tolerance for lattice pairs, tolerance plus residual lattice
	// drift for analytic pairs.
	Allowed float64       `json:"allowed"`
	Fail    bool          `json:"fail"`
	Err     string        `json:"err,omitempty"` // a failed fast solve's error
	A       float64       `json:"a"`             // fast / analytic leg
	B       float64       `json:"b"`             // naive / extrapolated-lattice leg
	Params  option.Params `json:"params"`
}

// tracker accumulates per-model state: the worst disagreement seen and the
// failure count against the budget.
type tracker struct {
	out      io.Writer
	budget   int
	worst    map[string]line
	failures map[string]int
}

// record notes one cross-validation pair. A new per-model worst is streamed
// immediately as NDJSON. It returns false once the model's failure budget is
// exhausted — the caller must stop and exit non-zero.
func (t *tracker) record(l line) bool {
	l.Fail = l.Rel > l.Allowed
	if l.Rel > t.worst[l.Model].Rel {
		t.worst[l.Model] = l
		enc := json.NewEncoder(t.out)
		if err := enc.Encode(l); err != nil {
			fmt.Fprintln(os.Stderr, "amop-xval: writing report:", err)
		}
	}
	if l.Fail {
		t.failures[l.Model]++
		if t.failures[l.Model] > t.budget {
			fmt.Fprintf(os.Stderr, "amop-xval: model %s exhausted its failure budget (%d > %d): rel %.3e > allowed %.3e at T=%d params=%+v %s\n",
				l.Model, t.failures[l.Model], t.budget, l.Rel, l.Allowed, l.T, l.Params, l.Err)
			return false
		}
	}
	return true
}

func relErr(a, b float64) float64 {
	return math.Abs(a-b) / (1 + math.Max(math.Abs(a), math.Abs(b)))
}

func main() {
	var (
		trials   = flag.Int("trials", 100, "random parameter sets per lattice model")
		maxT     = flag.Int("maxT", 1500, "largest random step count for the lattice pairs")
		seed     = flag.Int64("seed", 1, "PRNG seed")
		tol      = flag.Float64("tol", 1e-9, "failure threshold on fast-vs-naive relative error")
		aTrials  = flag.Int("analytic-trials", 25, "random in-envelope contracts for the analytic-vs-lattice gate (0 disables)")
		aTol     = flag.Float64("analytic-tol", 1e-6, "failure threshold on analytic-vs-lattice relative disagreement (plus residual lattice drift)")
		budget   = flag.Int("budget", 0, "per-model failure budget; the run exits non-zero as soon as any model exceeds it")
		report   = flag.String("report", "", "also append NDJSON disagreement lines to this file (for CI artifacts)")
		exitFail = func() { os.Exit(1) }
	)
	flag.Parse()

	out := io.Writer(os.Stdout)
	if *report != "" {
		f, err := os.Create(*report)
		if err != nil {
			fmt.Fprintln(os.Stderr, "amop-xval:", err)
			exitFail()
		}
		defer f.Close()
		out = io.MultiWriter(os.Stdout, f)
	}
	trk := &tracker{out: out, budget: *budget, worst: map[string]line{}, failures: map[string]int{}}

	rng := rand.New(rand.NewSource(*seed))
	randParams := func() option.Params {
		return option.Params{
			S: 50 + 150*rng.Float64(),
			K: 50 + 150*rng.Float64(),
			R: 0.001 + 0.1*rng.Float64(),
			V: 0.08 + 0.5*rng.Float64(),
			Y: 0.12 * rng.Float64(),
			E: 0.1 + 2.4*rng.Float64(),
		}
	}
	randT := func() int { return 16 + rng.Intn(*maxT-15) }

	// lattice records one fast-vs-naive pair. A failed fast solve counts as
	// a failure whenever the direct sweep's price is finite.
	lattice := func(model string, T int, prm option.Params, fast func() (float64, error), naive func() float64) {
		a, err := fast()
		b := naive()
		l := line{Model: model, T: T, Rel: relErr(a, b), Allowed: *tol, A: a, B: b, Params: prm}
		if err != nil {
			if math.IsNaN(b) || math.IsInf(b, 0) {
				return
			}
			l.Rel, l.A, l.Err = math.MaxFloat64, 0, err.Error()
		}
		if !trk.record(l) {
			exitFail()
		}
	}
	for i := 0; i < *trials; i++ {
		prm, T := randParams(), randT()
		if m, err := bopm.New(prm, T); err == nil {
			lattice("bopm", T, prm, m.PriceFast, func() float64 { return m.PriceNaive(option.Call) })
		}
		prm, T = randParams(), randT()
		if m, err := topm.New(prm, T); err == nil {
			lattice("topm", T, prm, m.PriceFast, func() float64 { return m.PriceNaive(option.Call) })
		}
		prm, T = randParams(), randT()
		if m, err := bsm.New(prm, T, 0); err == nil {
			lattice("bsm", T, prm, m.PriceFast, func() float64 { return m.PriceNaive(option.Put) })
		}
	}

	// The analytic gate: in-envelope vanilla Americans, both kinds, against
	// the Richardson-extrapolated lattice. The lattice's own residual
	// uncertainty (drift) is folded into each pair's acceptance threshold —
	// the obstacle projection makes lattice convergence non-monotone, so a
	// flat tolerance would charge the analytic tier for lattice noise.
	for i := 0; i < *aTrials; i++ {
		prm := randParams()
		kind := option.Kind(i % 2)
		if analytic.Eligible(prm, kind) != nil {
			i-- // redraw: the gate only judges in-envelope contracts
			continue
		}
		o := amop.Option{Type: amop.OptionType(kind), S: prm.S, K: prm.K, R: prm.R, V: prm.V, Y: prm.Y, E: prm.E}
		l, err := analyticPair(o, *aTol)
		if err != nil {
			fmt.Fprintf(os.Stderr, "amop-xval: analytic pair %+v: %v\n", prm, err)
			exitFail()
		}
		l.Kind = kind.String()
		l.Params = prm
		if !trk.record(l) {
			exitFail()
		}
	}

	models := []string{"bopm", "topm", "bsm"}
	if *aTrials > 0 {
		models = append(models, "analytic")
	}
	failed := false
	for _, model := range models {
		w := trk.worst[model]
		status := "ok"
		if trk.failures[model] > 0 {
			status = "FAIL"
			failed = true
		}
		fmt.Printf("%-8s worst relative error %.3e (allowed %.3e)  [%s]\n", model, w.Rel, w.Allowed, status)
		if status == "FAIL" {
			fmt.Printf("         at T=%d params=%+v a=%.10g b=%.10g\n", w.T, w.Params, w.A, w.B)
		}
	}
	if failed {
		exitFail()
	}
}

// analyticPair prices one contract through amop.XvalCheck at doubling step
// counts and Richardson-extrapolates the lattice legs, rich(n) = 2 L(2n) -
// L(n), until the last two extrapolant increments both fall inside half the
// tolerance (a single small increment can be a coincidence of the obstacle
// projection's oscillation, not convergence). The returned line carries the
// analytic value, the extrapolated reference, and an acceptance threshold of
// tol (scaled) plus the residual drift.
func analyticPair(o amop.Option, tol float64) (line, error) {
	lat := make(map[int]float64)
	var analyticV float64
	leg := func(n int) (float64, error) {
		if v, ok := lat[n]; ok {
			return v, nil
		}
		pair, err := amop.XvalCheck(o, n)
		if err != nil {
			return 0, err
		}
		lat[n] = pair.Lattice
		analyticV = pair.Analytic
		return pair.Lattice, nil
	}
	rich := func(n int) (float64, error) {
		a, err := leg(n)
		if err != nil {
			return 0, err
		}
		b, err := leg(2 * n)
		if err != nil {
			return 0, err
		}
		return 2*b - a, nil
	}

	base, err := leg(500)
	if err != nil {
		return line{}, err
	}
	scale := 1 + math.Abs(base)
	r0, err := rich(1000)
	if err != nil {
		return line{}, err
	}
	r1, err := rich(2000)
	if err != nil {
		return line{}, err
	}
	var ref, drift float64
	for n := 4000; ; n *= 2 {
		ref, err = rich(n)
		if err != nil {
			return line{}, err
		}
		drift = math.Max(math.Abs(ref-r1), math.Abs(r1-r0))
		if drift <= 0.5*tol*scale || n >= 16000 {
			break
		}
		r0, r1 = r1, ref
	}
	d := math.Abs(analyticV - ref)
	relScale := 1 + math.Max(math.Abs(analyticV), math.Abs(ref))
	return line{
		Model:   "analytic",
		Rel:     d / relScale,
		Allowed: tol + drift/relScale,
		A:       analyticV,
		B:       ref,
	}, nil
}
