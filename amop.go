// Package amop prices American (and European) options with the fast
// FFT-based nonlinear-stencil algorithms of Ahmad, Browne, Chowdhury, Das,
// Huang and Zhu, "Fast American Option Pricing using Nonlinear Stencils"
// (PPoPP 2024), together with the complete ladder of classical baseline
// algorithms the paper benchmarks against.
//
// The headline algorithms run in O(T log^2 T) work and O(T) span for a
// T-step discretization, versus Theta(T^2) for every classical method:
//
//   - American calls under the binomial model (BOPM, Cox-Ross-Rubinstein);
//   - American calls under the trinomial model (TOPM, Boyle);
//   - American puts under the Black-Scholes-Merton model via an explicit
//     projected finite-difference scheme.
//
// Quick start:
//
//	opt := amop.Option{Type: amop.Call, S: 127.62, K: 130, R: 0.00163,
//		V: 0.2, Y: 0.0163, E: 1.0}
//	price, err := amop.PriceAmerican(opt, 10000)
//
// For control over the model and algorithm use Price with a Config. The
// generic stencil machinery itself (linear FFT stencils and free-boundary
// nonlinear stencils) is exposed in the stencil subpackage for applications
// beyond finance.
package amop

import (
	"context"
	"fmt"
	"math"

	"github.com/nlstencil/amop/internal/bopm"
	"github.com/nlstencil/amop/internal/bsm"
	"github.com/nlstencil/amop/internal/fbstencil"
	"github.com/nlstencil/amop/internal/lattice"
	"github.com/nlstencil/amop/internal/option"
	"github.com/nlstencil/amop/internal/topm"
)

// OptionType distinguishes calls from puts.
type OptionType int

const (
	// Call is the right to buy the underlying at the strike.
	Call OptionType = iota
	// Put is the right to sell the underlying at the strike.
	Put
)

// String returns "call" or "put".
func (t OptionType) String() string { return option.Kind(t).String() }

// Option describes an option contract and its market environment. Rates are
// annualized with continuous compounding; E is the time to expiry in years.
type Option struct {
	Type OptionType
	S    float64 // spot price of the underlying
	K    float64 // strike price
	R    float64 // risk-free rate
	V    float64 // volatility
	Y    float64 // continuous dividend yield
	E    float64 // time to expiry (years)
}

func (o Option) params() option.Params {
	return option.Params{S: o.S, K: o.K, R: o.R, V: o.V, Y: o.Y, E: o.E}
}

// Model selects the discretization.
type Model int

const (
	// Binomial is the Cox-Ross-Rubinstein binomial tree (paper Section 2).
	Binomial Model = iota
	// Trinomial is Boyle's trinomial tree (paper Section 3).
	Trinomial
	// BlackScholesFD is the explicit finite-difference discretization of
	// the Black-Scholes-Merton PDE (paper Section 4). American pricing is
	// supported for puts only under this model.
	BlackScholesFD
)

// String names the model as in the paper's legends.
func (m Model) String() string {
	switch m {
	case Binomial:
		return "bopm"
	case Trinomial:
		return "topm"
	case BlackScholesFD:
		return "bsm"
	}
	return fmt.Sprintf("model(%d)", int(m))
}

// Algorithm selects the pricing algorithm.
type Algorithm int

const (
	// Fast is the paper's FFT-based nonlinear-stencil algorithm:
	// O(T log^2 T) work, O(T) span.
	Fast Algorithm = iota
	// Naive is the standard serial nested loop (Figure 1), Theta(T^2).
	Naive
	// NaiveParallel is the row-parallel nested loop (the paper's ql-bopm /
	// vanilla baselines).
	NaiveParallel
	// Tiled is the cache-aware split-tiled loop (the paper's zb-bopm
	// baseline). Binomial and trinomial models only.
	Tiled
	// Recursive is the cache-oblivious recursive-tiling sweep (Table 2).
	// Binomial and trinomial models only.
	Recursive
	// Analytic is the spectral-collocation fast path (internal/analytic):
	// vanilla American options inside its validity envelope are priced from
	// a cached exercise-boundary solve in microseconds, cross-validated
	// against the lattice to 1e-6 relative; European requests get the
	// closed-form Black-Scholes-Merton value. The Model and Config.Steps are
	// ignored (there is no lattice), and contracts outside the envelope fail
	// rather than degrade — see TierMode for automatic routing with lattice
	// fallback.
	Analytic
)

// String names the algorithm.
func (a Algorithm) String() string {
	switch a {
	case Fast:
		return "fast"
	case Naive:
		return "naive"
	case NaiveParallel:
		return "naive-parallel"
	case Tiled:
		return "tiled"
	case Recursive:
		return "recursive"
	case Analytic:
		return "analytic"
	}
	return fmt.Sprintf("algorithm(%d)", int(a))
}

// Config controls Price.
type Config struct {
	// Steps is the number of time steps T (required, >= 1), except under
	// Algorithm Analytic, which has no lattice and ignores it.
	Steps     int
	Algorithm Algorithm // defaults to Fast
	European  bool      // drop the early-exercise right
}

// Price prices the option under the given model and configuration.
func Price(o Option, m Model, cfg Config) (float64, error) {
	return priceModel(o, m, cfg, nil, nil)
}

// PriceCtx is Price with a context: the Fast solvers poll ctx at trapezoid
// granularity and return ctx.Err() when it is done, so an expired deadline
// or a dropped client stops burning cores within one trapezoid of work. The
// Theta(T^2) baseline algorithms run to completion regardless — they exist
// for benchmarking, not serving.
func PriceCtx(ctx context.Context, o Option, m Model, cfg Config) (float64, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	return priceModel(o, m, cfg, ctxCancel(ctx), nil)
}

// priceModel is Price with an optional cancellation hook polled by the Fast
// solvers and an optional place for the Greeks a Fast solve reads off its top
// row; the batch engine passes both so that in-flight solves observe
// cancellation and a memoized point carries its delta, gamma and theta. A
// nil cancel never cancels; a nil ts reads no Greeks.
//
// Every price is floored at 0. The exact discrete value is a non-negative
// combination of non-negative payoffs, but far out of the money FFT
// roundoff leaves it up to ~1e-10 below zero, which the serving health gate
// would reject. A NaN or infinite price — a full-grid sweep at extreme
// volatility overflows the top leaves to +Inf, and the linear step carries
// them down to the apex — fails with an error wrapping
// fbstencil.ErrNonFinite, whatever the algorithm.
func priceModel(o Option, m Model, cfg Config, cancel func() error, ts *topSens) (float64, error) {
	v, err := solveModel(o, m, cfg, cancel, ts)
	if err == nil && (math.IsNaN(v) || math.IsInf(v, 0)) {
		return v, fmt.Errorf("amop: %v %v under %v: %w (price=%v)", cfg.Algorithm, o.Type, m, fbstencil.ErrNonFinite, v)
	}
	if v < 0 {
		v = 0
	}
	return v, err
}

// topSens is where a Fast solve leaves the delta, gamma and theta it reads
// off its top row; ok reports that it did.
type topSens struct {
	option.Sens
	ok bool
}

// solveTop runs solve, with a top row when ts asks for one and the model
// has it (hasTop), and reads ts's Greeks off that row with sens.
func solveTop(ts *topSens, hasTop bool, sens func([]float64, float64) option.Sens, solve func(top []float64) (float64, error)) (float64, error) {
	if ts == nil || !hasTop {
		return solve(nil)
	}
	var top [3]float64
	v, err := solve(top[:])
	if err == nil {
		ts.Sens, ts.ok = sens(top[:], v), true
	}
	return v, err
}

// solveModel routes one request to its model's solver; the Fast solvers
// also fill ts (see solveTop).
func solveModel(o Option, m Model, cfg Config, cancel func() error, ts *topSens) (float64, error) {
	if cfg.Algorithm == Analytic {
		// The analytic tier has no lattice: Model and Steps are irrelevant,
		// so the Steps >= 1 rule does not apply.
		return priceAnalytic(o, cfg)
	}
	if cfg.Steps < 1 {
		return 0, fmt.Errorf("amop: Config.Steps = %d must be >= 1", cfg.Steps)
	}
	kind := option.Kind(o.Type)
	switch m {
	case Binomial, Trinomial, BlackScholesFD:
		mdl, err := newGrid(m, o.params(), cfg.Steps)
		if err != nil {
			return 0, err
		}
		if m == BlackScholesFD {
			if err := bsmSupports(kind, cfg); err != nil {
				return 0, err
			}
		}
		if cfg.European {
			switch cfg.Algorithm {
			case Fast:
				return solveTop(ts, mdl.HasTop(), mdl.Sens, func(top []float64) (float64, error) {
					return mdl.EuropeanTop(kind, top), nil
				})
			case Naive, NaiveParallel:
				return mdl.PriceEuropeanNaive(kind), nil
			default:
				return 0, fmt.Errorf("amop: algorithm %v not available for European lattice pricing", cfg.Algorithm)
			}
		}
		// Fast calls and puts both run on the one-sided green-left engine of
		// the paper's BSM put: a call as the put of its swapped contract.
		switch cfg.Algorithm {
		case Fast:
			return solveTop(ts, mdl.HasTop(), mdl.Sens, func(top []float64) (float64, error) {
				return mdl.FastTop(kind, cancel, top)
			})
		case Naive:
			return mdl.PriceNaive(kind), nil
		case NaiveParallel:
			return mdl.PriceNaiveParallel(kind), nil
		case Tiled:
			return mdl.PriceTiled(kind, 0, 0), nil
		case Recursive:
			return mdl.PriceRecursive(kind), nil
		default:
			return 0, fmt.Errorf("amop: unknown algorithm %v", cfg.Algorithm)
		}
	default:
		return 0, fmt.Errorf("amop: unknown model %v", m)
	}
}

// newGrid builds model m of p at steps: a tree, or the BlackScholesFD put
// grid at bsm.DefaultLambda.
func newGrid(m Model, p option.Params, steps int) (*lattice.Model, error) {
	switch m {
	case Trinomial:
		return topm.New(p, steps)
	case BlackScholesFD:
		g, err := bsm.New(p, steps, bsm.DefaultLambda)
		if err != nil {
			return nil, err
		}
		return g.Model, nil
	}
	return bopm.New(p, steps)
}

// bsmSupports keeps the paper's Section 4 restrictions on the
// BlackScholesFD grid: it prices puts, by Fast, Naive or NaiveParallel.
// The grid's weights carry its discount, so the trees' call identities do
// not hold on it.
func bsmSupports(kind option.Kind, cfg Config) error {
	switch {
	case kind != option.Put && cfg.European:
		return fmt.Errorf("amop: the BlackScholesFD grid prices puts; use BlackScholes for European calls or a lattice model")
	case kind != option.Put:
		return fmt.Errorf("amop: American pricing under BlackScholesFD supports puts only (the paper's Section 4); use Binomial or Trinomial for calls")
	case cfg.Algorithm == Fast || cfg.Algorithm == Naive || cfg.Algorithm == NaiveParallel:
		return nil
	case cfg.European:
		return fmt.Errorf("amop: algorithm %v not available for European %v", cfg.Algorithm, BlackScholesFD)
	}
	return fmt.Errorf("amop: algorithm %v not available for model %v", cfg.Algorithm, BlackScholesFD)
}

// PriceAmerican prices an American option with the fast algorithm under the
// natural model for its type: binomial for calls (Section 2 of the paper),
// Black-Scholes-Merton finite differences for puts (Section 4). (Fast puts
// directly on the binomial lattice are also available through Price.)
func PriceAmerican(o Option, steps int) (float64, error) {
	m := Binomial
	if o.Type == Put {
		m = BlackScholesFD
	}
	return Price(o, m, Config{Steps: steps})
}

// PriceEuropean prices a European option on the binomial lattice with a
// single T-step FFT evolution, O(T log T).
func PriceEuropean(o Option, steps int) (float64, error) {
	return Price(o, Binomial, Config{Steps: steps, European: true})
}

// BlackScholes returns the closed-form European Black-Scholes-Merton value
// (with continuous dividend yield).
func BlackScholes(o Option) (float64, error) {
	p := o.params()
	if err := p.Validate(); err != nil {
		return 0, err
	}
	return option.BlackScholes(p, option.Kind(o.Type)), nil
}
