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

	"github.com/nlstencil/amop/internal/fbstencil"
	"github.com/nlstencil/amop/internal/option"
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
	// TileW and TileH configure the Tiled algorithm; zero selects
	// L1-cache-sized defaults.
	TileW, TileH int
	// Lambda is the FD ratio dtau/ds^2 for BlackScholesFD; zero selects
	// the default 1/3.
	Lambda float64
	// BaseCase overrides the fast solver's recursion cutoff (ablations);
	// zero selects the paper's tuned default.
	BaseCase int
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
	return priceModel(o, m, cfg, nil, ctx.Err)
}

// priceModel is Price with an optional cache of constructed lattice models
// and an optional cancellation hook polled by the Fast solvers; the batch
// engine passes both so that requests sharing lattice parameters reuse a
// single model instance and in-flight solves observe cancellation. A nil
// cache constructs models directly; a nil cancel never cancels.
//
// Every price is floored at 0. The exact discrete value is a non-negative
// combination of non-negative payoffs, but far out of the money FFT
// roundoff leaves it up to ~1e-10 below zero, which the serving health gate
// would reject. A NaN or infinite price — a full-grid sweep at extreme
// volatility overflows the top leaves to +Inf, and the linear step carries
// them down to the apex — fails with an error wrapping
// fbstencil.ErrNonFinite, whatever the algorithm.
func priceModel(o Option, m Model, cfg Config, cache *modelCache, cancel func() error) (float64, error) {
	v, err := solveModel(o, m, cfg, cache, cancel)
	if err == nil && (math.IsNaN(v) || math.IsInf(v, 0)) {
		return v, fmt.Errorf("amop: %v %v under %v: %w (price=%v)", cfg.Algorithm, o.Type, m, fbstencil.ErrNonFinite, v)
	}
	if v < 0 {
		v = 0
	}
	return v, err
}

// solveModel routes one request to its model's solver.
func solveModel(o Option, m Model, cfg Config, cache *modelCache, cancel func() error) (float64, error) {
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
	case Binomial, Trinomial:
		mdl, err := cache.lattice(m, o.params(), cfg)
		if err != nil {
			return 0, err
		}
		if cfg.European {
			switch cfg.Algorithm {
			case Fast:
				return mdl.PriceEuropean(kind), nil
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
			if kind == option.Put {
				return mdl.PriceFastPutCancel(cancel)
			}
			return mdl.PriceFastCancel(cancel)
		case Naive:
			return mdl.PriceNaive(kind), nil
		case NaiveParallel:
			return mdl.PriceNaiveParallel(kind), nil
		case Tiled:
			return mdl.PriceTiled(kind, cfg.TileW, cfg.TileH), nil
		case Recursive:
			return mdl.PriceRecursive(kind), nil
		default:
			return 0, fmt.Errorf("amop: unknown algorithm %v", cfg.Algorithm)
		}
	case BlackScholesFD:
		mdl, err := cache.bsm(o.params(), cfg)
		if err != nil {
			return 0, err
		}
		if cfg.European {
			if kind != option.Put {
				return 0, fmt.Errorf("amop: the BlackScholesFD grid prices puts; use BlackScholes for European calls or a lattice model")
			}
			switch cfg.Algorithm {
			case Fast:
				return mdl.PriceEuropean(), nil
			case Naive, NaiveParallel:
				return mdl.PriceEuropeanNaive(), nil
			default:
				return 0, fmt.Errorf("amop: algorithm %v not available for European %v", cfg.Algorithm, m)
			}
		}
		if kind != option.Put {
			return 0, fmt.Errorf("amop: American pricing under BlackScholesFD supports puts only (the paper's Section 4); use Binomial or Trinomial for calls")
		}
		switch cfg.Algorithm {
		case Fast:
			return mdl.PriceFastCancel(cancel)
		case Naive:
			return mdl.PriceNaive(), nil
		case NaiveParallel:
			return mdl.PriceNaiveParallel(), nil
		default:
			return 0, fmt.Errorf("amop: algorithm %v not available for model %v", cfg.Algorithm, m)
		}
	default:
		return 0, fmt.Errorf("amop: unknown model %v", m)
	}
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
