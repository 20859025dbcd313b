// Tier-aware dispatch: the analytic fast path and its routing.
//
// The lattice solvers price any contract the models admit, at O(T log^2 T)
// per price. For the bread-and-butter case — a vanilla American option with
// ordinary market parameters — the spectral-collocation pricer in
// internal/analytic answers the same question in tens of microseconds from a
// cached exercise-boundary solve, to an accuracy the lattice needs tens of
// thousands of steps to match. This file is the seam between the two: an
// Algorithm value that forces the analytic pricer, a TierMode that lets the
// batch engine and the live server promote eligible contracts to it
// automatically, per-tier counters registered for /metrics, and
// the XvalCheck primitive cmd/amop-xval builds its analytic-vs-lattice
// cross-validation on.
//
// The analytic tier only ever serves contracts inside its validity envelope
// (see internal/analytic.Eligible); everything else — Bermudan schedules,
// out-of-envelope parameters, requests that force a lattice algorithm —
// stays on the stencil lattice. Under TierAuto an ineligible contract falls
// back silently (counted in TierFallbacks); a forced Analytic request
// surfaces the envelope error instead, so a caller who insists on the fast
// path learns exactly why it refused.
package amop

import (
	"fmt"
	"math"

	"github.com/nlstencil/amop/internal/analytic"
	"github.com/nlstencil/amop/internal/obs"
	"github.com/nlstencil/amop/internal/option"
)

// TierMode selects how the batch engine, chain, and live server route
// requests between the analytic fast path and the stencil lattice.
type TierMode int

const (
	// TierLattice routes everything to the stencil lattice solvers. It is
	// the zero value: existing callers keep their exact behavior.
	TierLattice TierMode = iota
	// TierAuto promotes vanilla American contracts inside the analytic
	// validity envelope to the analytic pricer and leaves everything else —
	// European requests, forced lattice algorithms, out-of-envelope
	// parameters — on the lattice. Fallbacks are counted in TierFallbacks.
	TierAuto
	// TierAnalytic forces the analytic tier for every request: eligible
	// contracts are served analytically, ineligible ones fail with the
	// envelope error instead of falling back.
	TierAnalytic
)

// String names the tier as the CLI flags spell it.
func (m TierMode) String() string {
	switch m {
	case TierLattice:
		return "lattice"
	case TierAuto:
		return "auto"
	case TierAnalytic:
		return "analytic"
	}
	return fmt.Sprintf("tier(%d)", int(m))
}

// Per-tier serving counters, registered for /metrics.
var (
	analyticServes = obs.NewCounter("amop_tier_analytic_serves_total",
		"prices served by the analytic tier, forced or promoted by TierAuto")
	tierFallbacks = obs.NewCounter("amop_tier_fallbacks_total",
		"TierAuto candidates that fell back to the lattice")
	xvalChecks = obs.NewCounter("amop_tier_xval_checks_total",
		"analytic-vs-lattice cross-validation pairs priced through XvalCheck")
)

// TierStats returns the cumulative process-wide tier counters: analytic
// serves, auto-tier fallbacks to the lattice, and cross-validation checks.
func TierStats() (serves, fallbacks, checks int64) {
	return analyticServes.Load(), tierFallbacks.Load(), xvalChecks.Load()
}

// priceAnalytic serves one request from the analytic tier: the closed-form
// Black-Scholes-Merton value for European requests, the spectral-collocation
// American pricer otherwise. Steps is irrelevant here — there is no lattice —
// which is why forced-Analytic configs are exempt from the Steps >= 1 rule.
func priceAnalytic(o Option, cfg Config) (float64, error) {
	p := o.params()
	if cfg.European {
		if err := p.Validate(); err != nil {
			return 0, err
		}
		analyticServes.Add(1)
		return option.BlackScholes(p, option.Kind(o.Type)), nil
	}
	v, err := analytic.Price(p, option.Kind(o.Type))
	if err != nil {
		return 0, fmt.Errorf("amop: %w", err)
	}
	analyticServes.Add(1)
	return v, nil
}

// analyticEligible reports whether TierAuto may promote this request: a
// vanilla American contract, on the default algorithm (a request that forces
// Naive, Tiled, etc. is asking to run that lattice code, not for a number),
// inside the analytic validity envelope.
func analyticEligible(o Option, cfg Config) bool {
	if cfg.European || cfg.Algorithm != Fast {
		return false
	}
	return analytic.Eligible(o.params(), option.Kind(o.Type)) == nil
}

// GreeksAnalytic prices an American option and its full Greeks set from the
// analytic tier's single cached boundary solve — delta and gamma in closed
// form from the premium integrand, theta via the Black-Scholes PDE identity,
// vega and rho as re-solved bumps. It refuses contracts outside the validity
// envelope, exactly as Price with Algorithm Analytic does.
func GreeksAnalytic(o Option) (float64, Greeks, error) {
	v, g, err := analytic.PriceGreeks(o.params(), option.Kind(o.Type))
	if err != nil {
		return 0, Greeks{}, fmt.Errorf("amop: %w", err)
	}
	analyticServes.Add(1)
	return v, Greeks{Delta: g.Delta, Gamma: g.Gamma, Theta: g.Theta, Vega: g.Vega, Rho: g.Rho}, nil
}

// XvalPair is one analytic-vs-lattice cross-validation measurement.
type XvalPair struct {
	// Analytic is the analytic tier's price; Lattice is the fast stencil
	// price at the requested step count.
	Analytic float64
	Lattice  float64
	// RelErr is the symmetric relative disagreement
	// |a-l| / (1 + max(|a|, |l|)) — the metric the repo's cross-validation
	// uses throughout.
	RelErr float64
}

// XvalCheck prices the contract through both tiers — the analytic pricer and
// the fast lattice under the natural model at the given step count — and
// returns the pair. It is the primitive cmd/amop-xval's analytic gate and
// the CI xval job drive; every call counts in
// amop_tier_xval_checks_total.
// The error is the analytic tier's (envelope refusals included) or the
// lattice's, whichever failed.
func XvalCheck(o Option, steps int) (XvalPair, error) {
	xvalChecks.Add(1)
	a, err := priceAnalytic(o, Config{})
	if err != nil {
		return XvalPair{}, err
	}
	l, err := PriceAmerican(o, steps)
	if err != nil {
		return XvalPair{}, err
	}
	rel := math.Abs(a-l) / (1 + math.Max(math.Abs(a), math.Abs(l)))
	return XvalPair{Analytic: a, Lattice: l, RelErr: rel}, nil
}
