// Package analytic prices vanilla American options by spectral collocation
// on the early-exercise boundary — the Andersen-Lake algorithm family — with
// no lattice at all: a QD+ approximation, or the cached boundary at the
// nearest vol, seeds the boundary, an FP-B fixed point refines it on
// Chebyshev nodes, and the early-exercise premium is recovered from Kim's
// integral representation with tanh-sinh quadrature.
// Calls are priced through McDonald-Schroder put-call symmetry, and Greeks
// come from the same boundary (delta/gamma by differentiating the premium
// integrand, theta via the Black-Scholes PDE identity, vega/rho by central
// bumps that re-price on the bumped contract's own boundary).
//
// The solve is strike-normalized, so an early-exercise boundary depends only
// on (r, q, sigma, T) and one cached solve serves every strike and spot of a
// chain at the same expiry; a whole price is a few microseconds against
// milliseconds for the lattice. The tier refuses contracts outside its
// validity envelope (Eligible) so callers can fall back to the lattice,
// which remains the accuracy reference: cmd/amop-xval cross-validates the
// two tiers on randomized grids in CI.
package analytic

import (
	"math"
	"time"

	"github.com/nlstencil/amop/internal/obs"
	"github.com/nlstencil/amop/internal/option"
)

// normalize maps the contract onto a strike-normalized American put: calls
// swap spot with strike and rate with yield (put-call symmetry), then both
// kinds divide through by the strike. The returned scale converts normalized
// values back to price units.
func normalize(p option.Params, kind option.Kind) (c contract, scale float64) {
	if kind == option.Call {
		c = contract{s: p.K, k: p.S, r: p.Y, q: p.R, sigma: p.V, T: p.E}
	} else {
		c = contract{s: p.S, k: p.K, r: p.R, q: p.Y, sigma: p.V, T: p.E}
	}
	scale = c.k
	c.s /= scale
	c.k = 1
	return c, scale
}

// Price returns the American option value, or an error when the contract is
// outside the analytic validity envelope. With telemetry enabled the solve is
// recorded into the tier-labelled latency histogram, split analytic_cold vs
// analytic_warm by whether the exercise-boundary solve hit its cache.
func Price(p option.Params, kind option.Kind) (float64, error) {
	if err := Eligible(p, kind); err != nil {
		return 0, err
	}
	c, scale := normalize(p, kind)
	if !obs.Enabled() {
		v, _ := putValue(&c)
		return scale * v, nil
	}
	start := time.Now()
	v, cold := putValue(&c)
	tier := "analytic_warm"
	if cold {
		tier = "analytic_cold"
	}
	obs.SolveLatency.With(tier).RecordSince(start)
	return scale * v, nil
}

// putValue prices the normalized American put. cold reports whether the
// exercise-boundary solve missed its cache (see boundaryFor). When a span
// trace is active the boundary solve and the premium quadrature are timed
// into their stages.
func putValue(c *contract) (v float64, cold bool) {
	if c.r == 0 {
		// With no interest to earn on the strike, early exercise is never
		// optimal and the American put collapses to the European.
		return c.europeanPut(c.s, c.T), false
	}
	tr := obs.Active()
	var stageStart time.Time
	if tr != nil {
		stageStart = time.Now()
	}
	var b *Boundary
	b, cold = boundaryFor(c)
	if tr != nil {
		tr.AddSince(obs.StageBoundarySolve, stageStart)
	}
	if c.s <= b.Value(c.T) {
		return c.k - c.s, cold // in the exercise region the value is intrinsic
	}
	if tr != nil {
		stageStart = time.Now()
	}
	v = c.europeanPut(c.s, c.T) + premium(c, b, c.s)
	if tr != nil {
		tr.AddSince(obs.StageQuadrature, stageStart)
	}
	if intr := c.k - c.s; v < intr {
		v = intr
	}
	return v, cold
}

// premium evaluates Kim's early-exercise premium at spot s against a frozen
// boundary b:
//
//	∫_0^T [ r K e^{-ru} Phi(-d-(u, s/B(T-u))) - q s e^{-qu} Phi(-d+(u, s/B(T-u))) ] du
//
// where u runs over calendar time from now, so the boundary is evaluated at
// remaining life T-u. b must be the boundary solved for c's own (r, q,
// sigma, T): the representation is not stationary in the boundary, so a
// boundary from other parameters biases the premium at first order.
func premium(c *contract, b *Boundary, s float64) float64 {
	rule := tanhSinh(tsStepPremium)
	halfT := 0.5 * c.T
	var sum float64
	for j := range rule.y {
		u := halfT * rule.op[j]
		rem := halfT * rule.om[j] // T - u, cancellation-free
		dp, dm := c.dpm(u, s/b.Value(rem))
		t := c.r * c.k * math.Exp(-c.r*u) * normCDF(-dm)
		if c.q != 0 {
			t -= c.q * s * math.Exp(-c.q*u) * normCDF(-dp)
		}
		sum += rule.w[j] * t
	}
	return sum * halfT
}
