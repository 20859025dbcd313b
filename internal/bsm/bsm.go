// Package bsm builds the Black-Scholes-Merton American put grid of the
// paper's Section 4 as a lattice.Model, so that the put is priced by the
// trees' code: the fast solver ("fft-bsm"), the direct sweeps (the
// "vanilla-bsm" baseline), the European evolution and the Greeks.
//
// Nondimensionalization follows Section 4.2: with s = ln(x/K),
// tau = sigma^2 (T-t)/2 and vtilde = v/K, the American put satisfies the
// obstacle problem whose explicit discretization (Equation 5) is the
// centered 3-point nonlinear stencil
//
//	v[n+1][k] = max( b*v[n][k-1] + c*v[n][k] + a*v[n][k+1],  1 - e^(s_k) )
//
// with a = lam + (omega'-1)*dtau/(2*ds), b = lam - (omega'-1)*dtau/(2*ds),
// c = 1 - omega*dtau - 2*lam, lam = dtau/ds^2, omega = 2R/sigma^2 and
// omega' = 2(R-Y)/sigma^2 (the paper's omega, extended with a continuous
// dividend yield; Y=0 recovers Equation 5 exactly).
//
// The grid is T x (2T+1) as in the paper (Figure 4b): the initial (expiry)
// row spans 2T+1 nodes centered on s0 = ln(S/K), and the dependency cone
// narrows to the apex after T steps. Indexed by column minus depth, the
// centered stencil is one-sided with weights {b, c, a} on offsets 0..2: the
// shape of Boyle's trinomial tree, with one column of log spacing ds per net
// move. Multiplied through by K, the obstacle is K - S*e^((col+depth-T)*ds),
// the trees' put exercise value. Theorem 4.3 (monotone exercise boundary,
// which the fast solver relies on) requires a, b, c >= 0; New enforces it by
// construction and reports an error otherwise.
//
// The weights carry the discount and do not satisfy the trees' swap
// identity, so the grid prices puts only: Model's PriceFast is the put.
package bsm

import (
	"fmt"
	"math"

	"github.com/nlstencil/amop/internal/fbstencil"
	"github.com/nlstencil/amop/internal/lattice"
	"github.com/nlstencil/amop/internal/option"
)

// MaxSteps bounds T to keep grid allocations sane.
const MaxSteps = 1 << 21

// DefaultLambda is the default ratio dtau/ds^2. Stability and Theorem 4.3
// need c = 1 - omega*dtau - 2*lambda >= 0, so any lambda <= ~1/2 works for
// small dtau; 1/3 leaves comfortable margin.
const DefaultLambda = 1.0 / 3

// Model is the discretized BSM put: a span-2 lattice whose weights are
// {b, c, a}. Its other pricing methods are the lattice's, called with
// option.Put.
type Model struct{ *lattice.Model }

// New validates parameters and builds the discretization with ratio
// lambda = dtau/ds^2 (0 selects DefaultLambda).
func New(p option.Params, steps int, lambda float64) (*Model, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if steps < 1 {
		return nil, fmt.Errorf("bsm: steps = %d must be >= 1", steps)
	}
	if steps > MaxSteps {
		return nil, fmt.Errorf("bsm: steps = %d exceeds the supported maximum %d", steps, MaxSteps)
	}
	if lambda == 0 {
		lambda = DefaultLambda
	}
	if lambda <= 0 || lambda > 0.5 {
		return nil, fmt.Errorf("bsm: lambda = %v outside (0, 0.5]", lambda)
	}
	sigma := p.V
	omega := 2 * p.R / (sigma * sigma)
	omegaD := 2 * (p.R - p.Y) / (sigma * sigma)
	tauMax := sigma * sigma * p.E / 2
	dtau := tauMax / float64(steps)
	ds := math.Sqrt(dtau / lambda)
	drift := (omegaD - 1) * dtau / (2 * ds)
	a := lambda + drift
	b := lambda - drift
	c := 1 - omega*dtau - 2*lambda
	if a < 0 || b < 0 || c < 0 {
		return nil, fmt.Errorf("bsm: scheme coefficients (a=%v, b=%v, c=%v) must be non-negative for Theorem 4.3; decrease lambda or increase steps", a, b, c)
	}
	return &Model{lattice.New(p, steps, math.Exp(ds), ds, []float64{b, c, a})}, nil
}

// PriceFast prices the American put with the paper's FFT-based algorithm
// ("fft-bsm"): O(T log^2 T) work, O(T) span.
func (m *Model) PriceFast() (float64, error) { return m.PriceFastPut() }

// PriceFastStats is PriceFast with work-counter collection.
func (m *Model) PriceFastStats(st *fbstencil.Stats) (float64, error) {
	return m.PriceFastPutStats(st)
}
