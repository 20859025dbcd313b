// Package option holds the option-contract parameter types shared by the
// three pricing models (BOPM, TOPM, BSM) and the closed-form Black-Scholes
// reference used for cross-validation.
package option

import (
	"fmt"
	"math"
)

// Kind distinguishes calls from puts.
type Kind int

const (
	// Call is the right to buy at the strike.
	Call Kind = iota
	// Put is the right to sell at the strike.
	Put
)

// String returns "call" or "put".
func (k Kind) String() string {
	if k == Put {
		return "put"
	}
	return "call"
}

// Params are the contract and market parameters of Table 1 of the paper.
// Rates are annualized and E is the time to expiry in years (the paper's
// E=252 trading days corresponds to E=1.0 here).
type Params struct {
	S float64 // spot price of the underlying
	K float64 // strike price
	R float64 // risk-free rate (annualized, continuous compounding)
	V float64 // volatility (annualized)
	Y float64 // continuous dividend yield (annualized)
	E float64 // time to expiry in years
}

// Default returns the paper's benchmark parameters (Section 5):
// E=252 days, K=130, S=127.62, R=0.00163, V=0.2, Y=0.0163.
func Default() Params {
	return Params{S: 127.62, K: 130, R: 0.00163, V: 0.2, Y: 0.0163, E: 1.0}
}

// Validate checks that the parameters define a well-posed pricing problem.
func (p Params) Validate() error {
	check := func(name string, v float64) error {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("option: %s = %v is not finite", name, v)
		}
		return nil
	}
	for _, f := range []struct {
		name string
		v    float64
	}{{"S", p.S}, {"K", p.K}, {"R", p.R}, {"V", p.V}, {"Y", p.Y}, {"E", p.E}} {
		if err := check(f.name, f.v); err != nil {
			return err
		}
	}
	if p.S <= 0 {
		return fmt.Errorf("option: spot price S = %v must be positive", p.S)
	}
	if p.K <= 0 {
		return fmt.Errorf("option: strike K = %v must be positive", p.K)
	}
	if p.V <= 0 {
		return fmt.Errorf("option: volatility V = %v must be positive", p.V)
	}
	if p.E <= 0 {
		return fmt.Errorf("option: time to expiry E = %v must be positive", p.E)
	}
	if p.R < 0 {
		return fmt.Errorf("option: negative risk-free rate R = %v is not supported", p.R)
	}
	if p.Y < 0 {
		return fmt.Errorf("option: negative dividend yield Y = %v is not supported", p.Y)
	}
	return nil
}

// Payoff returns the exercise payoff max(S-K, 0) or max(K-S, 0) at the given
// asset price.
func (p Params) Payoff(kind Kind, asset float64) float64 {
	if kind == Call {
		return math.Max(asset-p.K, 0)
	}
	return math.Max(p.K-asset, 0)
}

// normCDF is the standard normal cumulative distribution function.
func normCDF(x float64) float64 {
	return 0.5 * math.Erfc(-x/math.Sqrt2)
}

// BlackScholes returns the closed-form European option value under the
// Black-Scholes-Merton model with continuous dividend yield. It is the
// T -> infinity limit of the binomial and trinomial European prices and
// serves as the convergence oracle for those models.
func BlackScholes(p Params, kind Kind) float64 {
	sqrtE := math.Sqrt(p.E)
	d1 := (math.Log(p.S/p.K) + (p.R-p.Y+0.5*p.V*p.V)*p.E) / (p.V * sqrtE)
	d2 := d1 - p.V*sqrtE
	discS := p.S * math.Exp(-p.Y*p.E)
	discK := p.K * math.Exp(-p.R*p.E)
	if kind == Call {
		return discS*normCDF(d1) - discK*normCDF(d2)
	}
	return discK*normCDF(-d2) - discS*normCDF(-d1)
}

// Sens holds the sensitivities a pricer reads off the rows next to its
// apex: delta dV/dS, gamma d2V/dS2 and theta dV/dt (calendar time, per
// year).
type Sens struct {
	Delta, Gamma, Theta float64
}

// TopSens returns Hull's tree Greeks from a row of three values f at assets
// x (ascending, x[1] the spot) that lies dt after the apex value v: delta
// and gamma from the row's differences in the asset, theta from its middle
// cell against the apex.
func TopSens(x, f [3]float64, v, dt float64) Sens {
	lo := (f[1] - f[0]) / (x[1] - x[0])
	hi := (f[2] - f[1]) / (x[2] - x[1])
	return Sens{
		Delta: (f[2] - f[0]) / (x[2] - x[0]),
		Gamma: (hi - lo) / ((x[2] - x[0]) / 2),
		Theta: (f[1] - v) / dt,
	}
}
