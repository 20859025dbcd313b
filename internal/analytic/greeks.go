package analytic

import (
	"math"

	"github.com/nlstencil/amop/internal/option"
)

// Greeks are the first- and second-order sensitivities of the analytic
// price, matching the root package's conventions: Theta is the calendar
// derivative dV/dt (= -dV/dE), Vega and Rho are per unit of vol and rate.
type Greeks struct {
	Delta float64
	Gamma float64
	Theta float64
	Vega  float64
	Rho   float64
}

// Bump widths for the vega/rho central differences. The bumps re-solve the
// exercise boundary: Kim's representation is not stationary in the boundary,
// so freezing it would bias vega and rho by several percent. Bumped solves
// hit the boundary cache on repeated Greeks calls over a chain, so the
// steady-state cost is two extra premium quadratures per sensitivity.
const (
	bumpVol  = 1e-4
	bumpRate = 1e-5
)

// PriceGreeks returns the American option value and its Greeks from one
// boundary solve, or an error when the contract is outside the envelope.
func PriceGreeks(p option.Params, kind option.Kind) (float64, Greeks, error) {
	if err := Eligible(p, kind); err != nil {
		return 0, Greeks{}, err
	}
	c, scale := normalize(p, kind)
	// For calls the normalized contract is the symmetric put, whose
	// dividend yield is the call's rate: Rho must bump q, not r.
	v, g := denormalize(p, kind, scale, putGreeks(&c, kind == option.Call, true))
	return v, g, nil
}

// SpotGreeks returns delta, gamma and theta alone: PriceGreeks without the
// vega and rho bumps, one premium quadrature on the cached boundary. With
// european set it returns the closed-form Black-Scholes-Merton values
// instead, for any valid contract.
func SpotGreeks(p option.Params, kind option.Kind, european bool) (option.Sens, error) {
	var g normGreeks
	c, scale := normalize(p, kind)
	if european {
		if err := p.Validate(); err != nil {
			return option.Sens{}, err
		}
		g = europeanPutGreeks(&c, false)
	} else {
		if err := Eligible(p, kind); err != nil {
			return option.Sens{}, err
		}
		g = putGreeks(&c, false, false)
	}
	_, s := denormalize(p, kind, scale, g)
	return option.Sens{Delta: s.Delta, Gamma: s.Gamma, Theta: s.Theta}, nil
}

// denormalize converts the normalized put's value and Greeks into the
// contract's own.
func denormalize(p option.Params, kind option.Kind, scale float64, g normGreeks) (float64, Greeks) {
	if kind == option.Put {
		return scale * g.v, Greeks{
			Delta: g.delta,
			Gamma: g.gamma / scale,
			Theta: scale * g.theta,
			Vega:  scale * g.vega,
			Rho:   scale * g.rate,
		}
	}
	// C(S, K) = P(K, S) is homogeneous of degree one in (spot, strike), so
	// Euler's relation converts the symmetric put's spot-delta into the
	// call's: Delta_C = (C - K Delta_P)/S, and degree -1 homogeneity of the
	// second derivatives gives Gamma_C = K^2 Gamma_P / S^2. Theta, vega and
	// the rate sensitivity carry over unchanged (same clock, same vol, and
	// the call's rate is the symmetric put's yield).
	price := scale * g.v
	gammaSym := g.gamma / scale
	return price, Greeks{
		Delta: (price - p.K*g.delta) / p.S,
		Gamma: p.K * p.K * gammaSym / (p.S * p.S),
		Theta: scale * g.theta,
		Vega:  scale * g.vega,
		Rho:   scale * g.rate,
	}
}

// normGreeks are sensitivities of the normalized put; rate is dV/dr, or
// dV/dq when bumpQ was requested (the call path).
type normGreeks struct {
	v, delta, gamma, theta, vega, rate float64
}

// putGreeks prices the normalized put and differentiates it. Delta and gamma
// come from differentiating the premium integrand in the spot (the boundary
// does not depend on the spot, so these are full derivatives); theta then
// follows from the Black-Scholes PDE identity dV/dt = rV - (r-q)S Delta -
// sigma^2 S^2 Gamma / 2, which the American value satisfies in the
// continuation region. With bumps set, vega and the rate sensitivity are
// central differences of putValue at sigma +- bumpVol and r (or q) +-
// bumpRate. Each bumped price uses the bumped contract's own boundary,
// cached or freshly solved; the vol bumps' solves warm-start from the
// unbumped one.
func putGreeks(c *contract, bumpQ, bumps bool) normGreeks {
	if c.r == 0 {
		return europeanPutGreeks(c, bumpQ)
	}
	b, _ := boundaryFor(c)
	if c.s <= b.Value(c.T) {
		// Exercised immediately: V = K - S identically in every parameter.
		return normGreeks{v: c.k - c.s, delta: -1}
	}

	pv, pd, pg := premiumDG(c, b, c.s)
	dp, _ := c.dpm(c.T, c.s/c.k)
	eq := math.Exp(-c.q * c.T)
	sqT := c.sigma * math.Sqrt(c.T)

	g := normGreeks{
		v:     c.europeanPut(c.s, c.T) + pv,
		delta: -eq*normCDF(-dp) + pd,
		gamma: eq*normPDF(dp)/(c.s*sqT) + pg,
	}
	if intr := c.k - c.s; g.v < intr {
		g.v = intr
	}
	g.theta = c.r*g.v - (c.r-c.q)*c.s*g.delta - 0.5*c.sigma*c.sigma*c.s*c.s*g.gamma
	if !bumps {
		return g
	}

	up, dn := *c, *c
	up.sigma += bumpVol
	dn.sigma -= bumpVol
	vu, _ := putValue(&up)
	vd, _ := putValue(&dn)
	g.vega = (vu - vd) / (2 * bumpVol)

	// The rate bumps fall back to a forward difference when the central stencil
	// would cross zero: a negative rate flips the boundary-limit formula
	// X = K min(1, r/q) into nonsense, and the unbumped value is already known.
	up, dn = *c, *c
	rate := c.r
	if bumpQ {
		rate = c.q
		up.q += bumpRate
		dn.q -= bumpRate
	} else {
		up.r += bumpRate
		dn.r -= bumpRate
	}
	vu, _ = putValue(&up)
	if rate < 2*bumpRate {
		g.rate = (vu - g.v) / bumpRate
	} else {
		vd, _ = putValue(&dn)
		g.rate = (vu - vd) / (2 * bumpRate)
	}
	return g
}

// premiumDG evaluates the early-exercise premium together with its first and
// second spot derivatives in a single quadrature pass. With a = 1/(sigma
// sqrt(u)), differentiating the integrand of premium in s gives
//
//	d/ds:   -r K e^{-ru} phi(d-) a/s - q e^{-qu} [Phi(-d+) - phi(d+) a]
//	d2/ds2:  r K e^{-ru} a phi(d-)(d- a + 1)/s^2 + q e^{-qu} (a/s) phi(d+)(1 - d+ a)
func premiumDG(c *contract, b *Boundary, s float64) (v, d, g float64) {
	rule := tanhSinh(tsStepPremium)
	halfT := 0.5 * c.T
	for j := range rule.y {
		u := halfT * rule.op[j]
		rem := halfT * rule.om[j]
		dp, dm := c.dpm(u, s/b.Value(rem))
		a := 1 / (c.sigma * math.Sqrt(u))
		er := c.r * c.k * math.Exp(-c.r*u)
		eqd := c.q * math.Exp(-c.q*u)
		phiP, phiM := normPDF(dp), normPDF(dm)

		w := rule.w[j]
		v += w * (er*normCDF(-dm) - eqd*s*normCDF(-dp))
		d += w * (-er*phiM*a/s - eqd*(normCDF(-dp)-phiP*a))
		g += w * (er*a*phiM*(dm*a+1)/(s*s) + eqd*(a/s)*phiP*(1-dp*a))
	}
	return v * halfT, d * halfT, g * halfT
}

// europeanPutGreeks is the closed-form sensitivity set for the r == 0 case,
// where the American put equals the European.
func europeanPutGreeks(c *contract, bumpQ bool) normGreeks {
	dp, dm := c.dpm(c.T, c.s/c.k)
	eq := math.Exp(-c.q * c.T)
	er := math.Exp(-c.r * c.T)
	sqT := math.Sqrt(c.T)
	g := normGreeks{
		v:     c.europeanPut(c.s, c.T),
		delta: -eq * normCDF(-dp),
		gamma: eq * normPDF(dp) / (c.s * c.sigma * sqT),
		theta: c.europeanPutTheta(c.s, c.T),
		vega:  c.s * eq * normPDF(dp) * sqT,
	}
	if bumpQ {
		g.rate = c.T * c.s * eq * normCDF(-dp)
	} else {
		g.rate = -c.T * c.k * er * normCDF(-dm)
	}
	return g
}
