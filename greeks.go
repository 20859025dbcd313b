package amop

import (
	"fmt"
	"math"
)

// Greeks holds the standard first- and second-order price sensitivities.
type Greeks struct {
	Delta float64 // dV/dS
	Gamma float64 // d^2V/dS^2
	Theta float64 // dV/dt (per year; negative for long options, usually)
	Vega  float64 // dV/dVol (per 1.0 of volatility)
	Rho   float64 // dV/dR (per 1.0 of rate)
}

// GreeksAmerican computes the Greeks of an American option by central finite
// differences around the fast pricer. Bump sizes are relative and chosen
// large enough to dominate the O(1/T) lattice discretization noise at
// moderate step counts; results carry the usual bump-and-reprice error.
func GreeksAmerican(o Option, steps int) (Greeks, error) {
	price := func(o Option) (float64, error) { return PriceAmerican(o, steps) }
	return greeks(o, price)
}

// GreeksEuropean computes the Greeks of a European option the same way but
// around the lattice European pricer.
func GreeksEuropean(o Option, steps int) (Greeks, error) {
	price := func(o Option) (float64, error) { return PriceEuropean(o, steps) }
	return greeks(o, price)
}

func greeks(o Option, price func(Option) (float64, error)) (Greeks, error) {
	var g Greeks

	base, err := price(o)
	if err != nil {
		return g, fmt.Errorf("amop: greeks base price: %w", err)
	}

	// Delta and gamma share one pair of spot bumps.
	dS := 0.01 * o.S
	up, dn := o, o
	up.S += dS
	dn.S -= dS
	vUp, err := price(up)
	if err != nil {
		return g, err
	}
	vDn, err := price(dn)
	if err != nil {
		return g, err
	}
	g.Delta = (vUp - vDn) / (2 * dS)
	g.Gamma = (vUp - 2*base + vDn) / (dS * dS)

	// Vega. The bump points are shared with impliedVolNewton's first slope
	// estimate, so a quote computing both Greeks and implied vol through the
	// batch engine prices them once.
	const dV = vegaBump
	up, dn = o, o
	up.V += dV
	dn.V = math.Max(dn.V-dV, volBracketLo)
	vUp, err = price(up)
	if err != nil {
		return g, err
	}
	vDn, err = price(dn)
	if err != nil {
		return g, err
	}
	g.Vega = (vUp - vDn) / (up.V - dn.V)

	// Rho. Keep the rate non-negative (the models require R >= 0).
	dR := 5e-4
	up, dn = o, o
	up.R += dR
	dn.R = math.Max(dn.R-dR, 0)
	vUp, err = price(up)
	if err != nil {
		return g, err
	}
	vDn, err = price(dn)
	if err != nil {
		return g, err
	}
	g.Rho = (vUp - vDn) / (up.R - dn.R)

	// Theta: value decay as calendar time passes (expiry shrinks).
	dE := math.Min(0.01, o.E/4)
	up, dn = o, o
	up.E += dE
	dn.E -= dE
	vUp, err = price(up)
	if err != nil {
		return g, err
	}
	vDn, err = price(dn)
	if err != nil {
		return g, err
	}
	g.Theta = -(vUp - vDn) / (2 * dE)

	return g, nil
}

// ImpliedVol solves for the volatility in [0.0001, 5] at which the American
// option's fast model price equals target: a safeguarded Newton/secant
// iteration seeded at the option's own vol, falling back to bisection over
// the whole range when that cannot certify a root (see impliedVolWith).
// American prices are strictly increasing in volatility, so the root is
// unique when it exists; an error is returned when target lies outside the
// attainable range.
func ImpliedVol(o Option, steps int, target float64) (float64, error) {
	return impliedVolWith(o, target, func(oo Option) (float64, error) {
		return PriceAmerican(oo, steps)
	})
}

// impliedVolWith is ImpliedVol around an arbitrary pricer, so the batch
// engine can route the solver's repricings through its caches.
//
// It tries a safeguarded Newton/secant iteration seeded at the option's own
// volatility mark first — for the desk round trip (and any quote whose vol
// mark is near the answer) that converges in a handful of repricings instead
// of bisection's ~30, and its first three evaluations reuse exactly the
// points the Greeks' vega bump prices, so under the batch engine they are
// memo hits rather than new solves. When the fast path cannot certify a root
// (bad seed, degenerate lattice, target out of range) it falls back to the
// original bracketed bisection, which also owns the out-of-range error
// reporting.
func impliedVolWith(o Option, target float64, price func(Option) (float64, error)) (float64, error) {
	if math.IsNaN(target) || target <= 0 {
		return 0, fmt.Errorf("amop: implied vol target %v must be positive", target)
	}
	priceAt := func(v float64) (float64, error) {
		oo := o
		oo.V = v
		return price(oo)
	}
	if iv, ok := impliedVolNewton(o.V, target, priceAt); ok {
		return iv, nil
	}
	lo, hi := volBracketLo, volBracketHi
	// The binomial tree degenerates (q outside (0,1)) when one volatility
	// step cannot cover the drift; raise the lower bracket until the model
	// is well-posed there.
	pLo, err := priceAt(lo)
	for err != nil && lo < 0.2 {
		lo *= 2
		pLo, err = priceAt(lo)
	}
	if err != nil {
		return 0, err
	}
	pHi, err := priceAt(hi)
	if err != nil {
		return 0, err
	}
	if target < pLo || target > pHi {
		// Report the bracket the search actually used: when the lattice
		// degenerated at low vols the lower bound was raised above 1e-4,
		// and pLo is only attainable down to that raised volatility.
		return 0, fmt.Errorf("amop: target price %v outside the attainable range [%v, %v] for volatility in [%v, %v]", target, pLo, pHi, lo, hi)
	}
	for iter := 0; iter < 100 && hi-lo > volTol; iter++ {
		mid := (lo + hi) / 2
		p, err := priceAt(mid)
		if err != nil {
			return 0, err
		}
		if p < target {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2, nil
}

const (
	// volBracketLo and volBracketHi bound every implied-vol search.
	volBracketLo = 1e-4
	volBracketHi = 5.0
	// volTol is the convergence tolerance on the volatility.
	volTol = 1e-8
	// vegaBump is the absolute volatility bump (in vol points, independent of
	// the quote's vol mark) shared by the Greeks' vega central difference and
	// the implied-vol solver's first slope estimate — the sharing is what
	// makes those repricings memo hits under the batch engine.
	vegaBump = 0.01
)

// impliedVolNewton is the fast implied-vol path: a Newton iteration seeded at
// the quote's volatility mark, with the first slope taken from the same
// central bump the Greeks use for vega and later slopes updated secant-style
// from points already priced. American prices increase strictly in
// volatility, so every evaluation also tightens a root bracket; steps that
// leave the bracket (or follow a non-positive slope estimate) are replaced by
// bisection of it. It reports ok=false — sending the caller to the fully
// validated bracket search — when the seed is unusable, a pricing fails (the
// lattice degenerates at low vols), the iteration budget runs out, or the
// iterate is pinned against a bracket bound, which is how an unattainable
// target manifests.
func impliedVolNewton(seed, target float64, priceAt func(float64) (float64, error)) (float64, bool) {
	if math.IsNaN(seed) || seed <= volBracketLo || seed >= volBracketHi {
		return 0, false
	}
	lo, hi := volBracketLo, volBracketHi
	note := func(v, p float64) {
		if p < target {
			if v > lo {
				lo = v
			}
		} else if v < hi {
			hi = v
		}
	}
	v := seed
	p0, err := priceAt(v)
	if err != nil {
		return 0, false
	}
	note(v, p0)
	up := v + vegaBump
	dn := math.Max(v-vegaBump, volBracketLo)
	pUp, err := priceAt(up)
	if err != nil {
		return 0, false
	}
	pDn, err := priceAt(dn)
	if err != nil {
		return 0, false
	}
	note(up, pUp)
	note(dn, pDn)
	slope := (pUp - pDn) / (up - dn)
	fv := p0 - target
	for iter := 0; iter < 48; iter++ {
		next := v
		if slope > 0 {
			next = v - fv/slope
		}
		if !(next > lo && next < hi) {
			next = (lo + hi) / 2
		}
		if math.Abs(next-v) <= volTol || hi-lo <= volTol {
			if next <= volBracketLo+10*volTol || next >= volBracketHi-10*volTol {
				// Converged onto a bound: the target may be unattainable;
				// let the bracketed search validate (or reject) it.
				return 0, false
			}
			return next, true
		}
		pn, err := priceAt(next)
		if err != nil {
			return 0, false
		}
		note(next, pn)
		fn := pn - target
		if next != v {
			slope = (fn - fv) / (next - v)
		}
		v, fv = next, fn
	}
	return 0, false
}
