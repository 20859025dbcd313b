package analytic

import "math"

// QD+ initial guess for the early-exercise boundary (Li 2009, refining the
// Ju-Zhong quadratic approximation). The American put near the boundary is
// approximated as p_eur + A (S/S*)^lambda; value matching plus smooth pasting
// collapse to a single nonlinear equation in the boundary spot S*:
//
//	f(S) = S (1 - e^{-q tau} Phi(-d+(tau, S/K))) + (lambda + c0)(K - S - p_eur(S, tau)) = 0
//
// with lambda the negative root of the quadratic lambda(lambda-1) +
// N lambda - M/h = 0 and c0 the QD+ refinement term. The root is bracketed in
// (0, X] and polished by bisection: the seed only has to land close enough
// for the FP-B fixed point to take over, so robustness beats order here.

// boundaryLimit is B(0+) = K min(1, r/q): the level the exercise boundary
// rises to as expiry approaches.
func (c *contract) boundaryLimit() float64 {
	if c.q > c.r {
		return c.k * c.r / c.q
	}
	return c.k
}

// qdSeed returns the QD+ boundary estimate at time-to-expiry tau.
func (c *contract) qdSeed(tau float64) float64 {
	x := c.boundaryLimit()
	if tau <= 0 || c.r <= 0 {
		// r == 0 puts never exercise early; callers special-case that
		// before any boundary work, so just pin the limit.
		return x
	}
	sig2 := c.sigma * c.sigma
	m := 2 * c.r / sig2
	nn := 2 * (c.r - c.q) / sig2
	h := 1 - math.Exp(-c.r*tau)
	disc := math.Sqrt((nn-1)*(nn-1) + 4*m/h)
	lam := 0.5 * (-(nn - 1) - disc)
	lamPrime := m / (h * h * disc) // d lambda / d h

	// The bisection evaluates f 66 times at one tau, so everything that
	// depends on tau alone is computed once here. f inlines europeanPut,
	// europeanPutTheta and dpm term by term, in their operation order, and
	// shares d+- and the two CDFs among them: the seed is bitwise what
	// those helpers give, for 4 transcendental calls per evaluation
	// instead of 17.
	sqrtTau := math.Sqrt(tau)
	sq := c.sigma * sqrtTau
	drift, vol := (c.r-c.q)*tau, 0.5*c.sigma*c.sigma*tau
	discR, discQ, growR := math.Exp(-c.r*tau), math.Exp(-c.q*tau), math.Exp(c.r*tau)

	f := func(s float64) float64 {
		dp := (math.Log(s/c.k) + drift + vol) / sq
		dm := dp - sq
		ncm, ncp := normCDF(-dm), normCDF(-dp)
		p := c.k*discR*ncm - s*discQ*ncp // europeanPut(s, tau)
		prem := c.k - s - p
		c0 := 0.0
		// The c0 refinement divides by the premium and by r; skip it when
		// either is degenerate — the plain QD root is still a fine seed.
		if den := 2*lam + nn - 1; prem > 1e-12*c.k && math.Abs(den) > 1e-12 {
			// europeanPutTheta(s, tau)
			theta := -s*discQ*normPDF(dp)*c.sigma/(2*sqrtTau) +
				c.r*c.k*discR*ncm -
				c.q*s*discQ*ncp
			c0 = -((1 - h) * m / den) *
				(1/h - theta*growR/(c.r*prem) + lamPrime/den)
			if math.IsNaN(c0) || math.IsInf(c0, 0) {
				c0 = 0
			}
		}
		return s*(1-discQ*ncp) + (lam+c0)*prem
	}

	lo, hi := 1e-6*x, x
	flo := f(lo)
	if fhi := f(hi); (flo < 0) == (fhi < 0) {
		// No sign change on (0, X]: start the fixed point from the limit.
		return x
	}
	for i := 0; i < 64; i++ {
		mid := 0.5 * (lo + hi)
		if fm := f(mid); (fm < 0) == (flo < 0) {
			lo, flo = mid, fm
		} else {
			hi = mid
		}
	}
	return 0.5 * (lo + hi)
}
