package analytic

import (
	"math"
	"sync"

	"github.com/nlstencil/amop/internal/obs"
	"github.com/nlstencil/amop/internal/scratch"
)

// The early-exercise boundary B(tau) of the (strike-normalized) American put
// is represented as a Chebyshev interpolant in x = sqrt(tau) of the
// transformed variable H(x) = [ln(B/X)]^2, where X = B(0+) = K min(1, r/q).
// The square-root time change and the squared-log transform absorb the
// boundary's steep behavior near expiry, so a modest node count interpolates
// it to solver precision; B = X exp(-sqrt(H)) keeps every evaluation in
// (0, X] by construction.
//
// The nodal values are refined by the Andersen-Lake FP-B fixed point derived
// from smooth pasting:
//
//	B = K e^{-(r-q)tau} N/D
//	N = phi(d-(tau, B/K))/(sigma sqrt(tau)) + r K3
//	D = phi(d+(tau, B/K))/(sigma sqrt(tau)) + Phi(d+(tau, B/K)) + q (K1+K2)
//
// with the boundary integrals, after the substitution u = tau - s^2 that
// removes the 1/sqrt(tau-u) kernel singularity,
//
//	K1 = 2 ∫_0^{sqrt(tau)} e^{q(tau-s^2)} Phi(d+(s^2, B(tau)/B(tau-s^2))) s ds
//	K2 = (2/sigma) ∫_0^{sqrt(tau)} e^{q(tau-s^2)} phi(d+(s^2, B(tau)/B(tau-s^2))) ds
//	K3 = (2/sigma) ∫_0^{sqrt(tau)} e^{r(tau-s^2)} phi(d-(s^2, B(tau)/B(tau-s^2))) ds
//
// evaluated with the shared tanh-sinh rule against the previous sweep's
// interpolant.

const (
	// boundaryIters bounds the FP-B sweeps; the loop exits early once the
	// largest nodal update falls below boundaryTol relative. Heavily damped
	// stiff solves need well over a hundred sweeps, so the budget is sized
	// for them; easy contracts exit in a handful.
	boundaryIters = 200
	boundaryTol   = 1e-12

	// boundaryDamp is the first geometric damping factor applied once a
	// sweep grows instead of contracting. The plain FP-B map is a
	// contraction for moderate 2r/sigma^2 but turns oscillatory-divergent
	// (multiplier near -2 and beyond) as that ratio climbs; damping by eta
	// moves a multiplier f' to (1-eta) + eta f'. Stiff contracts can defeat
	// a single fixed eta (node-to-node coupling through the interpolant
	// keeps amplifying), so each further growing sweep halves eta down to
	// boundaryDampMin, which has stabilized every in-envelope contract
	// found by fuzzing. Easy cases never trip the switch and pay nothing.
	boundaryDamp    = 0.35
	boundaryDampMin = 0.02

	// tsStepBoundary / tsStepPremium are the tanh-sinh step sizes for the
	// boundary-integral and premium quadratures (~31 and ~39 nodes).
	tsStepBoundary = 0.25
	tsStepPremium  = 0.1
)

// Boundary is an immutable early-exercise boundary for a strike-normalized
// put; concurrent pricers share one instance freely.
type Boundary struct {
	X float64   // B(0+) limit
	T float64   // expiry the interpolant covers, tau in [0, T]
	c []float64 // Chebyshev coefficients of H(x) on z = 2 sqrt(tau/T) - 1
}

// Value returns B(tau), clamping tau into [0, T].
func (b *Boundary) Value(tau float64) float64 {
	if tau <= 0 {
		return b.X
	}
	if tau > b.T {
		tau = b.T
	}
	z := 2*math.Sqrt(tau/b.T) - 1
	h := clenshaw(b.c, z)
	if h < 0 {
		h = 0
	}
	return b.X * math.Exp(-math.Sqrt(h))
}

// solveBoundary solves for the boundary with FP-B sweeps on n+1 collocation
// nodes. The sweeps start from seed, the cached boundary of a contract with
// the same (r, q, T) and a nearby sigma, when one is given, and from
// QD+ otherwise. Where the undamped map contracts, the fixed point converges
// to the same boundary within boundaryTol from either start, but a near
// neighbour is a few sweeps from it where QD+ is about a dozen, and reading
// it costs no per-node bisection. A stiff contract that needs damping stops
// where the damped sweeps' steps fall below boundaryTol, which depends on
// the start, so a seeded solve that would engage damping starts over from
// QD+: its boundary then does not depend on what the cache held. c must be
// strike-normalized (k == 1) with r > 0.
func solveBoundary(c *contract, n int, seed *Boundary) *Boundary {
	fp := newFPB(c, n)
	defer scratch.PutFloats(fp.nodeBuf)
	defer scratch.PutFloats(fp.pairBuf)
	if seed == nil || !fp.refine(c, seed) {
		fp.refine(c, nil)
	}
	out := &Boundary{X: fp.x, T: c.T, c: make([]float64, n+1)}
	fp.tab.coeffs(fp.hv, out.c)
	return out
}

// fpb is one boundary solve's state. tau, bv and hv hold the nodes, the
// nodal boundary values and their transforms; cf the current interpolant.
// The rest is what a sweep needs that no sweep changes: for each interior
// node i and quadrature point j (flattened at (i-1)*m + j) the substituted
// time s, the Chebyshev coordinate of tau_i - s^2 and the weighted
// discount factors at s. Building them once per solve takes three of the
// inner loop's transcendental calls out of every sweep. Each value is computed by
// the same expression the sweep used to evaluate inline, so the boundary is
// bitwise unchanged. The slices live in two scratch buffers, nodeBuf and
// pairBuf, which the caller returns.
type fpb struct {
	tab *chebTable
	x   float64 // B(0+)
	m   int     // quadrature points per node

	nodeBuf, pairBuf []float64

	tau, bv, hv, cf []float64 // per node, i = 0..n
	s, zu, weq, wer []float64 // per (node, point); weq = w e^{q(tau-s^2)}, wer = w e^{r(tau-s^2)}
}

func newFPB(c *contract, n int) fpb {
	rule := tanhSinh(tsStepBoundary)
	m := len(rule.y)
	fp := fpb{tab: chebFor(n), x: c.boundaryLimit(), m: m}
	nodes, nm := n+1, n*m
	fp.nodeBuf, fp.pairBuf = scratch.Floats(4*nodes), scratch.Floats(4*nm)
	split := func(b []float64, k int, dst ...*[]float64) {
		for i, d := range dst {
			*d = b[i*k : (i+1)*k : (i+1)*k]
		}
	}
	split(fp.nodeBuf, nodes, &fp.tau, &fp.bv, &fp.hv, &fp.cf)
	split(fp.pairBuf, nm, &fp.s, &fp.zu, &fp.weq, &fp.wer)

	fp.tau[0] = 0
	for i := 1; i <= n; i++ {
		half := 0.5 * (1 + fp.tab.z[i])
		ti := c.T * half * half
		fp.tau[i] = ti
		sqTau := math.Sqrt(ti)
		row := (i - 1) * m
		for j := range rule.y {
			// tau - s^2 = tau (1-y)(3+y)/4, cancellation-free via om.
			tu := ti * rule.om[j] * (2 + rule.op[j]) * 0.25
			zu := 2*math.Sqrt(tu/c.T) - 1
			if zu > 1 {
				zu = 1
			} else if zu < -1 {
				zu = -1
			}
			w := rule.w[j]
			fp.s[row+j] = sqTau * 0.5 * rule.op[j]
			fp.zu[row+j] = zu
			fp.weq[row+j] = w * math.Exp(c.q*tu)
			fp.wer[row+j] = w * math.Exp(c.r*tu)
		}
	}
	return fp
}

// refine seeds the nodal values from seed, or from QD+ when seed is nil, and
// runs FP-B sweeps until the largest nodal update falls below boundaryTol or
// the sweep budget runs out. A seeded run gives up, returning false, at the
// first sweep that would engage damping.
func (fp *fpb) refine(c *contract, seed *Boundary) bool {
	x, n := fp.x, fp.tab.n
	bv, hv, cf := fp.bv, fp.hv, fp.cf
	bv[0], hv[0] = x, 0
	for i := 1; i <= n; i++ {
		var s float64
		if seed != nil {
			s = seed.Value(fp.tau[i])
		} else {
			s = c.qdSeed(fp.tau[i])
		}
		if !(s > 0) || s > x {
			s = x
		}
		bv[i] = s
		l := math.Log(s / x)
		hv[i] = l * l
	}

	eta := 1.0
	prevRel := math.Inf(1)
	for it := 0; it < boundaryIters; it++ {
		fp.tab.coeffs(hv, cf)
		maxRel := 0.0
		for i := 1; i <= n; i++ {
			ti, bi := fp.tau[i], bv[i]
			sqTau := math.Sqrt(ti)
			var k1, k2, k3 float64
			row := (i - 1) * fp.m
			for j := row; j < row+fp.m; j++ {
				s := fp.s[j]
				ss := c.sigma * s
				if ss <= 0 {
					continue
				}
				hu := clenshaw(cf, fp.zu[j])
				if hu < 0 {
					hu = 0
				}
				bu := x * math.Exp(-math.Sqrt(hu))
				dp := (math.Log(bi/bu)+(c.r-c.q)*s*s)/ss + 0.5*ss
				dm := dp - ss
				weq := fp.weq[j]
				k1 += weq * normCDF(dp) * 2 * s
				k2 += weq * normPDF(dp)
				k3 += fp.wer[j] * normPDF(dm)
			}
			jac := 0.5 * sqTau // ds/dy for s = sqrt(tau)(1+y)/2
			k1 *= jac
			k2 *= jac * 2 / c.sigma
			k3 *= jac * 2 / c.sigma

			dpk, dmk := c.dpm(ti, bi/c.k)
			sq := c.sigma * sqTau
			num := normPDF(dmk)/sq + c.r*k3
			den := normPDF(dpk)/sq + normCDF(dpk) + c.q*(k1+k2)
			bn := c.k * math.Exp(-(c.r-c.q)*ti) * num / den
			if !(bn > 0) || math.IsInf(bn, 0) {
				bn = bi // degenerate update; keep the previous iterate
			} else if bn > x {
				bn = x
			}
			if eta < 1 {
				bn = math.Exp((1-eta)*math.Log(bi) + eta*math.Log(bn))
			}
			if rel := math.Abs(bn-bi) / bi; rel > maxRel {
				maxRel = rel
			}
			bv[i] = bn
		}
		for i := 1; i <= n; i++ {
			l := math.Log(bv[i] / x)
			hv[i] = l * l
		}
		if maxRel < boundaryTol {
			break
		}
		// A growing sweep means the map is not contracting at the current
		// damping: engage damping, then keep halving it while growth
		// persists (see boundaryDamp above).
		if maxRel > prevRel && maxRel > 1e-9 {
			if eta == 1 {
				if seed != nil {
					return false
				}
				eta = boundaryDamp
			} else if eta > boundaryDampMin {
				eta *= 0.5
			}
		}
		prevRel = maxRel
	}
	return true
}

// nodesFor picks the collocation resolution from the stiffness ratio
// 2 max(r, q)/sigma^2: the higher it is, the faster the boundary falls away
// from X near expiry and the more nodes the transformed interpolant needs.
func nodesFor(c *contract) int {
	stiff := 2 * math.Max(c.r, c.q) / (c.sigma * c.sigma)
	switch {
	case stiff <= 15:
		return 16
	case stiff <= 30:
		return 24
	default:
		return 32
	}
}

// Boundaries depend on (r, q, sigma, T) but not on spot or strike (the solve
// is strike-normalized), so one solve serves a whole chain of strikes and
// spots at the same expiry. The cache is cleared wholesale when it fills:
// entries are cheap to rebuild and serving traffic clusters on few keys.
type boundaryKey struct {
	r, q, sigma, T float64
}

// A miss is usually a vol move, a vega bump or an implied-vol iterate: a new
// sigma at an (r, q, T) the cache already holds. bNear indexes the cached
// boundaries by (r, q, T) so the miss can seed its solve from the nearest
// sigma (see solveBoundary). It holds exactly bCache's boundaries and is
// cleared with it, so it is bounded by the same capacity.
type sigmaGroup struct {
	r, q, T float64
}

type sigmaEntry struct {
	sigma float64
	b     *Boundary
}

const boundaryCacheCap = 512

// warmMaxRel bounds how far, relative to sigma, a cached neighbour may be
// to seed a solve. A neighbour 10% away costs up to ~2 more sweeps than QD+
// (10-12 on ordinary contracts) but skips the seed's bisection; at 20% it
// can take twice QD+'s sweeps.
const warmMaxRel = 0.1

var (
	bMu    sync.RWMutex
	bCache = make(map[boundaryKey]*Boundary)
	bNear  = make(map[sigmaGroup][]sigmaEntry)
	bHits  = obs.NewCounter("amop_analytic_boundary_hits_total",
		"analytic-tier boundary-cache lookups answered from the cache")
	bMiss = obs.NewCounter("amop_analytic_boundary_misses_total",
		"analytic-tier boundary-cache lookups that solved the boundary")
)

// BoundaryWarmStarts counts the boundary-cache misses whose solve started
// from a cached boundary at a nearby vol instead of from QD+ (a subset of
// BoundaryCacheStats' misses). BoundaryCacheEntries is the number of
// boundaries the cache holds now.
var (
	BoundaryWarmStarts = obs.NewCounter("amop_analytic_boundary_warm_starts_total",
		"analytic-tier boundary solves warm-started from a cached neighbour vol")
	BoundaryCacheEntries = obs.NewGauge("amop_analytic_boundary_cache_entries",
		"early-exercise boundaries the analytic tier's cache holds",
		func() int64 {
			bMu.RLock()
			defer bMu.RUnlock()
			return int64(len(bCache))
		})
)

// boundaryFor returns the shared boundary for the normalized contract,
// solving it outside any lock on a miss (concurrent misses may both solve;
// the first store wins and the loser adopts it). A miss is seeded from the
// cached boundary with the same (r, q, T) and the nearest sigma, found under
// the read lock. cold reports whether this call paid for a boundary solve —
// the cold/warm split the tier-labelled solve-latency histograms key on —
// and is true even for a losing concurrent solver: the caller experienced
// cold-path latency regardless of whose boundary was kept.
func boundaryFor(c *contract) (b *Boundary, cold bool) {
	key := boundaryKey{c.r, c.q, c.sigma, c.T}
	group := sigmaGroup{c.r, c.q, c.T}
	var seed *Boundary
	bMu.RLock()
	b = bCache[key]
	if b == nil {
		seed = nearestSigma(bNear[group], c.sigma)
	}
	bMu.RUnlock()
	if b != nil {
		bHits.Add(1)
		return b, false
	}
	bMiss.Add(1)
	if seed != nil {
		BoundaryWarmStarts.Add(1)
	}
	fresh := solveBoundary(c, nodesFor(c), seed)
	bMu.Lock()
	if prior, ok := bCache[key]; ok {
		fresh = prior
	} else {
		if len(bCache) >= boundaryCacheCap {
			clear(bCache)
			clear(bNear)
		}
		bCache[key] = fresh
		bNear[group] = append(bNear[group], sigmaEntry{c.sigma, fresh})
	}
	bMu.Unlock()
	return fresh, true
}

// nearestSigma returns the boundary in group whose sigma is closest to
// sigma, or nil when none is within warmMaxRel of it.
func nearestSigma(group []sigmaEntry, sigma float64) *Boundary {
	var best *Boundary
	bestDist := warmMaxRel * sigma
	for _, e := range group {
		if d := math.Abs(e.sigma - sigma); d <= bestDist {
			best, bestDist = e.b, d
		}
	}
	return best
}

// BoundaryCacheStats reports the boundary cache's cumulative hit and miss
// counts (concurrency tests pin cross-contract sharing through these).
func BoundaryCacheStats() (hits, misses int64) {
	return bHits.Load(), bMiss.Load()
}
