package analytic

import (
	"math"
	"sync"

	"github.com/nlstencil/amop/internal/obs"
)

// chebTable holds the size-n collocation tables shared by every boundary
// solve at that node count: the Chebyshev-Lobatto abscissae z_i = -cos(i
// pi/n) (ordered so i=0 is tau=0 and i=n is tau=T) and the cosine matrix
// cos(i k pi / n) the coefficient transform contracts nodal values against.
// Tables are immutable once published, so concurrent batch workers share
// them freely; ChebCacheStats exposes the hit rate for the race tests.
type chebTable struct {
	n     int
	z     []float64 // z_i = -cos(i pi / n), i = 0..n
	cosik []float64 // cos(i*k*pi/n) at [i*(n+1)+k]
}

var (
	chebMu     sync.RWMutex
	chebTables = make(map[int]*chebTable)
	chebHits   = obs.NewCounter("amop_analytic_cheb_hits_total",
		"analytic-tier Chebyshev collocation-table lookups answered from the cache")
	chebMiss = obs.NewCounter("amop_analytic_cheb_misses_total",
		"analytic-tier Chebyshev collocation-table lookups that built the table")
)

// chebFor returns the shared collocation table for n+1 nodes.
func chebFor(n int) *chebTable {
	chebMu.RLock()
	t := chebTables[n]
	chebMu.RUnlock()
	if t != nil {
		chebHits.Add(1)
		return t
	}
	chebMiss.Add(1)
	fresh := &chebTable{
		n:     n,
		z:     make([]float64, n+1),
		cosik: make([]float64, (n+1)*(n+1)),
	}
	for i := 0; i <= n; i++ {
		fresh.z[i] = -math.Cos(float64(i) * math.Pi / float64(n))
		for k := 0; k <= n; k++ {
			fresh.cosik[i*(n+1)+k] = math.Cos(float64(i*k) * math.Pi / float64(n))
		}
	}
	chebMu.Lock()
	if prior, ok := chebTables[n]; ok {
		fresh = prior
	} else {
		chebTables[n] = fresh
	}
	chebMu.Unlock()
	return fresh
}

// ChebCacheStats reports the shared collocation-table cache's cumulative hit
// and miss counts (concurrency tests pin sharing through these).
func ChebCacheStats() (hits, misses int64) {
	return chebHits.Load(), chebMiss.Load()
}

// coeffs computes the Chebyshev interpolation coefficients c of the nodal
// values vals (at the table's abscissae), written into dst (len n+1). The
// interpolant is p(z) = sum_k c_k T_k(z) with the endpoint halving already
// folded into c_0 and c_n, so clenshaw can consume c directly.
//
// With nodes z_i = -cos(theta_i), T_k(z_i) = (-1)^k cos(k theta_i); the
// (-1)^k is folded in here.
func (t *chebTable) coeffs(vals, dst []float64) {
	n := t.n
	for k := 0; k <= n; k++ {
		// Trapezoid-style sum with halved endpoints: i=0 has cos term 1,
		// i=n has cos(k pi) = (-1)^k.
		s := 0.5 * (vals[0] + vals[n]*t.cosik[n*(n+1)+k])
		for i := 1; i < n; i++ {
			s += vals[i] * t.cosik[i*(n+1)+k]
		}
		a := 2 * s / float64(n)
		if k%2 == 1 {
			a = -a
		}
		dst[k] = a
	}
	dst[0] *= 0.5
	dst[n] *= 0.5
}

// clenshaw evaluates sum_k c_k T_k(z) for z in [-1, 1].
func clenshaw(c []float64, z float64) float64 {
	var b1, b2 float64
	for k := len(c) - 1; k >= 1; k-- {
		b1, b2 = c[k]+2*z*b1-b2, b1
	}
	return c[0] + z*b1 - b2
}
