package analytic

import (
	"math"
	"sync"
	"testing"

	"github.com/nlstencil/amop/internal/option"
)

// xvalTol is the analytic tier's cross-validation tolerance (make xval's
// -analytic-tol): seeded and QD+-seeded boundaries must agree within it.
const xvalTol = 1e-6

// warmGrid spans the Eligible envelope: vol 0.01-2, expiry 1e-3-30, rate
// and yield up to 0.5 on both sides of each other, stiffness up to the cap.
func warmGrid() []contract {
	var out []contract
	for _, rq := range [][2]float64{{0.001, 0}, {0.05, 0.02}, {0.02, 0.1}, {0.5, 0.05}, {0.1, 0.5}, {0.5, 0.5}} {
		for _, sigma := range []float64{0.01, 0.05, 0.15, 0.4, 1, 2} {
			for _, T := range []float64{1e-3, 0.5, 30} {
				c := contract{s: 1, k: 1, r: rq[0], q: rq[1], sigma: sigma, T: T}
				if 2*math.Max(c.r, c.q)/(sigma*sigma) <= envMaxStiff {
					out = append(out, c)
				}
			}
		}
	}
	return out
}

// pricesWith returns the put value at a few spots against boundary b.
func pricesWith(c contract, b *Boundary) []float64 {
	var out []float64
	for _, s := range []float64{0.8, 1, 1.25} {
		v := c.k - s
		if s > b.Value(c.T) {
			v = math.Max(v, c.europeanPut(s, c.T)+premium(&c, b, s))
		}
		out = append(out, v)
	}
	return out
}

// TestWarmStartMatchesQDPlus: a solve seeded from a neighbour's boundary at
// sigma + dsigma converges to the QD+-seeded boundary within the xval
// tolerance, and prices off the two agree to 1e-10 relative, across the
// envelope.
func TestWarmStartMatchesQDPlus(t *testing.T) {
	for _, c := range warmGrid() {
		n := nodesFor(&c)
		ref := solveBoundary(&c, n, nil)
		refPrices := pricesWith(c, ref)
		for _, d := range []float64{1e-12, 1e-6, 1e-3, 1e-2} {
			nb := c
			if nb.sigma += d; nb.sigma > envMaxVol {
				nb.sigma = c.sigma - d
			}
			warm := solveBoundary(&c, n, solveBoundary(&nb, nodesFor(&nb), nil))
			worst := 0.0
			for i := 0; i <= 100; i++ {
				tau := c.T * float64(i) / 100
				want := ref.Value(tau)
				worst = math.Max(worst, math.Abs(warm.Value(tau)-want)/want)
			}
			if worst > xvalTol {
				t.Errorf("%+v seeded at dsigma %g: boundary differs by %.3g relative", c, d, worst)
			}
			for k, got := range pricesWith(c, warm) {
				if want := refPrices[k]; relErr(got, want) > 1e-10 {
					t.Errorf("%+v seeded at dsigma %g: price %.15g, QD+ %.15g (rel %.3g)",
						c, d, got, want, relErr(got, want))
				}
			}
		}
	}
}

// clearBoundaryCache empties the boundary cache and its neighbour index.
func clearBoundaryCache() {
	bMu.Lock()
	clear(bCache)
	clear(bNear)
	bMu.Unlock()
}

// TestPriceIndependentOfCacheHistory prices one contract after two cache
// histories: from an empty cache (a QD+ solve) and after an implied-vol-like
// walk of nearby vols at the same (r, q, T) (a warm start). The two prices
// agree to 1e-10 relative.
func TestPriceIndependentOfCacheHistory(t *testing.T) {
	defer clearBoundaryCache()
	for _, p := range []option.Params{
		{S: 100, K: 105, R: 0.03, V: 0.21, Y: 0.01, E: 0.5},
		{S: 40, K: 50, R: 0.08, V: 0.35, Y: 0.12, E: 3},
		{S: 95, K: 100, R: 0.3, V: 0.2, Y: 0.05, E: 2},
	} {
		for _, kind := range []option.Kind{option.Put, option.Call} {
			clearBoundaryCache()
			cold, err := Price(p, kind)
			if err != nil {
				t.Fatal(err)
			}

			clearBoundaryCache()
			warm0 := BoundaryWarmStarts.Load()
			for _, v := range []float64{p.V + 1e-2, p.V - 1e-3, p.V + 1e-5} {
				q := p
				q.V = v
				if _, err := Price(q, kind); err != nil {
					t.Fatal(err)
				}
			}
			warm, err := Price(p, kind)
			if err != nil {
				t.Fatal(err)
			}
			if w := BoundaryWarmStarts.Load(); w == warm0 {
				t.Errorf("%v %+v: the walk never warm-started a solve", kind, p)
			}
			if relErr(cold, warm) > 1e-10 {
				t.Errorf("%v %+v: %.15g from an empty cache, %.15g after a vol walk (rel %.3g)",
					kind, p, cold, warm, relErr(cold, warm))
			}
		}
	}
}

// TestConcurrentWarmStarts walks a ladder of vols at one (r, q, T) from many
// goroutines at once, each starting at a different rung, so solves seed
// from neighbours that other goroutines are storing into the index. Each
// key is stored once and later lookups adopt it, so every worker sees the
// prices a sequential re-price reads back from the cache, bit for bit; and
// each agrees with a QD+-seeded solve to 1e-10 relative. Run under -race
// this is the neighbour index's coherence gate.
func TestConcurrentWarmStarts(t *testing.T) {
	clearBoundaryCache()
	defer clearBoundaryCache()
	const workers, rungs = 8, 24
	p := option.Params{S: 100, K: 100, R: 0.04, Y: 0.015, E: 0.75}
	vol := func(k int) float64 { return 0.22 + 1e-3*float64(k) }
	price := func(k int) float64 {
		q := p
		q.V = vol(k)
		v, err := Price(q, option.Put)
		if err != nil {
			t.Error(err)
		}
		return v
	}

	warm0 := BoundaryWarmStarts.Load()
	got := make([][]float64, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			vals := make([]float64, rungs)
			for i := 0; i < rungs; i++ {
				k := (i + w*rungs/workers) % rungs
				vals[k] = price(k)
			}
			got[w] = vals
		}(w)
	}
	wg.Wait()
	if warm := BoundaryWarmStarts.Load(); warm == warm0 {
		t.Error("no solve warm-started")
	}
	for k := 0; k < rungs; k++ {
		want := price(k)
		for w := range got {
			if got[w][k] != want {
				t.Errorf("worker %d, vol %g: %.17g, cached %.17g", w, vol(k), got[w][k], want)
			}
		}
		c, _ := normalize(option.Params{S: p.S, K: p.K, R: p.R, Y: p.Y, E: p.E, V: vol(k)}, option.Put)
		cold := pricesWith(c, solveBoundary(&c, nodesFor(&c), nil))[1] * p.K
		if relErr(want, cold) > 1e-10 {
			t.Errorf("vol %g: %.15g after concurrent warm starts, %.15g from QD+", vol(k), want, cold)
		}
	}
}
