package analytic

import (
	"errors"
	"math"
	"math/rand"
	"sync"
	"testing"

	"github.com/nlstencil/amop/internal/option"
)

// randInEnvelope draws parameters inside the validity envelope, rejecting
// draws the envelope would refuse (e.g. the stiffness cap).
func randInEnvelope(rng *rand.Rand) option.Params {
	for {
		p := option.Params{
			S: 50 + 150*rng.Float64(),
			K: 50 + 150*rng.Float64(),
			R: 0.001 + 0.4*rng.Float64(),
			V: 0.05 + 1.2*rng.Float64(),
			Y: 0.4 * rng.Float64(),
			E: 0.01 + 5*rng.Float64(),
		}
		if Eligible(p, option.Put) == nil {
			return p
		}
	}
}

// TestBoundaryMonotone: the put's early-exercise boundary is non-increasing
// in time-to-expiry and bounded by B(0+) = K min(1, r/q).
func TestBoundaryMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		p := randInEnvelope(rng)
		if p.R == 0 {
			continue
		}
		c, _ := normalize(p, option.Put)
		b, _ := boundaryFor(&c)
		prev := b.Value(0)
		if math.Abs(prev-b.X) > 1e-12 {
			t.Fatalf("trial %d: B(0)=%g != X=%g", trial, prev, b.X)
		}
		for i := 1; i <= 200; i++ {
			tau := c.T * float64(i) / 200
			cur := b.Value(tau)
			if cur <= 0 || cur > b.X*(1+1e-12) {
				t.Fatalf("trial %d %+v: B(%g)=%g outside (0, X=%g]", trial, p, tau, cur, b.X)
			}
			// Allow a hair of interpolation wiggle, never real growth.
			if cur > prev*(1+1e-9) {
				t.Fatalf("trial %d %+v: boundary rises %.12g -> %.12g at tau=%g",
					trial, p, prev, cur, tau)
			}
			prev = cur
		}
	}
}

// TestLowerBounds: the American price dominates both the European value and
// the immediate-exercise payoff everywhere in the envelope.
func TestLowerBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 500; trial++ {
		p := randInEnvelope(rng)
		for _, kind := range []option.Kind{option.Put, option.Call} {
			v, err := Price(p, kind)
			if err != nil {
				t.Fatalf("trial %d Price(%+v, %v): %v", trial, p, kind, err)
			}
			scale := 1 + v
			if eur := option.BlackScholes(p, kind); v < eur-1e-9*scale {
				t.Errorf("trial %d %v %+v: price %.12g below European %.12g", trial, kind, p, v, eur)
			}
			if intr := p.Payoff(kind, p.S); v < intr-1e-9*scale {
				t.Errorf("trial %d %v %+v: price %.12g below intrinsic %.12g", trial, kind, p, v, intr)
			}
		}
	}
}

// TestPutCallSymmetryRoundTrip: applying the McDonald-Schroder swap twice
// must land exactly back on the original price, and the package's call price
// must equal the externally symmetrized put.
func TestPutCallSymmetryRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 200; trial++ {
		p := randInEnvelope(rng)
		sym := option.Params{S: p.K, K: p.S, R: p.Y, V: p.V, Y: p.R, E: p.E}

		call, err := Price(p, option.Call)
		if err != nil {
			t.Fatalf("call: %v", err)
		}
		symPut, err := Price(sym, option.Put)
		if err != nil {
			t.Fatalf("sym put: %v", err)
		}
		if relErr(call, symPut) > 1e-12 {
			t.Errorf("trial %d %+v: call %.15g != symmetrized put %.15g", trial, p, call, symPut)
		}

		put, err := Price(p, option.Put)
		if err != nil {
			t.Fatalf("put: %v", err)
		}
		roundTrip, err := Price(option.Params{S: sym.K, K: sym.S, R: sym.Y, V: sym.V, Y: sym.R, E: sym.E}, option.Put)
		if err != nil {
			t.Fatalf("round trip: %v", err)
		}
		if put != roundTrip {
			t.Errorf("trial %d %+v: double swap drifted %.17g -> %.17g", trial, p, put, roundTrip)
		}
	}
}

// TestGreeksAgainstFiniteDifferences: the analytic Greeks must match central
// finite differences of Price itself (which never sees the Greeks code path).
func TestGreeksAgainstFiniteDifferences(t *testing.T) {
	cases := []option.Params{
		{S: 100, K: 100, R: 0.05, V: 0.2, Y: 0.02, E: 1},
		{S: 90, K: 100, R: 0.03, V: 0.35, Y: 0.05, E: 2},
		{S: 120, K: 100, R: 0.08, V: 0.25, Y: 0, E: 0.5},
		{S: 127.62, K: 130, R: 0.00163, V: 0.2, Y: 0.0163, E: 1},
	}
	price := func(p option.Params, kind option.Kind) float64 {
		v, err := Price(p, kind)
		if err != nil {
			t.Fatalf("Price(%+v): %v", p, err)
		}
		return v
	}
	for _, p := range cases {
		for _, kind := range []option.Kind{option.Put, option.Call} {
			v, g, err := PriceGreeks(p, kind)
			if err != nil {
				t.Fatalf("PriceGreeks(%+v): %v", p, err)
			}
			if pv := price(p, kind); relErr(v, pv) > 1e-12 {
				t.Errorf("%v %+v: PriceGreeks value %.12g != Price %.12g", kind, p, v, pv)
			}

			bump := func(f func(*option.Params, float64)) (up, dn option.Params) {
				up, dn = p, p
				f(&up, 1)
				f(&dn, -1)
				return
			}
			const hs, hv, hr, he = 1e-2, 1e-4, 1e-5, 1e-5
			up, dn := bump(func(q *option.Params, s float64) { q.S += s * hs })
			fdDelta := (price(up, kind) - price(dn, kind)) / (2 * hs)
			fdGamma := (price(up, kind) - 2*v + price(dn, kind)) / (hs * hs)
			up, dn = bump(func(q *option.Params, s float64) { q.V += s * hv })
			fdVega := (price(up, kind) - price(dn, kind)) / (2 * hv)
			up, dn = bump(func(q *option.Params, s float64) { q.R += s * hr })
			fdRho := (price(up, kind) - price(dn, kind)) / (2 * hr)
			up, dn = bump(func(q *option.Params, s float64) { q.E += s * he })
			fdTheta := -(price(up, kind) - price(dn, kind)) / (2 * he)

			check := func(name string, got, want, tol float64) {
				if math.Abs(got-want) > tol*(1+math.Abs(want)) {
					t.Errorf("%v %+v: %s analytic %.8g vs FD %.8g", kind, p, name, got, want)
				}
			}
			check("delta", g.Delta, fdDelta, 1e-5)
			check("gamma", g.Gamma, fdGamma, 1e-3)
			check("vega", g.Vega, fdVega, 1e-4)
			check("rho", g.Rho, fdRho, 1e-4)
			check("theta", g.Theta, fdTheta, 1e-4)
		}
	}
}

// TestEnvelope: out-of-envelope contracts are refused with ErrEnvelope and
// in-envelope ones are accepted.
func TestEnvelope(t *testing.T) {
	base := option.Params{S: 100, K: 100, R: 0.05, V: 0.2, Y: 0.01, E: 1}
	if err := Eligible(base, option.Put); err != nil {
		t.Fatalf("base contract rejected: %v", err)
	}
	reject := []option.Params{
		{S: 100, K: 100, R: 0.05, V: 0.005, Y: 0.01, E: 1}, // vol too low
		{S: 100, K: 100, R: 0.05, V: 2.5, Y: 0.01, E: 1},   // vol too high
		{S: 100, K: 100, R: 0.05, V: 0.2, Y: 0.01, E: 40},  // expiry too long
		{S: 100, K: 100, R: 0.51, V: 0.2, Y: 0.01, E: 1},   // rate too high
		{S: 100, K: 100, R: 0.05, V: 0.2, Y: 0.51, E: 1},   // yield too high
		{S: 1, K: 100, R: 0.05, V: 0.2, Y: 0.01, E: 1},     // too deep OTM
	}
	for _, p := range reject {
		err := Eligible(p, option.Put)
		if err == nil {
			t.Errorf("contract %+v accepted; want envelope rejection", p)
			continue
		}
		if !errors.Is(err, ErrEnvelope) {
			t.Errorf("contract %+v rejected with %v; want ErrEnvelope", p, err)
		}
		if _, err := Price(p, option.Put); err == nil {
			t.Errorf("Price accepted out-of-envelope contract %+v", p)
		}
	}
	if err := Eligible(option.Params{S: -1, K: 100, R: 0.05, V: 0.2, E: 1}, option.Put); err == nil || errors.Is(err, ErrEnvelope) {
		t.Errorf("invalid params gave %v; want plain validation error", err)
	}
}

// TestConcurrentSharedCaches prices a book of fresh expiries from many
// goroutines at once — racing workers solve the same boundaries through the
// shared Chebyshev, tanh-sinh and boundary caches (first store wins) — then
// re-prices sequentially: the caches may only dedupe work, never change a
// price, so every concurrent result must be bit-identical to the sequential
// one. Run under -race this is the package's cache-coherence gate.
func TestConcurrentSharedCaches(t *testing.T) {
	const workers, expiries, strikes = 16, 8, 8
	base := option.Params{S: 100, R: 0.045, V: 0.22, Y: 0.015}
	contract := func(e, k int) option.Params {
		p := base
		// Expiries chosen so this test's boundary keys are its own.
		p.E = 1.25 + float64(e)*0.0625
		p.K = 84 + 4*float64(k)
		return p
	}

	chebHits0, _ := ChebCacheStats()
	bndHits0, _ := BoundaryCacheStats()
	got := make([][]float64, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			vals := make([]float64, 0, expiries*strikes)
			for e := 0; e < expiries; e++ {
				for k := 0; k < strikes; k++ {
					v, err := Price(contract(e, k), option.Put)
					if err != nil {
						t.Errorf("worker %d: %v", w, err)
						return
					}
					vals = append(vals, v)
				}
			}
			got[w] = vals
		}(w)
	}
	wg.Wait()

	i := 0
	for e := 0; e < expiries; e++ {
		for k := 0; k < strikes; k++ {
			want, err := Price(contract(e, k), option.Put)
			if err != nil {
				t.Fatal(err)
			}
			for w := 0; w < workers; w++ {
				if got[w] == nil {
					t.Fatalf("worker %d died", w)
				}
				if got[w][i] != want {
					t.Errorf("worker %d, E=%g K=%g: concurrent %.17g != sequential %.17g",
						w, contract(e, k).E, contract(e, k).K, got[w][i], want)
				}
			}
			i++
		}
	}
	if hits, _ := ChebCacheStats(); hits == chebHits0 {
		t.Error("concurrent pricing never hit the shared Chebyshev cache")
	}
	if hits, _ := BoundaryCacheStats(); hits == bndHits0 {
		t.Error("concurrent pricing never hit the shared boundary cache")
	}
}

func BenchmarkPricePut(b *testing.B) {
	p := option.Params{S: 100, K: 100, R: 0.05, V: 0.2, Y: 0.02, E: 1}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Price(p, option.Put); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPriceChainColdBoundary(b *testing.B) {
	// Each iteration uses a fresh expiry so every price pays a boundary
	// solve: the worst case the tier can hit. Only the expiry moves, so no
	// solve finds a cached boundary at its (r, q, T) to warm-start from and
	// every one runs from QD+.
	p := option.Params{S: 100, K: 100, R: 0.05, V: 0.2, Y: 0.02}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p.E = 1 + float64(i%1024)*1e-9
		if _, err := Price(p, option.Put); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBoundaryWarmStart replays the vols an implied-vol solve and the
// vega bumps ask for around a mark: sigma +- 1e-2, +- 1e-4 and +- 1e-8 at
// one (r, q, T). Each iteration empties the cache and prices the mark cold
// off the clock, then times the six neighbours, every one a boundary miss
// warm-started from a cached neighbour; ns/op covers all six.
func BenchmarkBoundaryWarmStart(b *testing.B) {
	defer clearBoundaryCache()
	p := option.Params{S: 100, K: 100, R: 0.05, V: 0.2, Y: 0.02, E: 0.75}
	steps := []float64{1e-2, -1e-2, 1e-4, -1e-4, 1e-8, -1e-8}
	warm0 := BoundaryWarmStarts.Load()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		clearBoundaryCache()
		p.V = 0.2
		if _, err := Price(p, option.Put); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		for _, d := range steps {
			p.V = 0.2 + d
			if _, err := Price(p, option.Put); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.StopTimer()
	if warm := BoundaryWarmStarts.Load(); warm-warm0 < int64(len(steps)*b.N) {
		b.Fatalf("%d warm starts over %d iterations, want %d each", warm-warm0, b.N, len(steps))
	}
}
