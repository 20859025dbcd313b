package stencil

import (
	"math"
	"testing"

	"github.com/nlstencil/amop/internal/fbstencil"
)

// spanPut is the American put on a lattice of span r: each step compounds r
// binomial substeps of factor sqrt(x) = e^(sigma*sqrt(dt/r)) up or down, so
// its weights are disc*C(r,k)*q^k*(1-q)^(r-k) on offsets 0..r. Its exercise
// boundary never rises and drops at most r columns per step. It returns nil
// when q falls outside (0, 1), where the weights are no lattice's.
func spanPut(S, K, sigma, rate float64, T, r int) *ObstacleLeftOneSided {
	dt := 1 / float64(T)
	lnx := 2 * sigma * math.Sqrt(dt/float64(r))
	sq := math.Exp(lnx / 2)
	q := (math.Exp(rate*dt/float64(r)) - 1/sq) / (sq - 1/sq)
	if !(q > 0 && q < 1) {
		return nil
	}
	disc := math.Exp(-rate * dt)
	w := make([]float64, r+1)
	for k := range w {
		binom := 1.0
		for i := 0; i < k; i++ {
			binom = binom * float64(r-i) / float64(i+1)
		}
		w[k] = disc * binom * math.Pow(q, float64(k)) * math.Pow(1-q, float64(r-k))
	}
	obstacle := func(depth, col int) float64 {
		return K - S*math.Exp((float64(col)+float64(r*(depth-T))/2)*lnx)
	}
	bnd0 := -1
	for bnd0 < T*r && obstacle(0, bnd0+1) > 0 {
		bnd0++
	}
	return &ObstacleLeftOneSided{
		Stencil:  Linear{MinOffset: 0, Weights: w},
		Steps:    T,
		Hi0:      T * r,
		Init:     func(col int) float64 { return math.Max(0, obstacle(0, col)) },
		Obstacle: obstacle,
		Bnd0:     bnd0,
		MaxDrop:  r,
	}
}

// FuzzObstacleOneSided drives the public one-sided obstacle engine with
// puts on lattices of span 1 to 3. Whenever BoundaryTrace accepts an
// instance, Solve must match SolveNaive to 1e-9 relative, at any base case,
// and evaluate Init and Obstacle only on the grid.
func FuzzObstacleOneSided(f *testing.F) {
	f.Add(uint16(300), uint8(0), 100.0, 105.0, 0.25, 0.02, uint8(0))
	f.Add(uint16(200), uint8(1), 100.0, 90.0, 0.3, 0.05, uint8(3))
	f.Add(uint16(399), uint8(2), 100.0, 130.0, 0.2, 0.01, uint8(8))
	f.Add(uint16(150), uint8(2), 500.0, 100.0, 0.1, 0.05, uint8(1))
	f.Add(uint16(64), uint8(0), 10.0, 300.0, 0.2, 0.03, uint8(2))
	f.Fuzz(func(t *testing.T, steps uint16, span uint8, S, K, sigma, rate float64, base uint8) {
		T, r := 1+int(steps%400), 1+int(span%3)
		if !(S >= 1 && S <= 1000 && K >= 1 && K <= 1000 && sigma >= 0.01 && sigma <= 2 && rate >= 0 && rate <= 0.2) {
			t.Skip()
		}
		p := spanPut(S, K, sigma, rate, T, r)
		if p == nil {
			t.Skip()
		}
		p.BaseCase = int(base) % (fbstencil.DefaultBaseCase + 1)
		g := &gridCheck{steps: T, lo: func(int) int { return 0 }, hi: func(d int) int { return p.Hi0 - d*r }}
		p.Init, p.Obstacle = g.init(p.Init), g.obstacle(p.Obstacle)
		if _, err := p.BoundaryTrace(); err != nil {
			t.Skip()
		}
		fast, err := p.Solve(nil)
		if err != nil {
			t.Fatal(err)
		}
		naive, err := p.SolveNaive()
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(fast-naive) > 1e-9*math.Max(1, math.Abs(naive)) {
			t.Errorf("T=%d r=%d S=%v K=%v sigma=%v rate=%v base=%d: fast %.15g naive %.15g", T, r, S, K, sigma, rate, p.BaseCase, fast, naive)
		}
		g.report(t, "ObstacleLeftOneSided")
	})
}
