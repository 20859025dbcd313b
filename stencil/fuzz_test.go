package stencil

import (
	"math"
	"testing"

	"github.com/nlstencil/amop/internal/fbstencil"
)

// FuzzObstacleOneSided drives the public one-sided obstacle engine with
// puts on lattices of span 1 to 3, and the mirrored one with the calls of
// their swapped contracts (S and K, rate and dividend yield exchanged) as
// ObstacleRight. Whenever BoundaryTrace accepts an instance, Solve must
// match the direct sweep (SolveNaive for the put, directRight in the
// call's own columns) to 1e-9 relative, at any base case, and evaluate
// Init and Obstacle only on the grid.
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
		baseCase := int(base) % (fbstencil.DefaultBaseCase + 1)
		if p := spanPut(optParams{S: S, K: K, R: rate, V: sigma, E: 1}, T, r); lattice(p.Stencil) {
			p.BaseCase = baseCase
			g := &gridCheck{steps: T, lo: func(int) int { return 0 }, hi: func(d int) int { return p.Hi0 - d*r }}
			p.Init, p.Obstacle = g.init(p.Init), g.obstacle(p.Obstacle)
			if _, err := p.BoundaryTrace(); err == nil {
				naive, err := p.SolveNaive()
				if err != nil {
					t.Fatal(err)
				}
				fuzzSolve(t, "put", p.Solve, naive)
				g.report(t, "ObstacleLeftOneSided")
			}
		}
		if p := spanCall(optParams{S: K, K: S, Y: rate, V: sigma, E: 1}, T, r); lattice(p.Stencil) {
			p.BaseCase = baseCase
			g := &gridCheck{steps: T, lo: func(int) int { return 0 }, hi: func(d int) int { return p.Hi0 - d*r }}
			p.Init, p.Obstacle = g.init(p.Init), g.obstacle(p.Obstacle)
			if _, err := p.BoundaryTrace(); err == nil {
				fuzzSolve(t, "call", p.Solve, directRight(p))
				g.report(t, "ObstacleRight")
			}
		}
	})
}

// lattice reports whether every weight of s is positive: whether q lies in
// (0, 1), where the weights are a lattice's.
func lattice(s Linear) bool {
	for _, w := range s.Weights {
		if !(w > 0) {
			return false
		}
	}
	return true
}

// fuzzSolve fails t unless solve matches want to 1e-9 relative.
func fuzzSolve(t *testing.T, name string, solve func(*Stats) (float64, error), want float64) {
	t.Helper()
	fast, err := solve(nil)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if math.Abs(fast-want) > 1e-9*math.Max(1, math.Abs(want)) {
		t.Errorf("%s: fast %.15g, direct sweep %.15g", name, fast, want)
	}
}
