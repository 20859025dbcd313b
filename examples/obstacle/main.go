// Obstacle demonstrates the nonlinear-stencil engine outside finance (the
// paper's closing remark: these stencils are "of independent interest with
// potential applications beyond quantitative finance").
//
// We solve a parabolic obstacle problem: heat diffusing through a rod that
// sits on a rigid, temperature-clamped support
//
//	u_t = u_xx - decay*u,   u(x, t) >= phi(x) = 1 - e^x,
//
// discretized explicitly, so each step is max(3-point stencil, phi). The
// contact set {u = phi} plays the role of the paper's "green" region and its
// free boundary moves monotonically — exactly the structure the fast solver
// exploits. We verify structure and agreement with the direct sweep, then
// compare running times.
package main

import (
	"fmt"
	"log"
	"math"
	"time"

	"github.com/nlstencil/amop/stencil"
)

func buildProblem(T int) *stencil.ObstacleLeft {
	lam := 1.0 / 3
	dt := 1e-4
	dx := math.Sqrt(dt / lam)
	decay := 0.4
	a := lam - dt/(2*dx) // drift-adjusted right weight
	b := lam + dt/(2*dx)
	c := 1 - decay*dt - 2*lam

	x := func(col int) float64 { return 0.15 + float64(col-T)*dx }
	phi := func(col int) float64 { return 1 - math.Exp(x(col)) }

	bnd0 := T
	for bnd0 < 2*T && x(bnd0+1) <= 0 {
		bnd0++
	}
	for bnd0 >= 0 && x(bnd0) > 0 {
		bnd0--
	}
	return &stencil.ObstacleLeft{
		Stencil:  stencil.Linear{MinOffset: -1, Weights: []float64{b, c, a}},
		Steps:    T,
		Lo0:      0,
		Hi0:      2 * T,
		Init:     func(col int) float64 { return math.Max(phi(col), 0) },
		Obstacle: func(depth, col int) float64 { return phi(col) },
		Bnd0:     bnd0,
	}
}

func main() {
	// 1. Validate the free-boundary structure on a moderate instance.
	p := buildProblem(2000)
	trace, err := p.BoundaryTrace()
	if err != nil {
		log.Fatalf("structure check failed: %v", err)
	}
	fmt.Printf("contact-set boundary: starts at column %d, ends at column %d after %d steps\n",
		trace[0], trace[len(trace)-1], p.Steps)

	// 2. Fast vs direct agreement.
	fast, err := p.Solve(nil)
	if err != nil {
		log.Fatal(err)
	}
	naive, err := p.SolveNaive()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("apex temperature: fast %.12f, direct %.12f (diff %.1e)\n\n",
		fast, naive, math.Abs(fast-naive))

	// 3. Scaling comparison.
	fmt.Printf("%9s  %12s  %12s  %8s\n", "steps", "fast", "direct", "speedup")
	for _, T := range []int{4000, 8000, 16000} {
		p := buildProblem(T)
		start := time.Now()
		var st stencil.Stats
		if _, err := p.Solve(&st); err != nil {
			log.Fatal(err)
		}
		tf := time.Since(start)
		start = time.Now()
		if _, err := p.SolveNaive(); err != nil {
			log.Fatal(err)
		}
		tn := time.Since(start)
		fmt.Printf("%9d  %12v  %12v  %7.1fx   (%d FFT evolutions, %d direct cells)\n",
			T, tf.Round(time.Microsecond), tn.Round(time.Microsecond),
			float64(tn)/float64(tf), st.FFTCalls.Load(), st.NaiveCells.Load())
	}
}
