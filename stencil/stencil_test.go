package stencil

import (
	"fmt"
	"math"
	"math/rand"
	"sync/atomic"
	"testing"
)

// heatObstacle builds an obstacle problem with the monotone free-boundary
// structure: an explicit heat-equation step with decay, floored by the
// stationary obstacle 1 - e^(x). This is the dimensionless form of the
// American-put variational inequality, framed as a generic PDE obstacle
// problem.
func heatObstacle(T int, shift, decay float64) *ObstacleLeft {
	lam := 1.0 / 3
	dtau := 1e-4
	ds := math.Sqrt(dtau / lam)
	a := lam - dtau/(2*ds)
	b := lam + dtau/(2*ds)
	c := 1 - decay*dtau - 2*lam
	x := func(col int) float64 { return shift + float64(col-T)*ds }
	bnd0 := T
	for bnd0 < 2*T && x(bnd0+1) <= 0 {
		bnd0++
	}
	for bnd0 >= 0 && x(bnd0) > 0 {
		bnd0--
	}
	return &ObstacleLeft{
		Stencil:  Linear{MinOffset: -1, Weights: []float64{b, c, a}},
		Steps:    T,
		Lo0:      0,
		Hi0:      2 * T,
		Init:     func(col int) float64 { return math.Max(1-math.Exp(x(col)), 0) },
		Obstacle: func(depth, col int) float64 { return 1 - math.Exp(x(col)) },
		Bnd0:     bnd0,
	}
}

func TestLinearEvolveMatchesDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	s := Linear{MinOffset: -1, Weights: []float64{0.3, 0.35, 0.3}}
	row := make([]float64, 300)
	for i := range row {
		row[i] = rng.NormFloat64()
	}
	vals, first, err := s.Evolve(row, 50)
	if err != nil {
		t.Fatal(err)
	}
	if first != 50 {
		t.Errorf("firstPos = %d, want 50", first)
	}
	// One manual direct evolution for comparison.
	cur := append([]float64(nil), row...)
	for step := 0; step < 50; step++ {
		next := make([]float64, len(cur)-2)
		for j := range next {
			next[j] = 0.3*cur[j] + 0.35*cur[j+1] + 0.3*cur[j+2]
		}
		cur = next
	}
	for i := range vals {
		if math.Abs(vals[i]-cur[i]) > 1e-9 {
			t.Fatalf("mismatch at %d: %g vs %g", i, vals[i], cur[i])
		}
	}
}

func TestLinearEvolveErrors(t *testing.T) {
	s := Linear{MinOffset: 0, Weights: []float64{0.5, 0.5}}
	if _, _, err := s.Evolve(make([]float64, 4), -1); err == nil {
		t.Error("negative steps accepted")
	}
	if _, _, err := s.Evolve(make([]float64, 4), 4); err == nil {
		t.Error("empty cone accepted")
	}
	if _, _, err := (Linear{}).Evolve(make([]float64, 4), 1); err == nil {
		t.Error("empty stencil accepted")
	}
	if _, err := s.EvolvePeriodic(make([]float64, 5), 1); err == nil {
		t.Error("non-power-of-two ring accepted")
	}
}

func TestPeriodicConservation(t *testing.T) {
	s := Linear{MinOffset: -1, Weights: []float64{0.25, 0.5, 0.25}}
	row := make([]float64, 64)
	rng := rand.New(rand.NewSource(62))
	sum := 0.0
	for i := range row {
		row[i] = rng.Float64()
		sum += row[i]
	}
	out, err := s.EvolvePeriodic(row, 100)
	if err != nil {
		t.Fatal(err)
	}
	got := 0.0
	for _, v := range out {
		got += v
	}
	if math.Abs(got-sum) > 1e-9*sum {
		t.Errorf("mass not conserved: %g -> %g", sum, got)
	}
}

func TestObstacleLeftFastMatchesNaive(t *testing.T) {
	for _, shift := range []float64{-0.4, 0, 0.3} {
		for _, decay := range []float64{0.05, 1.0} {
			p := heatObstacle(400, shift, decay)
			fast, err := p.Solve(nil)
			if err != nil {
				t.Fatal(err)
			}
			naive, err := p.SolveNaive()
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(fast-naive) > 1e-10 {
				t.Errorf("shift=%v decay=%v: fast %.12g naive %.12g", shift, decay, fast, naive)
			}
		}
	}
}

func TestObstacleLeftBoundaryTrace(t *testing.T) {
	p := heatObstacle(300, 0.1, 0.5)
	if _, err := p.BoundaryTrace(); err != nil {
		t.Errorf("structure violated: %v", err)
	}
}

// binomialCall is a binomial-call-like instance expressed through the
// public API.
func binomialCall(T int) *ObstacleRight {
	u := math.Exp(0.2 * math.Sqrt(1.0/float64(T)))
	d := 1 / u
	q := (math.Exp((0.02-0.04)/float64(T)) - d) / (u - d)
	disc := math.Exp(-0.02 / float64(T))
	green := func(depth, col int) float64 {
		return 100*math.Pow(u, float64(2*col-T+depth)) - 100
	}
	bnd0 := T / 2
	for bnd0 < T && green(0, bnd0+1) <= 0 {
		bnd0++
	}
	for bnd0 >= 0 && green(0, bnd0) > 0 {
		bnd0--
	}
	return &ObstacleRight{
		Stencil:  Linear{MinOffset: 0, Weights: []float64{disc * (1 - q), disc * q}},
		Steps:    T,
		Hi0:      T,
		Init:     func(col int) float64 { return math.Max(0, green(0, col)) },
		Obstacle: green,
		Bnd0:     bnd0,
	}
}

func TestObstacleRight(t *testing.T) {
	p := binomialCall(300)
	fast, err := p.Solve(nil)
	if err != nil {
		t.Fatal(err)
	}
	naive, err := p.SolveNaive()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fast-naive) > 1e-9 {
		t.Errorf("fast %.12g naive %.12g", fast, naive)
	}
	if _, err := p.BoundaryTrace(); err != nil {
		t.Errorf("structure violated: %v", err)
	}
}

func TestStatsPopulated(t *testing.T) {
	p := heatObstacle(2000, 0, 0.5)
	var st Stats
	if _, err := p.Solve(&st); err != nil {
		t.Fatal(err)
	}
	if st.FFTCalls.Load() == 0 {
		t.Error("no FFT calls recorded on a large instance")
	}
	if st.NaiveCells.Load() == 0 {
		t.Error("no naive cells recorded")
	}
}

// binomialPut is a binomial-put-like instance of the one-sided engine,
// expressed through the public API.
func binomialPut(T int) *ObstacleLeftOneSided {
	u := math.Exp(0.25 * math.Sqrt(1.0/float64(T)))
	d := 1 / u
	q := (math.Exp(0.02/float64(T)) - d) / (u - d)
	disc := math.Exp(-0.02 / float64(T))
	obstacle := func(depth, col int) float64 {
		return 105 - 100*math.Pow(u, float64(2*col-T+depth))
	}
	bnd0 := -1
	for j := 0; j <= T; j++ {
		if obstacle(0, j) > 0 {
			bnd0 = j
		}
	}
	return &ObstacleLeftOneSided{
		Stencil:  Linear{MinOffset: 0, Weights: []float64{disc * (1 - q), disc * q}},
		Steps:    T,
		Hi0:      T,
		Init:     func(col int) float64 { return math.Max(0, obstacle(0, col)) },
		Obstacle: obstacle,
		Bnd0:     bnd0,
	}
}

// TestObstacleLeftOneSided exercises the put-like one-sided engine through
// the public API.
func TestObstacleLeftOneSided(t *testing.T) {
	p := binomialPut(300)
	if _, err := p.BoundaryTrace(); err != nil {
		t.Fatalf("structure: %v", err)
	}
	fast, err := p.Solve(nil)
	if err != nil {
		t.Fatal(err)
	}
	naive, err := p.SolveNaive()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fast-naive) > 1e-9 {
		t.Errorf("fast %.12g naive %.12g", fast, naive)
	}
}

// gridCheck wraps Init and Obstacle to count the calls off a grid whose row
// at depth d spans columns [lo(d), hi(d)], d in [0, steps]. The solvers
// call them from forked goroutines, so the count is atomic.
type gridCheck struct {
	steps  int
	lo, hi func(d int) int
	off    atomic.Int64
	first  atomic.Pointer[string]
}

func (g *gridCheck) at(d, col int) {
	if d < 0 || d > g.steps || col < g.lo(d) || col > g.hi(d) {
		if g.off.Add(1) == 1 {
			msg := fmt.Sprintf("(%d, %d)", d, col)
			g.first.Store(&msg)
		}
	}
}

func (g *gridCheck) init(f func(int) float64) func(int) float64 {
	return func(col int) float64 { g.at(0, col); return f(col) }
}

func (g *gridCheck) obstacle(f Obstacle) Obstacle {
	return func(d, col int) float64 { g.at(d, col); return f(d, col) }
}

// report fails t if any call left the grid.
func (g *gridCheck) report(t *testing.T, name string) {
	t.Helper()
	if n := g.off.Load(); n > 0 {
		t.Errorf("%s: %d calls off the grid, the first at %s", name, n, *g.first.Load())
	}
}

// TestObstacleOnGrid: the three public types evaluate Init and Obstacle only
// on the grid their docs promise, through Solve, SolveNaive and
// BoundaryTrace.
func TestObstacleOnGrid(t *testing.T) {
	const T = 2000
	zero := func(int) int { return 0 }

	right := binomialCall(T)
	g := &gridCheck{steps: T, lo: zero, hi: func(d int) int { return right.Hi0 - d }}
	right.Init, right.Obstacle = g.init(right.Init), g.obstacle(right.Obstacle)
	runAll(t, "ObstacleRight", right.Solve, right.SolveNaive, right.BoundaryTrace)
	g.report(t, "ObstacleRight")

	left := heatObstacle(T, 0.05, 0.5)
	g = &gridCheck{steps: T, lo: func(d int) int { return left.Lo0 + d }, hi: func(d int) int { return left.Hi0 - d }}
	left.Init, left.Obstacle = g.init(left.Init), g.obstacle(left.Obstacle)
	runAll(t, "ObstacleLeft", left.Solve, left.SolveNaive, left.BoundaryTrace)
	g.report(t, "ObstacleLeft")

	put := binomialPut(T)
	g = &gridCheck{steps: T, lo: zero, hi: func(d int) int { return put.Hi0 - d }}
	put.Init, put.Obstacle = g.init(put.Init), g.obstacle(put.Obstacle)
	runAll(t, "ObstacleLeftOneSided", put.Solve, put.SolveNaive, put.BoundaryTrace)
	g.report(t, "ObstacleLeftOneSided")
}

// runAll runs a problem's three solvers and checks the fast one against the
// direct sweep.
func runAll(t *testing.T, name string, solve func(*Stats) (float64, error), naive func() (float64, error), trace func() ([]int, error)) {
	t.Helper()
	fast, err := solve(nil)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	want, err := naive()
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if math.Abs(fast-want) > 1e-9*(1+math.Abs(want)) {
		t.Errorf("%s: fast %.12g naive %.12g", name, fast, want)
	}
	if _, err := trace(); err != nil {
		t.Errorf("%s: %v", name, err)
	}
}
