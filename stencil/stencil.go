// Package stencil exposes the generic 1D stencil machinery underlying the
// option pricers, for stencil computations beyond quantitative finance
// (the paper's closing point: nonlinear free-boundary stencils appear in
// obstacle problems, phase-change fronts, and variational inequalities
// generally).
//
// Two layers are provided:
//
//   - Linear stencils: evolve a row k steps at once via the FFT in
//     O(N (log N + log k)) instead of O(N k) (Ahmad et al., SPAA 2021).
//   - Free-boundary ("obstacle") nonlinear stencils: updates of the form
//     max(linear combination, closed-form obstacle), solved in O(T log^2 T)
//     work when the red/green boundary is monotone — the PPoPP 2024 paper's
//     core contribution.
package stencil

import (
	"fmt"

	"github.com/nlstencil/amop/internal/fbstencil"
	"github.com/nlstencil/amop/internal/linstencil"
)

// Linear is a linear 1D stencil: one step computes
// next[j] = sum_i Weights[i] * cur[j + MinOffset + i].
type Linear struct {
	MinOffset int
	Weights   []float64
}

func (s Linear) internal() linstencil.Stencil {
	return linstencil.Stencil{MinOff: s.MinOffset, W: s.Weights}
}

// Validate reports whether the stencil is well formed.
func (s Linear) Validate() error { return s.internal().Validate() }

// Evolve advances row by steps applications of the stencil and returns the
// positions whose dependency cone lies entirely inside the input: vals[i] is
// the value at position firstPos+i of the original indexing.
func (s Linear) Evolve(row []float64, steps int) (vals []float64, firstPos int, err error) {
	if err := s.Validate(); err != nil {
		return nil, 0, err
	}
	if steps < 0 {
		return nil, 0, fmt.Errorf("stencil: negative step count %d", steps)
	}
	if len(row)-steps*s.internal().Span() <= 0 {
		return nil, 0, fmt.Errorf("stencil: no position is computable from %d cells after %d steps of a span-%d stencil", len(row), steps, s.internal().Span())
	}
	vals, firstPos = linstencil.EvolveCone(row, s.internal(), steps)
	return vals, firstPos, nil
}

// EvolvePeriodic advances a ring of power-of-two size by steps applications
// of the stencil.
func (s Linear) EvolvePeriodic(row []float64, steps int) ([]float64, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if steps < 0 {
		return nil, fmt.Errorf("stencil: negative step count %d", steps)
	}
	if n := len(row); n == 0 || n&(n-1) != 0 {
		return nil, fmt.Errorf("stencil: periodic evolution requires power-of-two length, got %d", len(row))
	}
	return linstencil.EvolvePeriodic(row, s.internal(), steps), nil
}

// Obstacle is the closed-form lower bound ("green" value) of cell
// (depth, col) in a free-boundary problem. The solvers evaluate it only on
// the problem's grid.
type Obstacle func(depth, col int) float64

// Stats aliases the engine's work counters.
type Stats = fbstencil.Stats

// ObstacleRight describes a free-boundary problem whose stencil has offsets
// 0..r and whose obstacle-active region lies to the right of the linear
// region in every row, with a boundary that never moves right and moves left
// by at most r columns per step between interior rows (American calls under
// binomial/trinomial trees move at most one; Corollaries 2.7 and A.6 of the
// paper). Solve runs it on the same engine as ObstacleLeftOneSided, in
// mirrored columns. The lattice pricers reach that engine without the
// mirror: they price a call as the put of its swapped contract.
//
// Depth 0 holds the initial row on columns [0, Hi0]; at depth d the valid
// columns are [0, Hi0-d*r]; Solve returns the apex value (T, 0). Init and
// Obstacle are only evaluated on that grid.
type ObstacleRight struct {
	Stencil  Linear
	Steps    int
	Hi0      int
	Init     func(col int) float64
	Obstacle Obstacle
	// Bnd0 is the largest column of the initial row where the obstacle is
	// NOT strictly dominant (-1 if none); columns right of it must satisfy
	// Init(col) == Obstacle(0, col).
	Bnd0 int
	// BaseCase overrides the recursion cutoff (0 = default).
	BaseCase int
}

// Solve runs the fast O(T log^2 T) solver. The monotone-boundary structure
// is assumed, not checked; use SolveNaive to cross-validate on new problem
// classes.
func (p *ObstacleRight) Solve(st *Stats) (float64, error) {
	v, _, err := fbstencil.SolveGreenRight(p.problem(), st)
	return v, err
}

// SolveNaive computes the same value by the direct O(T^2) sweep with no
// structural assumptions.
func (p *ObstacleRight) SolveNaive() (float64, error) {
	return fbstencil.SolveGreenRightNaive(p.problem())
}

// BoundaryTrace solves naively while verifying the red/green structure the
// fast solver depends on, returning the boundary column per depth. An error
// identifies the first violated invariant.
func (p *ObstacleRight) BoundaryTrace() ([]int, error) {
	return fbstencil.GreenRightBoundaryTrace(p.problem())
}

func (p *ObstacleRight) problem() *fbstencil.GreenRight {
	return &fbstencil.GreenRight{
		Stencil:  p.Stencil.internal(),
		T:        p.Steps,
		Hi0:      p.Hi0,
		Init:     p.Init,
		Green:    fbstencil.GreenFunc(p.Obstacle),
		Bnd0:     p.Bnd0,
		BaseCase: p.BaseCase,
	}
}

// ObstacleLeft describes a free-boundary problem with a centered 3-point
// stencil (offsets -1..1) whose obstacle-active region lies to the left,
// with a boundary that moves left by at most one column per step between
// interior rows (the structure of American puts under the explicit
// Black-Scholes scheme; Theorem 4.3 of the paper). Cells in the active
// region must equal the obstacle exactly.
//
// Depth 0 holds the initial row on columns [Lo0, Hi0] with Hi0-Lo0 = 2*Steps;
// at depth d the valid columns are [Lo0+d, Hi0-d]; Solve returns the apex
// value (Steps, Lo0+Steps). Init and Obstacle are only evaluated on that
// grid.
type ObstacleLeft struct {
	Stencil  Linear
	Steps    int
	Lo0, Hi0 int
	Init     func(col int) float64
	Obstacle Obstacle
	// Bnd0 is the largest initial-row column where the obstacle strictly
	// dominates (Lo0-1 if none).
	Bnd0     int
	BaseCase int
}

// Solve runs the fast O(T log^2 T) solver.
func (p *ObstacleLeft) Solve(st *Stats) (float64, error) {
	v, _, err := fbstencil.SolveGreenLeft(p.problem(), st)
	return v, err
}

// SolveNaive computes the same value by the direct O(T^2) sweep.
func (p *ObstacleLeft) SolveNaive() (float64, error) {
	return fbstencil.SolveGreenLeftNaive(p.problem())
}

// BoundaryTrace verifies the free-boundary structure on this instance.
func (p *ObstacleLeft) BoundaryTrace() ([]int, error) {
	return fbstencil.GreenLeftBoundaryTrace(p.problem())
}

func (p *ObstacleLeft) problem() *fbstencil.GreenLeft {
	return &fbstencil.GreenLeft{
		Stencil:  p.Stencil.internal(),
		T:        p.Steps,
		Lo0:      p.Lo0,
		Hi0:      p.Hi0,
		Init:     p.Init,
		Green:    fbstencil.GreenFunc(p.Obstacle),
		Bnd0:     p.Bnd0,
		BaseCase: p.BaseCase,
	}
}

// ObstacleLeftOneSided describes a free-boundary problem with stencil
// offsets 0..r and the obstacle-active region on the LEFT — the structure of
// American puts on binomial/trinomial lattices, which is ObstacleRight's in
// mirrored columns (the put of a contract is the call of its swapped one).
// Run BoundaryTrace to check the structure on new problem classes.
//
// Geometry matches ObstacleRight (columns [0, Hi0-d*r] at depth d; Solve
// returns the apex (Steps, 0); Init and Obstacle are only evaluated on that
// grid). Obstacle-active cells must equal Obstacle exactly. MaxDrop bounds
// how far the boundary may move left per interior step (0 means 1;
// trinomial-like grids need 2).
type ObstacleLeftOneSided struct {
	Stencil  Linear
	Steps    int
	Hi0      int
	Init     func(col int) float64
	Obstacle Obstacle
	// Bnd0 is the largest initial-row column where the obstacle strictly
	// dominates (-1 if none).
	Bnd0     int
	BaseCase int
	MaxDrop  int
}

// Solve runs the fast O(T log^2 T) solver.
func (p *ObstacleLeftOneSided) Solve(st *Stats) (float64, error) {
	v, _, err := fbstencil.SolveGreenLeftOneSided(p.problem(), st)
	return v, err
}

// SolveNaive computes the same value by the direct O(T^2) sweep.
func (p *ObstacleLeftOneSided) SolveNaive() (float64, error) {
	return fbstencil.SolveGreenLeftOneSidedNaive(p.problem())
}

// BoundaryTrace verifies the free-boundary structure (contiguity, no right
// moves, drops bounded by MaxDrop) on this instance.
func (p *ObstacleLeftOneSided) BoundaryTrace() ([]int, error) {
	return fbstencil.GreenLeftOneSidedBoundaryTrace(p.problem())
}

func (p *ObstacleLeftOneSided) problem() *fbstencil.GreenLeftOneSided {
	q := &fbstencil.GreenLeftOneSided{
		Stencil:  p.Stencil.internal(),
		T:        p.Steps,
		Hi0:      p.Hi0,
		Init:     p.Init,
		Bnd0:     p.Bnd0,
		BaseCase: p.BaseCase,
		MaxDrop:  p.MaxDrop,
	}
	if obstacle := p.Obstacle; obstacle != nil {
		q.Fill = func(depth, lo, hi int, buf []float64) []float64 {
			out := buf[:hi-lo+1]
			for i := range out {
				out[i] = obstacle(depth, lo+i)
			}
			return out
		}
	}
	return q
}
