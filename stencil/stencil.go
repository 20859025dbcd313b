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
//
// The three obstacle problem types run on one engine: ObstacleLeftOneSided
// as it stands, ObstacleRight in mirrored columns and ObstacleLeft in
// depth-shifted ones. Solve, SolveNaive and BoundaryTrace all solve the
// mapped problem, so the structure BoundaryTrace checks is the one Solve
// relies on: in the engine's columns the obstacle-active region is a prefix
// of every row, and from depth 2 on its boundary never moves right and
// moves left by at most MaxDrop columns per step.
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
// paper). It runs on ObstacleLeftOneSided's engine in mirrored columns
// c' = (T-d)*r - c over the apex's cone, with reversed weights and MaxDrop
// r. The lattice pricers reach that engine without the mirror: they price a
// call as the put of its swapped contract.
//
// Depth 0 holds the initial row on columns [0, Hi0], Hi0 >= Steps*r; at
// depth d the valid columns are [0, Hi0-d*r]; Solve returns the apex value
// (T, 0). Init and Obstacle are only evaluated on that grid.
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
func (p *ObstacleRight) Solve(st *Stats) (float64, error) { return p.engine().solve(st) }

// SolveNaive computes the same value by the direct O(T^2) sweep with no
// structural assumptions.
func (p *ObstacleRight) SolveNaive() (float64, error) { return p.engine().solveNaive() }

// BoundaryTrace solves naively while verifying the red/green structure the
// fast solver depends on, returning the largest red column per depth (-1
// if none). It traces the apex's cone, columns [0, (T-d)*r] at depth d,
// also when Hi0 > T*r, and checks that the red region is a prefix of every
// row and that from depth 2 on its boundary never moves right and moves
// left by at most r columns per step. An error identifies the first
// violated invariant, in mirrored columns.
func (p *ObstacleRight) BoundaryTrace() ([]int, error) { return p.engine().boundaryTrace() }

func (p *ObstacleRight) engine() engine {
	s := p.Stencil.internal()
	if err := s.Validate(); err != nil {
		return engine{err: err}
	}
	T, r := p.Steps, s.Span()
	switch {
	case s.MinOff != 0:
		return invalid("stencil: ObstacleRight requires MinOffset 0, got %d", s.MinOff)
	case r < 1:
		return invalid("stencil: stencil must have span >= 1")
	case p.Hi0 < T*r:
		return invalid("stencil: initial row too narrow: Hi0=%d < T*r=%d", p.Hi0, T*r)
	case p.Init == nil || p.Obstacle == nil:
		return invalid("stencil: Init and Obstacle must be set")
	case p.Bnd0 > p.Hi0:
		return invalid("stencil: Bnd0=%d beyond row end %d", p.Bnd0, p.Hi0)
	}
	hi, init := T*r, p.Init
	w := make([]float64, r+1)
	for i, wi := range s.W {
		w[r-i] = wi
	}
	mirror := func(d, c int) int { return (T-d)*r - c }
	return engine{
		q: &fbstencil.GreenLeftOneSided{
			Stencil:  linstencil.Stencil{W: w},
			T:        T,
			Hi0:      hi,
			Init:     func(c int) float64 { return init(hi - c) },
			Fill:     fill(p.Obstacle, mirror),
			Bnd0:     hi - min(p.Bnd0, hi) - 1,
			BaseCase: p.BaseCase,
			MaxDrop:  r,
		},
		cols: "mirrored columns c' = (T-d)*r - c",
		// The largest red column lies just left of the smallest green one.
		back: func(d, g int) int { return mirror(d, g) - 1 },
	}
}

// ObstacleLeft describes a free-boundary problem with a centered 3-point
// stencil (offsets -1..1) whose obstacle-active region lies to the left,
// with a boundary that moves by at most one column per step between
// interior rows (American puts under the explicit Black-Scholes scheme only
// move left; Theorem 4.3 of the paper). Cells in the active region must
// equal the obstacle exactly. It runs on ObstacleLeftOneSided's engine in
// depth-shifted columns c' = c-Lo0-d, where the stencil has offsets 0..2
// and the boundary drops at most two columns per step.
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
func (p *ObstacleLeft) Solve(st *Stats) (float64, error) { return p.engine().solve(st) }

// SolveNaive computes the same value by the direct O(T^2) sweep.
func (p *ObstacleLeft) SolveNaive() (float64, error) { return p.engine().solveNaive() }

// BoundaryTrace verifies the free-boundary structure on this instance and
// returns the largest obstacle-active column per depth (Lo0+d-1 if none;
// depth 0 holds Bnd0 clamped to [Lo0-1, Hi0]). It checks that the active
// region is a prefix of every row and that from depth 2 on its boundary
// moves by at most one column per step. An error identifies the first
// violated invariant, in depth-shifted columns.
func (p *ObstacleLeft) BoundaryTrace() ([]int, error) { return p.engine().boundaryTrace() }

func (p *ObstacleLeft) engine() engine {
	s := p.Stencil.internal()
	if err := s.Validate(); err != nil {
		return engine{err: err}
	}
	T, lo := p.Steps, p.Lo0
	switch {
	case s.MinOff != -1 || s.Span() != 2:
		return invalid("stencil: ObstacleLeft requires a centered 3-point stencil (MinOffset=-1, span=2)")
	case p.Hi0-lo != 2*T:
		return invalid("stencil: row width %d must be exactly 2*T=%d", p.Hi0-lo, 2*T)
	case p.Init == nil || p.Obstacle == nil:
		return invalid("stencil: Init and Obstacle must be set")
	}
	init := p.Init
	shift := func(d, c int) int { return c + lo + d }
	return engine{
		q: &fbstencil.GreenLeftOneSided{
			Stencil: linstencil.Stencil{W: s.W},
			T:       T,
			Hi0:     2 * T,
			Init:    func(c int) float64 { return init(c + lo) },
			Fill:    fill(p.Obstacle, shift),
			// An all-green row may carry any Bnd0 >= Hi0; the engine only
			// accepts up to its row end.
			Bnd0:     min(max(p.Bnd0, lo-1), p.Hi0) - lo,
			BaseCase: p.BaseCase,
			MaxDrop:  2,
		},
		cols: "depth-shifted columns c' = c-Lo0-d",
		back: shift,
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
func (p *ObstacleLeftOneSided) Solve(st *Stats) (float64, error) { return p.engine().solve(st) }

// SolveNaive computes the same value by the direct O(T^2) sweep.
func (p *ObstacleLeftOneSided) SolveNaive() (float64, error) { return p.engine().solveNaive() }

// BoundaryTrace verifies the free-boundary structure (contiguity; from
// depth 2 on, no right moves and drops bounded by MaxDrop) on this
// instance, and returns the largest obstacle-active column per depth (-1 if
// none).
func (p *ObstacleLeftOneSided) BoundaryTrace() ([]int, error) { return p.engine().boundaryTrace() }

func (p *ObstacleLeftOneSided) engine() engine {
	q := &fbstencil.GreenLeftOneSided{
		Stencil:  p.Stencil.internal(),
		T:        p.Steps,
		Hi0:      p.Hi0,
		Init:     p.Init,
		Bnd0:     p.Bnd0,
		BaseCase: p.BaseCase,
		MaxDrop:  p.MaxDrop,
	}
	if p.Obstacle != nil {
		q.Fill = fill(p.Obstacle, func(_, c int) int { return c })
	}
	return engine{q: q}
}

// engine is a problem mapped onto the one-sided engine, or the error that
// kept it from mapping. back maps the engine's boundary at depth d, its
// largest green column g, to the problem's (nil: the columns are the
// problem's), and cols names the map in BoundaryTrace's errors.
type engine struct {
	q    *fbstencil.GreenLeftOneSided
	err  error
	back func(d, g int) int
	cols string
}

func invalid(format string, args ...any) engine {
	return engine{err: fmt.Errorf(format, args...)}
}

// fill reads the engine's obstacle rows cell by cell, engine cell (d, c)
// from the problem's column col(d, c).
func fill(obstacle Obstacle, col func(d, c int) int) fbstencil.FillFunc {
	return func(d, lo, hi int, buf []float64) []float64 {
		out := buf[:hi-lo+1]
		for i := range out {
			out[i] = obstacle(d, col(d, lo+i))
		}
		return out
	}
}

func (e engine) solve(st *Stats) (float64, error) {
	if e.err != nil {
		return 0, e.err
	}
	v, _, err := fbstencil.SolveGreenLeftOneSided(e.q, st)
	return v, err
}

func (e engine) solveNaive() (float64, error) {
	if e.err != nil {
		return 0, e.err
	}
	return fbstencil.SolveGreenLeftOneSidedNaive(e.q)
}

func (e engine) boundaryTrace() ([]int, error) {
	if e.err != nil {
		return nil, e.err
	}
	trace, err := fbstencil.GreenLeftOneSidedBoundaryTrace(e.q)
	if err != nil {
		if e.cols != "" {
			err = fmt.Errorf("stencil: in %s: %w", e.cols, err)
		}
		return nil, err
	}
	if e.back != nil {
		for d, g := range trace {
			trace[d] = e.back(d, g)
		}
	}
	return trace, nil
}
