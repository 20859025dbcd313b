// Package lattice implements American and European option pricing on the
// recombining trees of the paper: the Cox-Ross-Rubinstein binomial tree
// (Section 2, built by package bopm) and Boyle's trinomial tree (Section 3 and
// Appendix A, built by package topm). Both are one nonlinear stencil with
// children at offsets 0..r of the previous depth, r = 1 or 2; a Model is that
// stencil's weights plus the tree's up factor, and carries the full ladder of
// algorithms the paper benchmarks:
//
//   - PriceFast / PriceFastPut: the paper's O(T log^2 T) FFT-based
//     nonlinear-stencil algorithm ("fft-bopm", "fft-topm"), calls and puts;
//   - PriceNaive / PriceNaiveParallel: the standard nested loop of Figure 1
//     ("ql-bopm" and "vanilla-topm" are the parallel variant);
//   - PriceTiled: cache-aware split tiling ("zb-bopm");
//   - PriceRecursive: cache-oblivious recursive tiling (Table 2);
//   - PriceEuropean / PriceEuropeanNaive: European variants (the linear
//     special case, priced with a single multi-step FFT evolution);
//   - PriceBermudan: exercise on every k-th step only.
//
// Grid convention follows the paper: the tree of T steps is embedded in a
// (T+1) x (r*T+1) grid with leaves (expiry) in the top row; rows are indexed
// by depth = T - i, so depth 0 is expiry and depth T is the valuation apex.
// A node's r+1 children span net moves -1..+1, so one column is 2/r net
// up-moves and the asset price at (depth, col) is S * u^((2/r)*col - T + depth).
package lattice

import (
	"fmt"
	"math"

	"github.com/nlstencil/amop/internal/fbstencil"
	"github.com/nlstencil/amop/internal/linstencil"
	"github.com/nlstencil/amop/internal/option"
	"github.com/nlstencil/amop/internal/scratch"
	"github.com/nlstencil/amop/internal/sweep"
)

// Model holds the precomputed per-step quantities of a tree.
type Model struct {
	Prm  option.Params
	T    int
	Dt   float64   // time per step
	U    float64   // factor of one net up-move
	Disc float64   // per-step discount e^(-R*dt)
	W    []float64 // weights on the children at offsets 0..r of the previous depth
	logU float64
	// baseC is the fbstencil recursion cutoff override (0 = default).
	baseC int
}

// New returns the model of a steps-step tree on p whose one net up-move
// multiplies the price by u = e^logU and whose nodes weigh their children at
// offsets 0..len(w)-1 by w. The weights have two or three entries; the
// caller validates p and derives u and w from it.
func New(p option.Params, steps int, u, logU float64, w []float64) *Model {
	if len(w) != 2 && len(w) != 3 {
		panic(fmt.Sprintf("lattice: %d weights; a tree has 2 or 3", len(w)))
	}
	dt := p.E / float64(steps)
	return &Model{Prm: p, T: steps, Dt: dt, U: u, Disc: math.Exp(-p.R * dt), W: w, logU: logU}
}

// SetBaseCase overrides the fast solver's recursion cutoff (for ablation
// experiments). Zero restores the default.
func (m *Model) SetBaseCase(h int) { m.baseC = h }

// r is the stencil's span: the last child offset.
func (m *Model) r() int { return len(m.W) - 1 }

// moves returns the net up-moves from the spot at cell (depth, col).
func (m *Model) moves(depth, col int) int { return 2/m.r()*col - m.T + depth }

// Asset returns the underlying price at cell (depth, col).
func (m *Model) Asset(depth, col int) float64 { return m.asset(m.moves(depth, col)) }

// asset returns S*u^i, the price i net up-moves away from the spot.
func (m *Model) asset(i int) float64 {
	return m.Prm.S * math.Exp(float64(i)*m.logU)
}

// Exercise returns the (unclipped) immediate-exercise value at (depth, col).
func (m *Model) Exercise(kind option.Kind, depth, col int) float64 {
	return m.exercise(kind, m.moves(depth, col))
}

// exercise returns the exercise value at asset(i).
func (m *Model) exercise(kind option.Kind, i int) float64 {
	if kind == option.Call {
		return m.asset(i) - m.Prm.K
	}
	return m.Prm.K - m.asset(i)
}

// exerciseTable returns the put's exercise value for every net move i in
// [-T, T] a fast solve reaches, at index i+T. The caller owns the pooled
// table and returns it with scratch.PutFloats.
func (m *Model) exerciseTable() []float64 {
	tab := scratch.Floats(2*m.T + 1)
	for k := range tab {
		tab[k] = m.exercise(option.Put, k-m.T)
	}
	return tab
}

// putFill returns the put's exercise row fill: cell (depth, col) is tab
// (from exerciseTable) at index (2/r)*col+depth, bitwise equal to the closed
// form.
func (m *Model) putFill(tab []float64) fbstencil.FillFunc {
	if m.r() == 2 {
		return fbstencil.TableFill(tab)
	}
	return func(depth, lo, _ int, out []float64) {
		for i := range out {
			out[i] = tab[2*(lo+i)+depth]
		}
	}
}

// Stencil returns the one-step linear continuation stencil
// v(d+1,j) = sum_k W[k]*v(d,j+k).
func (m *Model) Stencil() linstencil.Stencil {
	return linstencil.Stencil{MinOff: 0, W: m.W}
}

// SweepProblem builds the American baseline-sweep description of the given
// option kind, the problem the Price* sweeps below solve.
func (m *Model) SweepProblem(kind option.Kind) *sweep.Problem {
	p := &sweep.Problem{
		W:    m.W,
		T:    m.T,
		Hi0:  m.r() * m.T,
		Leaf: func(col int) float64 { return m.Prm.Payoff(kind, m.Asset(0, col)) },
	}
	// One column is 2/r net up-moves.
	f := m.U
	if m.r() == 1 {
		f *= m.U
	}
	K := m.Prm.K
	if kind == option.Call {
		p.FillExercise = func(depth, lo, hi int, out []float64) {
			a := m.Asset(depth, lo)
			for i := range out {
				out[i] = a - K
				a *= f
			}
		}
	} else {
		p.FillExercise = func(depth, lo, hi int, out []float64) {
			a := m.Asset(depth, lo)
			for i := range out {
				out[i] = K - a
				a *= f
			}
		}
	}
	return p
}

// PriceNaive is the serial nested loop of Figure 1 (American).
func (m *Model) PriceNaive(kind option.Kind) float64 {
	return sweep.Naive(m.SweepProblem(kind))
}

// PriceNaiveParallel is the row-parallel nested loop — the structure of the
// paper's ql-bopm and vanilla-topm baselines.
func (m *Model) PriceNaiveParallel(kind option.Kind) float64 {
	return sweep.NaiveParallel(m.SweepProblem(kind))
}

// PriceTiled is the cache-aware split-tiled sweep (zb-bopm analogue).
// tileW/tileH <= 0 select L1-sized defaults.
func (m *Model) PriceTiled(kind option.Kind, tileW, tileH int) float64 {
	return sweep.Tiled(m.SweepProblem(kind), tileW, tileH)
}

// PriceRecursive is the cache-oblivious recursive-tiling sweep (Table 2).
func (m *Model) PriceRecursive(kind option.Kind) float64 {
	return sweep.Recursive(m.SweepProblem(kind))
}

// PriceEuropean prices the European option with a single T-step FFT
// evolution of the payoff row — the linear special case, O(T log T).
//
// The transform is applied to the put payoff, which is bounded by K; calls
// are recovered through put-call parity, which is exact on the lattice
// because the per-step weights satisfy the discrete martingale identity.
// Transforming the call payoff directly would lose all precision at large T:
// FFT error scales with the largest row entry, and deep-ITM call leaves grow
// like S*u^T.
func (m *Model) PriceEuropean(kind option.Kind) float64 {
	row := make([]float64, m.r()*m.T+1)
	for j := range row {
		row[j] = m.Prm.Payoff(option.Put, m.Asset(0, j))
	}
	out, _ := linstencil.EvolveCone(row, m.Stencil(), m.T)
	put := out[0]
	if kind == option.Put {
		return put
	}
	return put + m.Prm.S*math.Exp(-m.Prm.Y*m.Prm.E) - m.Prm.K*math.Exp(-m.Prm.R*m.Prm.E)
}

// PriceEuropeanNaive is the serial nested loop without the exercise max.
func (m *Model) PriceEuropeanNaive(kind option.Kind) float64 {
	p := m.SweepProblem(kind)
	p.FillExercise = nil
	return sweep.Naive(p)
}
