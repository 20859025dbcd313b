// Package lattice implements American and European option pricing on the
// grids of the paper: the Cox-Ross-Rubinstein binomial tree (Section 2, built
// by package bopm), Boyle's trinomial tree (Section 3 and Appendix A, built by
// package topm) and the Black-Scholes-Merton put grid (Section 4, built by
// package bsm), whose centered stencil is one-sided in columns minus depth.
// All three are one nonlinear stencil with children at offsets 0..r of the
// previous depth, r = 1 or 2; a Model is that stencil's weights plus the
// grid's up factor, and carries the full ladder of algorithms the paper
// benchmarks:
//
//   - PriceFast / PriceFastPut: the paper's O(T log^2 T) FFT-based
//     nonlinear-stencil algorithm ("fft-bopm", "fft-topm", "fft-bsm"), calls
//     and puts;
//   - PriceNaive / PriceNaiveParallel: the standard nested loop of Figure 1
//     ("ql-bopm", "vanilla-topm" and "vanilla-bsm" are the parallel variant);
//   - PriceTiled: cache-aware split tiling ("zb-bopm");
//   - PriceRecursive: cache-oblivious recursive tiling (Table 2);
//   - PriceEuropean / PriceEuropeanNaive: European variants (the linear
//     special case, priced with a single multi-step FFT evolution);
//   - PriceBermudan: exercise on every k-th step only.
//
// The fast call (the put of the swapped contract) and the European call (by
// put-call parity) rest on identities of the trees' weights that the BSM
// grid's do not satisfy, so that grid prices puts only.
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
	"sync"

	"github.com/nlstencil/amop/internal/fbstencil"
	"github.com/nlstencil/amop/internal/gencache"
	"github.com/nlstencil/amop/internal/linstencil"
	"github.com/nlstencil/amop/internal/option"
	"github.com/nlstencil/amop/internal/scratch"
	"github.com/nlstencil/amop/internal/sweep"
)

// Model holds the precomputed per-step quantities of a grid.
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
// [-T, T] a fast solve reaches, laid out so that every obstacle row is a
// contiguous run of it (see tabIndex). The caller owns the pooled table and
// returns it with scratch.PutFloats.
func (m *Model) exerciseTable() []float64 {
	return m.table(option.Put, scratch.Floats(2*m.T+1))
}

// table fills tab, 2T+1 long, with kind's exercise value as exerciseTable
// lays it out and returns it: S*e^(i*logU) - K for a call and
// K - S*e^(i*logU) for a put, the closed form's operations on the grid's
// shared ladder.
func (m *Model) table(kind option.Kind, tab []float64) []float64 {
	k, s := m.Prm.K, m.Prm.S
	lad := m.ladder()
	if kind == option.Call {
		for i, e := range lad {
			tab[i] = s*e - k
		}
		return tab
	}
	for i, e := range lad {
		tab[i] = k - s*e
	}
	return tab
}

// ladderLimit bounds the bytes of cached ladders. A generation holds two
// T=65536 ladders (2^17+1 cells, 1 MiB each), so the three deep grids priced
// in turn keep theirs, while the single-use grids of implied-vol iterations
// retain at most 4 MiB.
const ladderLimit = 4 * 8 * (1<<17 + 1)

// ladderKey identifies a ladder: the grid's log up factor, steps and span.
type ladderKey struct {
	logU uint64
	t, r int
}

// ladders caches the grids' ladders process-wide. Every strike and spot on
// one grid, and the swapped contract that prices a tree's call, share a
// ladder.
var ladders = struct {
	sync.Mutex
	c *gencache.Cache[ladderKey, []float64]
}{c: gencache.New[ladderKey, []float64](ladderLimit, nil)}

// ladder returns e^(i*logU) for every net move i in [-T, T] in tabIndex
// layout, shared and read-only.
func (m *Model) ladder() []float64 {
	key := ladderKey{math.Float64bits(m.logU), m.T, m.r()}
	ladders.Lock()
	lad, ok := ladders.c.Get(key)
	ladders.Unlock()
	if ok {
		return lad
	}
	lad = make([]float64, 2*m.T+1)
	for k := range lad {
		lad[m.tabIndex(k)] = math.Exp(float64(k-m.T) * m.logU)
	}
	ladders.Lock()
	if prior, ok := ladders.c.Get(key); ok {
		lad = prior // a concurrent build won; share one copy
	} else {
		ladders.c.Put(key, lad, int64(8*len(lad)))
	}
	ladders.Unlock()
	return lad
}

// tabIndex returns where exerciseTable stores net move k-T. Cell (depth,
// col) is net move (2/r)*col+depth-T. On the trinomial tree that is index k
// itself. On the binomial tree a row's moves step by two, so the table is
// split by parity: the even k first, at k/2, then the odd ones, at
// T+1+k/2.
func (m *Model) tabIndex(k int) int {
	if m.r() == 2 {
		return k
	}
	return k&1*(m.T+1) + k>>1
}

// rowView returns the exercise row fill of a table laid out as
// exerciseTable's: the row of cells (depth, lo..hi) is a view of tab,
// bitwise equal to the closed form.
func (m *Model) rowView(tab []float64) fbstencil.FillFunc {
	stride := 2 / m.r()
	return func(depth, lo, hi int, _ []float64) []float64 {
		i := m.tabIndex(stride*lo + depth)
		return tab[i : i+hi-lo+1]
	}
}

// Stencil returns the one-step linear continuation stencil
// v(d+1,j) = sum_k W[k]*v(d,j+k).
func (m *Model) Stencil() linstencil.Stencil {
	return linstencil.Stencil{MinOff: 0, W: m.W}
}

// SweepProblem builds the American baseline-sweep description of the given
// option kind, the problem the Price* sweeps below solve. Its exercise rows
// are views of the kind's table, as the fast solve's are.
func (m *Model) SweepProblem(kind option.Kind) *sweep.Problem {
	return &sweep.Problem{
		W:            m.W,
		T:            m.T,
		Hi0:          m.r() * m.T,
		Leaf:         func(col int) float64 { return m.Prm.Payoff(kind, m.Asset(0, col)) },
		FillExercise: m.rowView(m.table(kind, make([]float64, 2*m.T+1))),
	}
}

// PriceNaive is the serial nested loop of Figure 1 (American).
func (m *Model) PriceNaive(kind option.Kind) float64 {
	return m.NaiveTop(kind, nil)
}

// NaiveTop is PriceNaive that also writes, when top is non-nil, the three
// cells of the row topSteps above the apex: the oracle of FastTop's row,
// computed on the contract's own grid.
func (m *Model) NaiveTop(kind option.Kind, top []float64) float64 {
	p := m.SweepProblem(kind)
	p.Top = top
	return sweep.Naive(p)
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

// PriceEuropean prices the European option with one FFT evolution of the
// payoff row to the row topSteps above the apex and direct steps from there
// — the linear special case, O(T log T).
//
// The transform is applied to the put payoff, which is bounded by K; calls
// are recovered through put-call parity, which is exact on the lattice
// because the per-step weights satisfy the discrete martingale identity.
// Transforming the call payoff directly would lose all precision at large T:
// FFT error scales with the largest row entry, and deep-ITM call leaves grow
// like S*u^T.
func (m *Model) PriceEuropean(kind option.Kind) float64 {
	return m.EuropeanTop(kind, nil)
}

// EuropeanTop is PriceEuropean that also writes, when top is non-nil, the
// three cells of the row topSteps above the apex (see FastTop). top needs
// HasTop.
func (m *Model) EuropeanTop(kind option.Kind, top []float64) float64 {
	row := make([]float64, m.r()*m.T+1)
	for j := range row {
		row[j] = m.Prm.Payoff(option.Put, m.Asset(0, j))
	}
	k := min(m.topSteps(), m.T)
	out, _ := linstencil.EvolveCone(row, m.Stencil(), m.T-k)
	copy(top, out)
	for range k {
		out = linstencil.Step(out, m.Stencil())
	}
	put := out[0]
	if kind == option.Put {
		return put
	}
	// Parity node by node: a cell d steps before expiry carries S_j e^(-Y d dt)
	// - K e^(-R d dt) on top of the put.
	if top != nil {
		tau := float64(m.T-k) * m.Dt
		for j := range top {
			top[j] += m.Asset(m.T-k, j)*math.Exp(-m.Prm.Y*tau) - m.Prm.K*math.Exp(-m.Prm.R*tau)
		}
	}
	return put + m.Prm.S*math.Exp(-m.Prm.Y*m.Prm.E) - m.Prm.K*math.Exp(-m.Prm.R*m.Prm.E)
}

// PriceEuropeanNaive is the serial nested loop without the exercise max.
func (m *Model) PriceEuropeanNaive(kind option.Kind) float64 {
	p := m.SweepProblem(kind)
	p.FillExercise = nil
	return sweep.Naive(p)
}
