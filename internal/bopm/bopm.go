// Package bopm implements American and European option pricing under the
// Cox-Ross-Rubinstein binomial option pricing model (Section 2 of the
// paper), with the full ladder of algorithms the paper benchmarks:
//
//   - PriceFast: the paper's O(T log^2 T) FFT-based nonlinear-stencil
//     algorithm ("fft-bopm"), American calls;
//   - PriceNaive / PriceNaiveParallel: the standard nested loop of Figure 1
//     ("ql-bopm" is the parallel variant);
//   - PriceTiled: cache-aware split tiling ("zb-bopm");
//   - PriceRecursive: cache-oblivious recursive tiling (Table 2);
//   - PriceEuropean / PriceEuropeanNaive: European variants (the linear
//     special case, priced with a single multi-step FFT evolution).
//
// Grid convention follows the paper: the tree of T steps is embedded in a
// (T+1) x (T+1) grid with leaves (expiry) in the top row; we index rows by
// depth = T - i so depth 0 is expiry and depth T is the valuation apex. The
// asset price at (depth, col) is S * u^(2*col - T + depth).
package bopm

import (
	"fmt"
	"math"

	"github.com/nlstencil/amop/internal/fbstencil"
	"github.com/nlstencil/amop/internal/linstencil"
	"github.com/nlstencil/amop/internal/option"
	"github.com/nlstencil/amop/internal/scratch"
	"github.com/nlstencil/amop/internal/sweep"
)

// MaxSteps bounds T so that the extreme leaf prices S*u^(+-T) stay finite in
// float64 for any reasonable volatility (V*sqrt(E*T) < 700).
const MaxSteps = 1 << 22

// Model holds the precomputed per-step quantities of a binomial tree.
type Model struct {
	Prm   option.Params
	T     int
	Dt    float64 // time per step
	U     float64 // up factor e^(V*sqrt(dt))
	Q     float64 // risk-neutral up-move probability
	Disc  float64 // per-step discount e^(-R*dt)
	S0    float64 // weight on the down child (column j):   Disc*(1-Q)
	S1    float64 // weight on the up child (column j+1):   Disc*Q
	logU  float64
	baseC int // fbstencil recursion cutoff override (0 = default)
}

// New validates the parameters and precomputes the tree quantities.
func New(p option.Params, steps int) (*Model, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if steps < 1 {
		return nil, fmt.Errorf("bopm: steps = %d must be >= 1", steps)
	}
	if steps > MaxSteps {
		return nil, fmt.Errorf("bopm: steps = %d exceeds the supported maximum %d", steps, MaxSteps)
	}
	dt := p.E / float64(steps)
	u := math.Exp(p.V * math.Sqrt(dt))
	d := 1 / u
	q := (math.Exp((p.R-p.Y)*dt) - d) / (u - d)
	if !(q > 0 && q < 1) { // NaN too: u or the drift overflowed
		return nil, fmt.Errorf("bopm: risk-neutral probability %v outside (0,1); the drift (R-Y)*dt=%v overwhelms one volatility step — increase steps or volatility", q, (p.R-p.Y)*dt)
	}
	disc := math.Exp(-p.R * dt)
	return &Model{
		Prm: p, T: steps, Dt: dt, U: u, Q: q, Disc: disc,
		S0: disc * (1 - q), S1: disc * q, logU: math.Log(u),
	}, nil
}

// SetBaseCase overrides the fast solver's recursion cutoff (for ablation
// experiments). Zero restores the default.
func (m *Model) SetBaseCase(h int) { m.baseC = h }

// Asset returns the underlying price at cell (depth, col).
func (m *Model) Asset(depth, col int) float64 { return m.asset(2*col - m.T + depth) }

// asset returns S*u^i, the price i net up-moves away from the spot.
func (m *Model) asset(i int) float64 {
	return m.Prm.S * math.Exp(float64(i)*m.logU)
}

// Exercise returns the (unclipped) immediate-exercise value at (depth, col).
func (m *Model) Exercise(kind option.Kind, depth, col int) float64 {
	return m.exercise(kind, 2*col-m.T+depth)
}

// exercise returns the exercise value at asset(i).
func (m *Model) exercise(kind option.Kind, i int) float64 {
	if kind == option.Call {
		return m.asset(i) - m.Prm.K
	}
	return m.Prm.K - m.asset(i)
}

// exerciseTable returns the put's exercise value for every net move i in
// [-T, T] a fast solve reaches, at index i+T = 2*col + depth. The caller owns
// the pooled table and returns it with scratch.PutFloats.
func (m *Model) exerciseTable() []float64 {
	tab := scratch.Floats(2*m.T + 1)
	for k := range tab {
		tab[k] = m.exercise(option.Put, k-m.T)
	}
	return tab
}

// putGreen returns the put's exercise value as a lookup into tab (from
// exerciseTable): cell (depth, col) is tab[2*col+depth], bitwise equal to the
// closed form. Cells outside the table — the put solver's virtual columns
// left of 0 — fall back to the closed form.
func (m *Model) putGreen(tab []float64) fbstencil.GreenFunc {
	return func(depth, col int) float64 {
		if k := 2*col + depth; uint(k) < uint(len(tab)) {
			return tab[k]
		}
		return m.Exercise(option.Put, depth, col)
	}
}

// Stencil returns the one-step linear continuation stencil
// v(d+1,j) = S0*v(d,j) + S1*v(d,j+1).
func (m *Model) Stencil() linstencil.Stencil {
	return linstencil.Stencil{MinOff: 0, W: []float64{m.S0, m.S1}}
}

// leafBoundary returns the largest leaf column whose call exercise value is
// <= 0 (the initial red/green boundary), or -1 if none.
func (m *Model) leafBoundary() int {
	guess := int(math.Floor((float64(m.T) + math.Log(m.Prm.K/m.Prm.S)/m.logU) / 2))
	if guess > m.T {
		guess = m.T
	}
	if guess < -1 {
		guess = -1
	}
	for guess < m.T && m.Exercise(option.Call, 0, guess+1) <= 0 {
		guess++
	}
	for guess >= 0 && m.Exercise(option.Call, 0, guess) > 0 {
		guess--
	}
	return guess
}

// PriceFast prices the American call with the paper's FFT-based
// nonlinear-stencil algorithm: O(T log^2 T) work, O(T) span. It runs as the
// fast put of the swapped contract (see swap), so the FFT evolves values
// bounded by the spot rather than the call's red region, which reaches
// S*u^T.
func (m *Model) PriceFast() (float64, error) {
	return m.PriceFastStats(nil)
}

// PriceFastStats is PriceFast with work-counter collection.
func (m *Model) PriceFastStats(st *fbstencil.Stats) (float64, error) {
	return m.priceFast(st, nil)
}

// PriceFastCancel is PriceFast with a cancellation hook, polled at trapezoid
// granularity (typically ctx.Err of a request context); the first non-nil
// error it returns aborts the solve and is returned.
func (m *Model) PriceFastCancel(cancel func() error) (float64, error) {
	return m.priceFast(nil, cancel)
}

func (m *Model) priceFast(st *fbstencil.Stats, cancel func() error) (float64, error) {
	return m.swap().priceFastPut(st, cancel)
}

// swap returns the model of the swapped contract (S and K, R and Y
// exchanged), whose American put is this model's American call
// (McDonald–Schroder symmetry, exact on the tree): node by node,
// C(i) = u^i * P'(-i). The weights come from that identity rather than from
// New, which can reject the swap of a contract it accepts (the swapped
// up-probability underflows to 0). They are finite: S1*U = Disc*Q*U < U,
// and New rejects an infinite U.
func (m *Model) swap() *Model {
	sw := *m
	sw.Prm.S, sw.Prm.K = m.Prm.K, m.Prm.S
	sw.Prm.R, sw.Prm.Y = m.Prm.Y, m.Prm.R
	sw.S0, sw.S1 = m.S1*m.U, m.S0/m.U
	sw.Disc = sw.S0 + sw.S1
	sw.Q = sw.S1 / sw.Disc
	return &sw
}

// sweepProblem builds the baseline-sweep description for the given option
// kind; american=false drops the exercise comparison (European).
func (m *Model) sweepProblem(kind option.Kind, american bool) *sweep.Problem {
	p := &sweep.Problem{
		W:    []float64{m.S0, m.S1},
		T:    m.T,
		Hi0:  m.T,
		Leaf: func(col int) float64 { return m.Prm.Payoff(kind, m.Asset(0, col)) },
	}
	if american {
		u2 := m.U * m.U
		K := m.Prm.K
		if kind == option.Call {
			p.FillExercise = func(depth, lo, hi int, out []float64) {
				a := m.Asset(depth, lo)
				for i := range out {
					out[i] = a - K
					a *= u2
				}
			}
		} else {
			p.FillExercise = func(depth, lo, hi int, out []float64) {
				a := m.Asset(depth, lo)
				for i := range out {
					out[i] = K - a
					a *= u2
				}
			}
		}
	}
	return p
}

// PriceNaive is the serial nested loop of Figure 1 (American).
func (m *Model) PriceNaive(kind option.Kind) float64 {
	return sweep.Naive(m.sweepProblem(kind, true))
}

// PriceNaiveParallel is the row-parallel nested loop — the structure of the
// paper's ql-bopm baseline.
func (m *Model) PriceNaiveParallel(kind option.Kind) float64 {
	return sweep.NaiveParallel(m.sweepProblem(kind, true))
}

// PriceTiled is the cache-aware split-tiled sweep (zb-bopm analogue).
// tileW/tileH <= 0 select L1-sized defaults.
func (m *Model) PriceTiled(kind option.Kind, tileW, tileH int) float64 {
	return sweep.Tiled(m.sweepProblem(kind, true), tileW, tileH)
}

// PriceRecursive is the cache-oblivious recursive-tiling sweep (Table 2).
func (m *Model) PriceRecursive(kind option.Kind) float64 {
	return sweep.Recursive(m.sweepProblem(kind, true))
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
	row := make([]float64, m.T+1)
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
	return sweep.Naive(m.sweepProblem(kind, false))
}
