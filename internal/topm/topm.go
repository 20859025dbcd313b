// Package topm implements American and European option pricing under the
// trinomial option pricing model of Boyle (Section 3 and Appendix A of the
// paper). The trinomial tree of T steps embeds in a (T+1) x (2T+1) grid: the
// children of (depth, col) at the previous depth are col (down move, factor
// d), col+1 (no move) and col+2 (up move, factor u), with u = e^(V*sqrt(2*dt)).
// The asset price at (depth, col) is S * u^(col - T + depth).
//
// The paper's main text and appendix disagree on the weight labels (s0=m*p_u
// vs the value formula putting p_d on the down child); we use the
// martingale-consistent assignment s0=m*p_d, s1=m*p_o, s2=m*p_u, under which
// sum_k s_k u^(k-1) = e^(-Y*dt) as Lemma A.1's algebra requires.
package topm

import (
	"fmt"
	"math"

	"github.com/nlstencil/amop/internal/fbstencil"
	"github.com/nlstencil/amop/internal/linstencil"
	"github.com/nlstencil/amop/internal/option"
	"github.com/nlstencil/amop/internal/scratch"
	"github.com/nlstencil/amop/internal/sweep"
)

// MaxSteps bounds T so extreme node prices stay finite in float64.
const MaxSteps = 1 << 21

// Model holds the precomputed per-step quantities of a trinomial tree.
type Model struct {
	Prm        option.Params
	T          int
	Dt         float64
	U          float64 // up factor e^(V*sqrt(2*dt))
	Pu, Po, Pd float64 // up / stay / down probabilities
	Disc       float64
	S0, S1, S2 float64 // weights on children col, col+1, col+2
	logU       float64
	baseC      int
}

// New validates the parameters and precomputes the tree quantities.
func New(p option.Params, steps int) (*Model, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if steps < 1 {
		return nil, fmt.Errorf("topm: steps = %d must be >= 1", steps)
	}
	if steps > MaxSteps {
		return nil, fmt.Errorf("topm: steps = %d exceeds the supported maximum %d", steps, MaxSteps)
	}
	dt := p.E / float64(steps)
	sqU := math.Exp(p.V * math.Sqrt(dt/2)) // sqrt(u)
	sqD := 1 / sqU
	eh := math.Exp((p.R - p.Y) * dt / 2)
	pu := (eh - sqD) / (sqU - sqD)
	pu *= pu
	pd := (sqU - eh) / (sqU - sqD)
	pd *= pd
	po := 1 - pu - pd
	if !(pu > 0 && pd > 0 && po > 0) { // NaN too: u or the drift overflowed
		return nil, fmt.Errorf("topm: degenerate transition probabilities (pu=%v, po=%v, pd=%v); increase steps or volatility", pu, po, pd)
	}
	disc := math.Exp(-p.R * dt)
	return &Model{
		Prm: p, T: steps, Dt: dt, U: sqU * sqU,
		Pu: pu, Po: po, Pd: pd, Disc: disc,
		S0: disc * pd, S1: disc * po, S2: disc * pu,
		logU: 2 * math.Log(sqU),
	}, nil
}

// SetBaseCase overrides the fast solver's recursion cutoff (ablations).
func (m *Model) SetBaseCase(h int) { m.baseC = h }

// Asset returns the underlying price at cell (depth, col).
func (m *Model) Asset(depth, col int) float64 { return m.asset(col - m.T + depth) }

// asset returns S*u^i, the price i net up-moves away from the spot.
func (m *Model) asset(i int) float64 {
	return m.Prm.S * math.Exp(float64(i)*m.logU)
}

// Exercise returns the (unclipped) immediate-exercise value at (depth, col).
func (m *Model) Exercise(kind option.Kind, depth, col int) float64 {
	return m.exercise(kind, col-m.T+depth)
}

// exercise returns the exercise value at asset(i).
func (m *Model) exercise(kind option.Kind, i int) float64 {
	if kind == option.Call {
		return m.asset(i) - m.Prm.K
	}
	return m.Prm.K - m.asset(i)
}

// exerciseTable returns the put's exercise value for every net move i in
// [-T, T] a fast solve reaches, at index i+T = col + depth. The caller owns
// the pooled table and returns it with scratch.PutFloats.
func (m *Model) exerciseTable() []float64 {
	tab := scratch.Floats(2*m.T + 1)
	for k := range tab {
		tab[k] = m.exercise(option.Put, k-m.T)
	}
	return tab
}

// putGreen returns the put's exercise value as a lookup into tab (from
// exerciseTable): cell (depth, col) is tab[col+depth], bitwise equal to the
// closed form. Cells outside the table — the put solver's virtual columns
// left of 0 — fall back to the closed form.
func (m *Model) putGreen(tab []float64) fbstencil.GreenFunc {
	return func(depth, col int) float64 {
		if k := col + depth; uint(k) < uint(len(tab)) {
			return tab[k]
		}
		return m.Exercise(option.Put, depth, col)
	}
}

// Stencil returns the one-step linear continuation stencil.
func (m *Model) Stencil() linstencil.Stencil {
	return linstencil.Stencil{MinOff: 0, W: []float64{m.S0, m.S1, m.S2}}
}

// leafBoundary returns the largest leaf column with call exercise <= 0.
func (m *Model) leafBoundary() int {
	guess := int(math.Floor(float64(m.T) + math.Log(m.Prm.K/m.Prm.S)/m.logU))
	if guess > 2*m.T {
		guess = 2 * m.T
	}
	if guess < -1 {
		guess = -1
	}
	for guess < 2*m.T && m.Exercise(option.Call, 0, guess+1) <= 0 {
		guess++
	}
	for guess >= 0 && m.Exercise(option.Call, 0, guess) > 0 {
		guess--
	}
	return guess
}

// PriceFast prices the American call with the paper's FFT-based algorithm
// ("fft-topm"): O(T log^2 T) work, O(T) span. It runs as the fast put of the
// swapped contract (see swap), so the FFT evolves values bounded by the spot
// rather than the call's red region, which reaches S*u^(2T).
func (m *Model) PriceFast() (float64, error) {
	return m.PriceFastStats(nil)
}

// PriceFastStats is PriceFast with work-counter collection.
func (m *Model) PriceFastStats(st *fbstencil.Stats) (float64, error) {
	return m.priceFast(st, nil)
}

// PriceFastCancel is PriceFast with a cancellation hook, polled at trapezoid
// granularity.
func (m *Model) PriceFastCancel(cancel func() error) (float64, error) {
	return m.priceFast(nil, cancel)
}

func (m *Model) priceFast(st *fbstencil.Stats, cancel func() error) (float64, error) {
	sw := m.swap()
	if math.IsNaN(sw.Disc) || math.IsInf(sw.Disc, 0) { // U overflowed
		return 0, fmt.Errorf("topm: swapped weights (%v, %v, %v): %w", sw.S0, sw.S1, sw.S2, fbstencil.ErrNonFinite)
	}
	return sw.priceFastPut(st, cancel)
}

// swap returns the model of the swapped contract (S and K, R and Y
// exchanged), whose American put is this model's American call
// (McDonald–Schroder symmetry, exact on the tree): node by node,
// C(i) = u^i * P'(-i). The weights come from that identity rather than from
// New, which can round the swapped p_o to 0 and reject the swap of a call
// its own tree prices. Disc is the weights' sum, so it is not finite exactly
// when a weight is not.
func (m *Model) swap() *Model {
	sw := *m
	sw.Prm.S, sw.Prm.K = m.Prm.K, m.Prm.S
	sw.Prm.R, sw.Prm.Y = m.Prm.Y, m.Prm.R
	sw.S0, sw.S2 = m.S2*m.U, m.S0/m.U
	sw.Disc = sw.S0 + sw.S1 + sw.S2
	sw.Pd, sw.Po, sw.Pu = sw.S0/sw.Disc, sw.S1/sw.Disc, sw.S2/sw.Disc
	return &sw
}

func (m *Model) sweepProblem(kind option.Kind, american bool) *sweep.Problem {
	p := &sweep.Problem{
		W:    []float64{m.S0, m.S1, m.S2},
		T:    m.T,
		Hi0:  2 * m.T,
		Leaf: func(col int) float64 { return m.Prm.Payoff(kind, m.Asset(0, col)) },
	}
	if american {
		u := m.U
		K := m.Prm.K
		if kind == option.Call {
			p.FillExercise = func(depth, lo, hi int, out []float64) {
				a := m.Asset(depth, lo)
				for i := range out {
					out[i] = a - K
					a *= u
				}
			}
		} else {
			p.FillExercise = func(depth, lo, hi int, out []float64) {
				a := m.Asset(depth, lo)
				for i := range out {
					out[i] = K - a
					a *= u
				}
			}
		}
	}
	return p
}

// PriceNaive is the serial nested loop ("vanilla-topm", serial).
func (m *Model) PriceNaive(kind option.Kind) float64 {
	return sweep.Naive(m.sweepProblem(kind, true))
}

// PriceNaiveParallel is the row-parallel nested loop — the paper's
// vanilla-topm baseline.
func (m *Model) PriceNaiveParallel(kind option.Kind) float64 {
	return sweep.NaiveParallel(m.sweepProblem(kind, true))
}

// PriceTiled is the cache-aware split-tiled sweep.
func (m *Model) PriceTiled(kind option.Kind, tileW, tileH int) float64 {
	return sweep.Tiled(m.sweepProblem(kind, true), tileW, tileH)
}

// PriceRecursive is the cache-oblivious recursive-tiling sweep.
func (m *Model) PriceRecursive(kind option.Kind) float64 {
	return sweep.Recursive(m.sweepProblem(kind, true))
}

// PriceEuropean prices the European option with one T-step FFT evolution.
// As in the binomial model, the transform runs on the bounded put payoff and
// calls come out through exact lattice put-call parity (see
// bopm.PriceEuropean for why transforming the call payoff directly would be
// numerically hopeless at large T).
func (m *Model) PriceEuropean(kind option.Kind) float64 {
	row := make([]float64, 2*m.T+1)
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
