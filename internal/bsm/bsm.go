// Package bsm implements American put pricing under the
// Black-Scholes-Merton model by an explicit projected finite-difference
// scheme on the log-price-transformed PDE (Section 4 of the paper), plus the
// paper's FFT-based fast solver for it ("fft-bsm"). Both index each row by
// column minus depth, where the centered stencil is one-sided: the fast
// solver runs fbstencil's one-sided green-left engine there, and the direct
// sweeps (PriceNaive, PriceNaiveParallel, PriceEuropeanNaive) run package
// sweep's loops, bitwise equal to the centered loop of Equation 5.
//
// Nondimensionalization follows Section 4.2: with s = ln(x/K),
// tau = sigma^2 (T-t)/2 and vtilde = v/K, the American put satisfies the
// obstacle problem whose explicit discretization (Equation 5) is the
// centered 3-point nonlinear stencil
//
//	v[n+1][k] = max( b*v[n][k-1] + c*v[n][k] + a*v[n][k+1],  1 - e^(s_k) )
//
// with a = lam + (omega'-1)*dtau/(2*ds), b = lam - (omega'-1)*dtau/(2*ds),
// c = 1 - omega*dtau - 2*lam, lam = dtau/ds^2, omega = 2R/sigma^2 and
// omega' = 2(R-Y)/sigma^2 (the paper's omega, extended with a continuous
// dividend yield; Y=0 recovers Equation 5 exactly).
//
// The grid is T x (2T+1) as in the paper (Figure 4b): the initial (expiry)
// row spans 2T+1 nodes centered on s0 = ln(S/K) and the dependency cone
// narrows to the apex after T steps, where the answer K*v[T][center] is
// read. Theorem 4.3 (monotone exercise boundary, which the fast solver
// relies on) requires a, b, c >= 0; New enforces it by construction and
// reports an error otherwise.
package bsm

import (
	"fmt"
	"math"

	"github.com/nlstencil/amop/internal/fbstencil"
	"github.com/nlstencil/amop/internal/linstencil"
	"github.com/nlstencil/amop/internal/option"
	"github.com/nlstencil/amop/internal/scratch"
	"github.com/nlstencil/amop/internal/sweep"
)

// MaxSteps bounds T to keep grid allocations sane.
const MaxSteps = 1 << 21

// DefaultLambda is the default ratio dtau/ds^2. Stability and Theorem 4.3
// need c = 1 - omega*dtau - 2*lambda >= 0, so any lambda <= ~1/2 works for
// small dtau; 1/3 leaves comfortable margin.
const DefaultLambda = 1.0 / 3

// Model holds the discretized BSM put problem.
type Model struct {
	Prm     option.Params
	T       int
	Omega   float64 // 2R/sigma^2
	DTau    float64
	Ds      float64
	A, B, C float64 // stencil weights: A on k+1, B on k-1, C on k
	s0      float64 // ln(S/K), the log-moneyness at the apex
	baseC   int
}

// New validates parameters and builds the discretization with ratio
// lambda = dtau/ds^2 (0 selects DefaultLambda).
func New(p option.Params, steps int, lambda float64) (*Model, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if steps < 1 {
		return nil, fmt.Errorf("bsm: steps = %d must be >= 1", steps)
	}
	if steps > MaxSteps {
		return nil, fmt.Errorf("bsm: steps = %d exceeds the supported maximum %d", steps, MaxSteps)
	}
	if lambda == 0 {
		lambda = DefaultLambda
	}
	if lambda <= 0 || lambda > 0.5 {
		return nil, fmt.Errorf("bsm: lambda = %v outside (0, 0.5]", lambda)
	}
	sigma := p.V
	omega := 2 * p.R / (sigma * sigma)
	omegaD := 2 * (p.R - p.Y) / (sigma * sigma)
	tauMax := sigma * sigma * p.E / 2
	dtau := tauMax / float64(steps)
	ds := math.Sqrt(dtau / lambda)
	drift := (omegaD - 1) * dtau / (2 * ds)
	a := lambda + drift
	b := lambda - drift
	c := 1 - omega*dtau - 2*lambda
	if a < 0 || b < 0 || c < 0 {
		return nil, fmt.Errorf("bsm: scheme coefficients (a=%v, b=%v, c=%v) must be non-negative for Theorem 4.3; decrease lambda or increase steps", a, b, c)
	}
	return &Model{
		Prm: p, T: steps, Omega: omega, DTau: dtau, Ds: ds,
		A: a, B: b, C: c, s0: math.Log(p.S / p.K),
	}, nil
}

// SetBaseCase overrides the fast solver's recursion cutoff (ablations).
func (m *Model) SetBaseCase(h int) { m.baseC = h }

// logPrice returns s_k for grid column k in [0, 2T] (apex at k = T).
func (m *Model) logPrice(col int) float64 {
	return m.s0 + float64(col-m.T)*m.Ds
}

// green returns the dimensionless exercise value 1 - e^(s_k); it does not
// depend on the depth.
func (m *Model) green(col int) float64 {
	return 1 - math.Exp(m.logPrice(col))
}

// greenTable sets tab[col] = green(col) for every column of the grid,
// [0, 2T], and returns tab, which is 2T+1 long.
func (m *Model) greenTable(tab []float64) []float64 {
	for col := range tab {
		tab[col] = m.green(col)
	}
	return tab
}

// Stencil returns the one-step linear continuation stencil.
func (m *Model) Stencil() linstencil.Stencil {
	return linstencil.Stencil{MinOff: -1, W: []float64{m.B, m.C, m.A}}
}

// leafBoundary returns the largest initial-row column in the green
// (exercise) zone, i.e. with s_k <= 0; Lo0-1 = -1 if none.
func (m *Model) leafBoundary() int {
	guess := int(math.Floor(float64(m.T) - m.s0/m.Ds))
	if guess > 2*m.T {
		guess = 2 * m.T
	}
	if guess < -1 {
		guess = -1
	}
	for guess < 2*m.T && m.logPrice(guess+1) <= 0 {
		guess++
	}
	for guess >= 0 && m.logPrice(guess) > 0 {
		guess--
	}
	return guess
}

// PriceFast prices the American put with the paper's FFT-based algorithm
// ("fft-bsm"): O(T log^2 T) work, O(T) span.
func (m *Model) PriceFast() (float64, error) {
	return m.PriceFastStats(nil)
}

// PriceFastStats is PriceFast with work-counter collection.
func (m *Model) PriceFastStats(st *fbstencil.Stats) (float64, error) {
	return m.priceFast(st, nil, nil)
}

// FastTop is PriceFast with a cancellation hook, polled at trapezoid
// granularity, that also writes, when top is non-nil, the three cells of
// the row one step above the apex, on log-prices s0-ds, s0 and s0+ds, in
// price units (see Sens).
func (m *Model) FastTop(cancel func() error, top []float64) (float64, error) {
	return m.priceFast(nil, cancel, top)
}

// Sens returns the delta, gamma and theta at the apex value v from the top
// row FastTop, EuropeanTop or NaiveTop wrote (see option.TopSens): the
// row's asset values are K*e^s on its three log-prices, and it lies one
// step, E/T of calendar time, after the apex.
func (m *Model) Sens(top []float64, v float64) option.Sens {
	var x [3]float64
	for j := range x {
		x[j] = m.Prm.K * math.Exp(m.logPrice(m.T-1+j))
	}
	return option.TopSens(x, [3]float64(top), v, m.Prm.E/float64(m.T))
}

func (m *Model) priceFast(st *fbstencil.Stats, cancel func() error, top []float64) (float64, error) {
	tab := m.greenTable(scratch.Floats(2*m.T + 1))
	defer scratch.PutFloats(tab)
	prob := m.problem(tab)
	prob.Cancel = cancel
	prob.Top = top
	v, _, err := fbstencil.SolveGreenLeftOneSided(prob, st)
	m.scale(top)
	return m.Prm.K * v, err
}

// scale turns a dimensionless row into price units.
func (m *Model) scale(row []float64) {
	for j := range row {
		row[j] *= m.Prm.K
	}
}

// problem builds the American put on depth-shifted columns c' = c-d, with
// its exercise rows read in place from tab (from greenTable): cell (depth,
// col) is grid column col+depth. The centered stencil is
// one-sided there (offsets 0..2 on columns [0, 2T-2d]), and Theorem 4.3's
// leftward boundary move of at most one grid column becomes a drop of at
// most two.
func (m *Model) problem(tab []float64) *fbstencil.GreenLeftOneSided {
	return &fbstencil.GreenLeftOneSided{
		Stencil:  linstencil.Stencil{MinOff: 0, W: []float64{m.B, m.C, m.A}},
		T:        m.T,
		Hi0:      2 * m.T,
		Init:     func(col int) float64 { return math.Max(tab[col], 0) },
		Fill:     fbstencil.TableFill(tab),
		Bnd0:     m.leafBoundary(),
		BaseCase: m.baseC,
		MaxDrop:  2,
	}
}

// SweepProblem is the American put as a baseline sweep (package sweep) on
// the fast solver's depth-shifted columns: weights {B, C, A} on offsets 0..2,
// the initial row on columns [0, 2T], and the exercise value of cell
// (depth, col) read from a table of green over the grid's columns. Its
// apex, column 0 at depth T, is grid column T. The sweep's result is
// dimensionless; multiply by K for the price.
func (m *Model) SweepProblem() *sweep.Problem {
	tab := m.greenTable(make([]float64, 2*m.T+1))
	return &sweep.Problem{
		W:            []float64{m.B, m.C, m.A},
		T:            m.T,
		Hi0:          2 * m.T,
		Leaf:         func(col int) float64 { return math.Max(tab[col], 0) },
		FillExercise: fbstencil.TableFill(tab),
	}
}

// PriceNaive is the serial projected explicit sweep over the full cone — the
// direct implementation of Equation 5. It runs sweep.Naive on SweepProblem's
// depth-shifted columns, which is bitwise equal to the centered loop on the
// unshifted grid (fbstencil.SolveGreenLeftNaive).
func (m *Model) PriceNaive() float64 {
	return m.NaiveTop(nil)
}

// NaiveTop is PriceNaive that also writes, when top is non-nil, the row
// FastTop writes: its oracle.
func (m *Model) NaiveTop(top []float64) float64 {
	p := m.SweepProblem()
	p.Top = top
	v := sweep.Naive(p)
	m.scale(top)
	return m.Prm.K * v
}

// PriceNaiveParallel is the row-parallel projected explicit sweep — the
// paper's vanilla-bsm baseline — bitwise equal to PriceNaive.
func (m *Model) PriceNaiveParallel() float64 {
	return m.Prm.K * sweep.NaiveParallel(m.SweepProblem())
}

// PriceEuropean prices the European put on the same grid with one FFT
// evolution (no obstacle) to the row one step above the apex and a direct
// step from there.
func (m *Model) PriceEuropean() float64 {
	return m.EuropeanTop(nil)
}

// EuropeanTop is PriceEuropean that also writes, when top is non-nil, the
// row FastTop writes.
func (m *Model) EuropeanTop(top []float64) float64 {
	row := make([]float64, 2*m.T+1)
	for k := range row {
		row[k] = math.Max(m.green(k), 0)
	}
	// out holds columns T-1, T and T+1 after T-1 steps of a centered
	// stencil.
	out, _ := linstencil.EvolveCone(row, m.Stencil(), m.T-1)
	copy(top, out)
	m.scale(top)
	return m.Prm.K * linstencil.Step(out, m.Stencil())[0]
}

// PriceEuropeanNaive is PriceNaive without the obstacle.
func (m *Model) PriceEuropeanNaive() float64 {
	p := m.SweepProblem()
	p.FillExercise = nil
	return m.Prm.K * sweep.Naive(p)
}
