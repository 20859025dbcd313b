package lattice

import (
	"fmt"
	"math"
	"slices"

	"github.com/nlstencil/amop/internal/fbstencil"
	"github.com/nlstencil/amop/internal/option"
	"github.com/nlstencil/amop/internal/scratch"
)

// This file implements the fast American put, the one fast lattice path:
// PriceFast prices a call as the put of its swapped contract (see swap). For
// puts the exercise (green) region sits on the low-price side, i.e. the LEFT
// of the grid, and the one-sided stencil's dependencies point away from it;
// the corresponding solver is fbstencil.SolveGreenLeftOneSided. The paper
// lists lattice puts as future work, but the structure the solver needs is
// proven: the put is its swapped contract's call in mirrored columns, whose
// boundary, by Corollary 2.7 (binomial) and Corollary A.6 (trinomial), never
// rises and drops at most r columns per interior step. On the trinomial grid
// the fixed-price lines drift one column left per step on top of the
// boundary's own leftward drift, hence r rather than 1.
// ValidatePutStructure checks it on an instance.

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
	return m.priceFast(st, nil, nil)
}

// FastTop prices the American option of the given kind with the fast
// solver, as PriceFast and PriceFastPut do, with a cancellation hook polled
// at trapezoid granularity (typically ctx.Err of a request context; the
// first non-nil error it returns aborts the solve and is returned). When
// top is non-nil it also writes into it the three cells of the row
// fbstencil.TopSteps above the apex (two steps up on the binomial tree, one
// on the trinomial), in the contract's own values (see Sens). top needs
// HasTop.
func (m *Model) FastTop(kind option.Kind, cancel func() error, top []float64) (float64, error) {
	if kind == option.Put {
		return m.priceFastPut(nil, cancel, top)
	}
	return m.priceFast(nil, cancel, top)
}

// topSteps returns how many steps above the apex FastTop's row lies: 2 on
// the binomial tree, 1 on the trinomial.
func (m *Model) topSteps() int { return fbstencil.TopSteps(m.r()) }

// HasTop reports whether the tree has the row FastTop reads, topSteps above
// the apex (not on a binomial tree of one step).
func (m *Model) HasTop() bool { return m.T >= m.topSteps() }

// Sens returns the delta, gamma and theta at the apex value v from the top
// row FastTop, EuropeanTop or NaiveTop wrote (see option.TopSens).
func (m *Model) Sens(top []float64, v float64) option.Sens {
	k := m.topSteps()
	d := m.T - k
	x := [3]float64{m.Asset(d, 0), m.Asset(d, 1), m.Asset(d, 2)}
	return option.TopSens(x, [3]float64(top), v, float64(k)*m.Dt)
}

func (m *Model) priceFast(st *fbstencil.Stats, cancel func() error, top []float64) (float64, error) {
	sw, err := m.swap()
	if err != nil {
		return 0, err
	}
	v, err := sw.priceFastPut(st, cancel, top)
	if err == nil && top != nil {
		// The swapped put's row in mirrored columns: the call's cell at net
		// move i is u^i times the put's at -i, and the row's outer cells lie
		// topSteps moves out.
		f := math.Exp(float64(m.topSteps()) * m.logU)
		top[0], top[2] = top[2]/f, top[0]*f
	}
	return v, err
}

// swap returns the model of the swapped contract (S and K, R and Y
// exchanged), whose American put is this model's American call
// (McDonald–Schroder symmetry, exact on the tree): node by node,
// C(i) = u^i * P'(-i). The weights come from that identity — the outer two
// exchange, times u and over u — rather than from the tree's constructor,
// which can round a swapped probability to 0 and reject the swap of a call
// its own tree prices. Disc is the weights' sum, so it is not finite exactly
// when a weight is not (u overflowed); swap then fails with
// fbstencil.ErrNonFinite.
func (m *Model) swap() (*Model, error) {
	sw := *m
	sw.Prm.S, sw.Prm.K = m.Prm.K, m.Prm.S
	sw.Prm.R, sw.Prm.Y = m.Prm.Y, m.Prm.R
	r := m.r()
	sw.W = slices.Clone(m.W)
	sw.W[0], sw.W[r] = m.W[r]*m.U, m.W[0]/m.U
	sw.Disc = 0
	for _, w := range sw.W {
		sw.Disc += w
	}
	if math.IsNaN(sw.Disc) || math.IsInf(sw.Disc, 0) {
		return nil, fmt.Errorf("lattice: swapped weights %v: %w", sw.W, fbstencil.ErrNonFinite)
	}
	return &sw, nil
}

// putProblem builds the green-left instance for the American put on tab,
// the put's exercise table (from exerciseTable).
func (m *Model) putProblem(tab []float64) *fbstencil.GreenLeftOneSided {
	hi := m.r() * m.T
	fill := m.rowView(tab)
	leaves := fill(0, 0, hi, nil)
	// Largest leaf column with strictly positive put payoff; the payoff
	// falls as the column rises.
	bnd0 := -1
	for bnd0 < hi && leaves[bnd0+1] > 0 {
		bnd0++
	}
	return &fbstencil.GreenLeftOneSided{
		Stencil:  m.Stencil(),
		T:        m.T,
		Hi0:      hi,
		Init:     func(col int) float64 { return math.Max(0, leaves[col]) },
		Fill:     fill,
		Bnd0:     bnd0,
		BaseCase: m.baseC,
		MaxDrop:  m.r(),
	}
}

// PriceFastPut prices the American put with the FFT-based green-left
// solver: O(T log^2 T) work, O(T) span.
func (m *Model) PriceFastPut() (float64, error) {
	return m.PriceFastPutStats(nil)
}

// PriceFastPutStats is PriceFastPut with work-counter collection.
func (m *Model) PriceFastPutStats(st *fbstencil.Stats) (float64, error) {
	return m.priceFastPut(st, nil, nil)
}

func (m *Model) priceFastPut(st *fbstencil.Stats, cancel func() error, top []float64) (float64, error) {
	tab := m.exerciseTable()
	defer scratch.PutFloats(tab)
	prob := m.putProblem(tab)
	prob.Cancel = cancel
	prob.Top = top
	v, _, err := fbstencil.SolveGreenLeftOneSided(prob, st)
	return v, err
}

// ValidatePutStructure runs the O(T^2) structural validator for the put's
// free boundary on this instance (contiguity, monotonicity, drops of at most
// r columns per step) and returns the first violation, if any. Its obstacle
// rows come from the closed form, cell by cell.
func (m *Model) ValidatePutStructure() error {
	tab := m.exerciseTable()
	defer scratch.PutFloats(tab)
	p := m.putProblem(tab)
	p.Fill = func(depth, lo, hi int, buf []float64) []float64 {
		out := buf[:hi-lo+1]
		for i := range out {
			out[i] = m.Exercise(option.Put, depth, lo+i)
		}
		return out
	}
	_, err := fbstencil.GreenLeftOneSidedBoundaryTrace(p)
	return err
}
