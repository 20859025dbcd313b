package bopm

import (
	"math"

	"github.com/nlstencil/amop/internal/fbstencil"
	"github.com/nlstencil/amop/internal/option"
	"github.com/nlstencil/amop/internal/scratch"
)

// This file implements the fast American PUT under the binomial model, the
// one fast lattice path: PriceFast prices a call as the put of its swapped
// contract (see swap). For puts the exercise (green) region sits on the
// low-price side, i.e. the LEFT of the grid, and the one-sided stencil's
// dependencies point away from it; the corresponding solver is
// fbstencil.SolveGreenLeftOneSided. The paper lists lattice puts as future
// work, but the structure the solver needs is proven: the put is its swapped
// contract's call in mirrored columns, whose boundary, by Corollary 2.7,
// never rises and drops at most one column per interior step.
// ValidatePutStructure checks it on an instance.

// putProblem builds the green-left instance for the American put with the
// given exercise value.
func (m *Model) putProblem(green fbstencil.GreenFunc) *fbstencil.GreenLeftOneSided {
	// Largest leaf column with strictly positive put payoff.
	guess := int(math.Ceil((float64(m.T) + math.Log(m.Prm.K/m.Prm.S)/m.logU) / 2))
	if guess > m.T {
		guess = m.T
	}
	if guess < -1 {
		guess = -1
	}
	for guess < m.T && green(0, guess+1) > 0 {
		guess++
	}
	for guess >= 0 && green(0, guess) <= 0 {
		guess--
	}
	return &fbstencil.GreenLeftOneSided{
		Stencil:  m.Stencil(),
		T:        m.T,
		Hi0:      m.T,
		Init:     func(col int) float64 { return math.Max(0, green(0, col)) },
		Green:    green,
		Bnd0:     guess,
		BaseCase: m.baseC,
	}
}

// PriceFastPut prices the American put with the FFT-based green-left
// solver: O(T log^2 T) work, O(T) span.
func (m *Model) PriceFastPut() (float64, error) {
	return m.PriceFastPutStats(nil)
}

// PriceFastPutStats is PriceFastPut with work-counter collection.
func (m *Model) PriceFastPutStats(st *fbstencil.Stats) (float64, error) {
	return m.priceFastPut(st, nil)
}

// PriceFastPutCancel is PriceFastPut with a cancellation hook, polled at
// trapezoid granularity.
func (m *Model) PriceFastPutCancel(cancel func() error) (float64, error) {
	return m.priceFastPut(nil, cancel)
}

func (m *Model) priceFastPut(st *fbstencil.Stats, cancel func() error) (float64, error) {
	tab := m.exerciseTable()
	defer scratch.PutFloats(tab)
	prob := m.putProblem(m.putGreen(tab))
	prob.Cancel = cancel
	v, _, err := fbstencil.SolveGreenLeftOneSided(prob, st)
	return v, err
}

// ValidatePutStructure runs the O(T^2) structural validator for the put's
// free boundary on this instance (contiguity, monotonicity, unit drops) and
// returns the first violation, if any.
func (m *Model) ValidatePutStructure() error {
	green := func(depth, col int) float64 { return m.Exercise(option.Put, depth, col) }
	_, err := fbstencil.GreenLeftOneSidedBoundaryTrace(m.putProblem(green))
	return err
}
