package topm

import (
	"math"

	"github.com/nlstencil/amop/internal/fbstencil"
	"github.com/nlstencil/amop/internal/option"
	"github.com/nlstencil/amop/internal/scratch"
)

// Fast American PUT under the trinomial model, which PriceFast also runs for
// calls through the swapped contract (see bopm/fastput.go). The trinomial
// grid's fixed-price lines drift one column left per step — on top of the
// exercise boundary's own leftward drift — so the per-step drop bound here
// is 2 rather than 1; Corollary A.6, through the swapped call in mirrored
// columns, proves it.

// putProblem builds the green-left instance for the American put with the
// given exercise value.
func (m *Model) putProblem(green fbstencil.GreenFunc) *fbstencil.GreenLeftOneSided {
	guess := int(math.Ceil(float64(m.T) + math.Log(m.Prm.K/m.Prm.S)/m.logU))
	if guess > 2*m.T {
		guess = 2 * m.T
	}
	if guess < -1 {
		guess = -1
	}
	for guess < 2*m.T && green(0, guess+1) > 0 {
		guess++
	}
	for guess >= 0 && green(0, guess) <= 0 {
		guess--
	}
	return &fbstencil.GreenLeftOneSided{
		Stencil:  m.Stencil(),
		T:        m.T,
		Hi0:      2 * m.T,
		Init:     func(col int) float64 { return math.Max(0, green(0, col)) },
		Green:    green,
		Bnd0:     guess,
		BaseCase: m.baseC,
		MaxDrop:  2,
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
// free boundary on this instance.
func (m *Model) ValidatePutStructure() error {
	green := func(depth, col int) float64 { return m.Exercise(option.Put, depth, col) }
	_, err := fbstencil.GreenLeftOneSidedBoundaryTrace(m.putProblem(green))
	return err
}
