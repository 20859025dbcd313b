package trace

import (
	"math"

	"github.com/nlstencil/amop/internal/bsm"
	"github.com/nlstencil/amop/internal/lattice"
	"github.com/nlstencil/amop/internal/option"
)

// LatticeSpec adapts a binomial or trinomial model (American call) to the
// traced sweeps.
func LatticeSpec(m *lattice.Model) *GRSpec {
	st := m.Stencil()
	return &GRSpec{
		W:     st.W,
		T:     m.T,
		Hi0:   st.Span() * m.T,
		Init:  func(col int) float64 { return math.Max(0, m.Exercise(option.Call, 0, col)) },
		Green: func(depth, col int) float64 { return m.Exercise(option.Call, depth, col) },
	}
}

// BSMSpec adapts a Black-Scholes FD model (American put) to the traced
// sweeps. The traced result is in dimensionless units; multiply by K to
// compare with bsm prices.
func BSMSpec(m *bsm.Model) *GLSpec {
	return &GLSpec{
		W:     m.Stencil().W,
		T:     m.T,
		Lo0:   0,
		Hi0:   2 * m.T,
		Init:  func(col int) float64 { return math.Max(m.Green(col), 0) },
		Green: func(depth, col int) float64 { return m.Green(col) },
	}
}
