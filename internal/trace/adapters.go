package trace

import (
	"math"

	"github.com/nlstencil/amop/internal/bopm"
	"github.com/nlstencil/amop/internal/bsm"
	"github.com/nlstencil/amop/internal/option"
	"github.com/nlstencil/amop/internal/topm"
)

// BOPMSpec adapts a binomial model (American call) to the traced sweeps.
func BOPMSpec(m *bopm.Model) *GRSpec {
	return &GRSpec{
		W:     m.Stencil().W,
		T:     m.T,
		Hi0:   m.T,
		Init:  func(col int) float64 { return math.Max(0, m.Exercise(option.Call, 0, col)) },
		Green: func(depth, col int) float64 { return m.Exercise(option.Call, depth, col) },
	}
}

// TOPMSpec adapts a trinomial model (American call) to the traced sweeps.
func TOPMSpec(m *topm.Model) *GRSpec {
	return &GRSpec{
		W:     m.Stencil().W,
		T:     m.T,
		Hi0:   2 * m.T,
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
