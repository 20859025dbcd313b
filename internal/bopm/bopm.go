// Package bopm builds the Cox-Ross-Rubinstein binomial tree (Section 2 of the
// paper) as a lattice.Model: children at offsets 0 (down move) and 1 (up
// move) of the previous depth, u = e^(V*sqrt(dt)), and the asset price at
// (depth, col) is S * u^(2*col - T + depth). The pricing algorithms live on
// lattice.Model.
package bopm

import (
	"fmt"
	"math"

	"github.com/nlstencil/amop/internal/lattice"
	"github.com/nlstencil/amop/internal/option"
)

// MaxSteps bounds T so that the extreme leaf prices S*u^(+-T) stay finite in
// float64 for any reasonable volatility (V*sqrt(E*T) < 700).
const MaxSteps = 1 << 22

// New validates the parameters and builds the binomial tree: weights
// Disc*(1-q) on the down child and Disc*q on the up child, q the risk-neutral
// up-move probability.
func New(p option.Params, steps int) (*lattice.Model, error) {
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
	return lattice.New(p, steps, u, math.Log(u), []float64{disc * (1 - q), disc * q}), nil
}
