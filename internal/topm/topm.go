// Package topm builds Boyle's trinomial tree (Section 3 and Appendix A of the
// paper) as a lattice.Model. The tree of T steps embeds in a (T+1) x (2T+1)
// grid: the children of (depth, col) at the previous depth are col (down
// move, factor d), col+1 (no move) and col+2 (up move, factor u), with
// u = e^(V*sqrt(2*dt)). The asset price at (depth, col) is
// S * u^(col - T + depth). The pricing algorithms live on lattice.Model.
//
// The paper's main text and appendix disagree on the weight labels (s0=m*p_u
// vs the value formula putting p_d on the down child); we use the
// martingale-consistent assignment s0=m*p_d, s1=m*p_o, s2=m*p_u, under which
// sum_k s_k u^(k-1) = e^(-Y*dt) as Lemma A.1's algebra requires.
package topm

import (
	"fmt"
	"math"

	"github.com/nlstencil/amop/internal/lattice"
	"github.com/nlstencil/amop/internal/option"
)

// MaxSteps bounds T so extreme node prices stay finite in float64.
const MaxSteps = 1 << 21

// New validates the parameters and builds the trinomial tree.
func New(p option.Params, steps int) (*lattice.Model, error) {
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
	return lattice.New(p, steps, sqU*sqU, 2*math.Log(sqU), []float64{disc * pd, disc * po, disc * pu}), nil
}
