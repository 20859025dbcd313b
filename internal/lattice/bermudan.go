package lattice

import (
	"fmt"

	"github.com/nlstencil/amop/internal/linstencil"
	"github.com/nlstencil/amop/internal/option"
	"github.com/nlstencil/amop/internal/par"
)

// PriceBermudan prices a Bermudan option on the lattice: exercise is allowed
// only at depths that are multiples of every (counting from expiry; the
// valuation date is exercisable iff T is a multiple too, so every=1
// reproduces the American price exactly).
//
// Between consecutive exercise dates the value function evolves purely
// linearly, so each inter-date block is one multi-step FFT evolution of the
// whole row: O((T/every) * T log T) work in total — this is the paper's
// "Bermudan options" future-work item, solved by the same linear-stencil
// machinery without needing any boundary structure (and therefore valid for
// both calls and puts).
func (m *Model) PriceBermudan(kind option.Kind, every int) (float64, error) {
	if every < 1 {
		return 0, fmt.Errorf("lattice: Bermudan exercise interval %d must be >= 1", every)
	}
	row := make([]float64, m.r()*m.T+1)
	for j := range row {
		row[j] = m.Prm.Payoff(kind, m.Asset(0, j))
	}
	st := m.Stencil()
	fillEx := m.SweepProblem(kind).FillExercise

	depth := 0
	for depth < m.T {
		next := (depth/every + 1) * every
		if next > m.T {
			next = m.T
		}
		row, _ = linstencil.EvolveCone(row, st, next-depth)
		depth = next
		if depth%every == 0 {
			hi := m.r() * (m.T - depth)
			par.For(hi+1, 2048, func(lo, hiC int) {
				const chunk = 512
				var ex [chunk]float64
				for c := lo; c < hiC; c += chunk {
					ce := min(c+chunk, hiC) - 1
					fillEx(depth, c, ce, ex[:ce-c+1])
					for j := c; j <= ce; j++ {
						if e := ex[j-c]; e > row[j] {
							row[j] = e
						}
					}
				}
			})
		}
	}
	return row[0], nil
}
