package lattice_test

import (
	"math"
	"testing"

	"github.com/nlstencil/amop/internal/fbstencil"
	"github.com/nlstencil/amop/internal/option"
	"github.com/nlstencil/amop/internal/sweep"
)

// topParams adds to parityParams the two contracts whose fast solves are
// all red from the first step (a call without dividends and a put at a zero
// rate are never exercised early), a put whose apex is green, one whose
// boundary reaches the last rows, and the paper's default contract.
var topParams = append([]option.Params{
	{S: 100, K: 100, R: 0.05, V: 0.3, Y: 0, E: 1},
	{S: 100, K: 100, R: 0, V: 0.3, Y: 0.02, E: 1},
	{S: 100, K: 300, R: 0.1, V: 0.2, Y: 0, E: 1},
	{S: 100, K: 110, R: 0.06, V: 0.25, Y: 0.01, E: 1},
	option.Default(),
}, parityParams...)

// checkRow compares a row and its apex with the oracle's, to FFT roundoff.
func checkRow(t *testing.T, what string, got, want []float64, v, vWant float64) {
	t.Helper()
	near := func(a, b float64) bool { return math.Abs(a-b) <= 1e-11*math.Max(1, math.Abs(b)) }
	if !near(v, vWant) {
		t.Errorf("%s: apex %.15g, oracle %.15g", what, v, vWant)
	}
	for j := range want {
		if !near(got[j], want[j]) {
			t.Errorf("%s: top[%d] %.15g, oracle %.15g", what, j, got[j], want[j])
		}
	}
}

// TestFastTopMatchesNaive checks FastTop's row, in the contract's own
// values, against the direct sweep's row topSteps above the apex on the
// contract's own grid, for puts on every grid and calls on the trees (solved
// as the swapped put, and mapped back through the node identity), at base
// case 1 and the default; and EuropeanTop's row against the linear sweep's.
// A binomial tree of one step has no such row, and FastTop must refuse one.
func TestFastTopMatchesNaive(t *testing.T) {
	for _, tree := range grids {
		kinds := []option.Kind{option.Put}
		if tree.calls {
			kinds = append(kinds, option.Call)
		}
		for i, p := range topParams {
			for _, T := range []int{1, 2, 3, 7, 64, 333} {
				m, err := tree.new(p, T)
				if err != nil {
					continue
				}
				for _, kind := range kinds {
					top := make([]float64, 3)
					if !m.HasTop() {
						if _, err := m.FastTop(kind, nil, top); err == nil {
							t.Errorf("%s %v T=%d: FastTop accepted a row above the leaves", tree.name, kind, T)
						}
						continue
					}
					want := make([]float64, 3)
					vWant := m.NaiveTop(kind, want)
					if math.IsInf(vWant, 0) || math.IsNaN(vWant) {
						continue
					}
					for _, base := range []int{1, fbstencil.DefaultBaseCase} {
						m.SetBaseCase(base)
						v, err := m.FastTop(kind, nil, top)
						if err != nil {
							t.Fatalf("%s %v %d T=%d base=%d: %v", tree.name, kind, i, T, base, err)
						}
						checkRow(t, tree.name+" "+kind.String(), top, want, v, vWant)
					}
					m.SetBaseCase(0)

					p := m.SweepProblem(kind)
					p.FillExercise = nil
					p.Top = want
					vWant = sweep.Naive(p)
					v := m.EuropeanTop(kind, top)
					checkRow(t, tree.name+" European "+kind.String(), top, want, v, vWant)
				}
			}
		}
	}
}

// TestSensGreenApex: a put exercised at once reads delta -1, gamma 0 and
// theta 0 off its top row, which is the obstacle.
func TestSensGreenApex(t *testing.T) {
	for _, tree := range grids {
		m, err := tree.new(option.Params{S: 100, K: 300, R: 0.1, V: 0.2, Y: 0, E: 1}, 500)
		if err != nil {
			t.Fatal(err)
		}
		top := make([]float64, 3)
		v, err := m.FastTop(option.Put, nil, top)
		if err != nil {
			t.Fatal(err)
		}
		if v != 200 {
			t.Errorf("%s: apex %v, want the exercise value 200", tree.name, v)
		}
		s := m.Sens(top, v)
		if math.Abs(s.Delta+1) > 1e-12 || math.Abs(s.Gamma) > 1e-12 || s.Theta != 0 {
			t.Errorf("%s: %+v, want delta -1, gamma 0, theta 0", tree.name, s)
		}
	}
}
