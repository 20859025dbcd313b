package bsm

import (
	"math"
	"testing"

	"github.com/nlstencil/amop/internal/fbstencil"
	"github.com/nlstencil/amop/internal/option"
	"github.com/nlstencil/amop/internal/sweep"
)

// TestFastTopMatchesNaive checks FastTop's row, one step above the apex,
// against the direct sweep's row at that depth, at base case 1 and the
// default, and EuropeanTop's against the linear sweep's. The contracts take
// the solver's three ways to the apex: all red from the first step (a zero
// rate: the put is never exercised early), a green apex, and a boundary
// that reaches the last rows.
func TestFastTopMatchesNaive(t *testing.T) {
	for _, p := range []option.Params{
		{S: 100, K: 100, R: 0, V: 0.3, Y: 0.02, E: 1},
		{S: 100, K: 300, R: 0.1, V: 0.2, Y: 0, E: 1},
		{S: 100, K: 110, R: 0.06, V: 0.25, Y: 0.01, E: 1},
		{S: 127.62, K: 130, R: 0.00163, V: 0.2, Y: 0.0163, E: 1},
	} {
		for _, T := range []int{1, 2, 3, 7, 64, 333} {
			m, err := New(p, T, 0)
			if err != nil {
				t.Fatal(err)
			}
			want := make([]float64, 3)
			vWant := m.NaiveTop(option.Put, want)
			top := make([]float64, 3)
			for _, base := range []int{1, fbstencil.DefaultBaseCase} {
				m.SetBaseCase(base)
				v, err := m.FastTop(option.Put, nil, top)
				if err != nil {
					t.Fatalf("%+v T=%d base=%d: %v", p, T, base, err)
				}
				checkRow(t, p, T, "put", top, want, v, vWant)
			}
			m.SetBaseCase(0)

			sp := m.SweepProblem(option.Put)
			sp.FillExercise = nil
			sp.Top = want
			vWant = sweep.Naive(sp)
			v := m.EuropeanTop(option.Put, top)
			checkRow(t, p, T, "European put", top, want, v, vWant)
		}
	}
}

// checkRow compares a row and its apex with the oracle's, to FFT roundoff.
func checkRow(t *testing.T, p option.Params, T int, what string, got, want []float64, v, vWant float64) {
	t.Helper()
	near := func(a, b float64) bool { return math.Abs(a-b) <= 1e-11*math.Max(1, math.Abs(b)) }
	if !near(v, vWant) {
		t.Errorf("%s %+v T=%d: apex %.15g, oracle %.15g", what, p, T, v, vWant)
	}
	for j := range want {
		if !near(got[j], want[j]) {
			t.Errorf("%s %+v T=%d: top[%d] %.15g, oracle %.15g", what, p, T, j, got[j], want[j])
		}
	}
}

// TestSensGreenApex: a put exercised at once reads delta -1, gamma 0 and
// theta 0 off its top row, which is the obstacle.
func TestSensGreenApex(t *testing.T) {
	m, err := New(option.Params{S: 100, K: 300, R: 0.1, V: 0.2, Y: 0, E: 1}, 500, 0)
	if err != nil {
		t.Fatal(err)
	}
	top := make([]float64, 3)
	v, err := m.FastTop(option.Put, nil, top)
	if err != nil {
		t.Fatal(err)
	}
	s := m.Sens(top, v)
	if math.Abs(s.Delta+1) > 1e-9 || math.Abs(s.Gamma) > 1e-9 || s.Theta != 0 {
		t.Errorf("%+v, want delta -1, gamma 0, theta 0 (apex %v)", s, v)
	}
}
