package bsm

import (
	"math"
	"sync/atomic"
	"testing"

	"github.com/nlstencil/amop/internal/fbstencil"
	"github.com/nlstencil/amop/internal/option"
	"github.com/nlstencil/amop/internal/scratch"
)

// TestGreenTableParity pins the table-backed fast put to the per-cell
// closed form: the same solve with its obstacle rows filled by evaluating
// green cell by cell must return the identical float64. The cases cover at the
// money, deep in and out of the money, dividend yield above the rate, and
// volatility at both edges of the analytic tier's envelope.
func TestGreenTableParity(t *testing.T) {
	params := []option.Params{
		{S: 100, K: 100, R: 0.05, V: 0.3, Y: 0.02, E: 1},
		{S: 400, K: 50, R: 0.03, V: 0.2, Y: 0.01, E: 1},
		{S: 10, K: 300, R: 0.03, V: 0.2, Y: 0.01, E: 1},
		{S: 100, K: 95, R: 0.01, V: 0.25, Y: 0.08, E: 2},
		{S: 100, K: 100, R: 0.002, V: 0.01, Y: 0.001, E: 0.5},
		{S: 100, K: 110, R: 0.05, V: 2, Y: 0.03, E: 1},
	}
	steps := []int{1, 7, 64, 333, 2000, 4096}
	ran := 0
	for _, p := range params {
		for _, T := range steps {
			m, err := New(p, T, 0)
			if err != nil {
				continue // the scheme's coefficients go negative at this resolution
			}
			ran++
			want, wantErr := m.closedFormSolve()
			got, gotErr := m.PriceFast()
			if (gotErr == nil) != (wantErr == nil) || math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("T=%d %+v: table %v (err %v), closed form %v (err %v)", T, p, got, gotErr, want, wantErr)
			}
		}
	}
	if ran < len(params)*len(steps)-6 {
		t.Fatalf("only %d of %d cases built a scheme", ran, len(params)*len(steps))
	}
}

// TestGreenTableFallback runs a put far out of the money, whose exercise
// boundary sits near the left edge of the grid, so the engine's windows
// reach the virtual columns left of 0. The engine fills those itself: it
// asks the table for no fill off the grid, and the price is bitwise the
// closed form's.
func TestGreenTableFallback(t *testing.T) {
	m, err := New(option.Params{S: 500, K: 100, R: 0.05, V: 0.1, Y: 0, E: 1}, 333, 0)
	if err != nil {
		t.Fatal(err)
	}
	tab := m.greenTable(scratch.Floats(2*m.T + 1))
	defer scratch.PutFloats(tab)
	prob := m.problem(tab)
	fill := prob.Fill
	var off, edge atomic.Int64
	prob.Fill = func(d, lo, hi int, out []float64) {
		if lo < 0 || hi > prob.Hi0-2*d {
			off.Add(1)
		}
		if lo == 0 && d > 1 {
			edge.Add(1)
		}
		fill(d, lo, hi, out)
	}
	got, _, err := fbstencil.SolveGreenLeftOneSided(prob, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n := off.Load(); n != 0 {
		t.Errorf("%d fills asked off the grid", n)
	}
	if edge.Load() == 0 {
		t.Fatal("no fill starts at column 0 below depth 1; pick a case whose boundary reaches the left edge")
	}
	want, err := m.closedFormSolve()
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(m.Prm.K*got) != math.Float64bits(want) {
		t.Fatalf("table %v, closed form %v", m.Prm.K*got, want)
	}
}

// closedFormSolve is PriceFast with its obstacle rows filled from the
// closed form, cell by cell.
func (m *Model) closedFormSolve() (float64, error) {
	tab := m.greenTable(scratch.Floats(2*m.T + 1))
	defer scratch.PutFloats(tab)
	prob := m.problem(tab)
	prob.Fill = func(d, lo, _ int, out []float64) {
		for i := range out {
			out[i] = m.green(lo + i + d)
		}
	}
	v, _, err := fbstencil.SolveGreenLeftOneSided(prob, nil)
	return m.Prm.K * v, err
}
