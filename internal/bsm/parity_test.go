package bsm

import (
	"math"
	"sync/atomic"
	"testing"

	"github.com/nlstencil/amop/internal/fbstencil"
	"github.com/nlstencil/amop/internal/option"
)

// putProblem builds, from the model's exported parts, the green-left
// instance its fast put solves: the leaves' payoff, the largest leaf column
// in the money, and obstacle rows from fill.
func putProblem(m *Model, fill fbstencil.FillFunc) *fbstencil.GreenLeftOneSided {
	hi := 2 * m.T
	bnd0 := -1
	for bnd0 < hi && m.Exercise(option.Put, 0, bnd0+1) > 0 {
		bnd0++
	}
	return &fbstencil.GreenLeftOneSided{
		Stencil: m.Stencil(),
		T:       m.T,
		Hi0:     hi,
		Init:    func(col int) float64 { return m.Prm.Payoff(option.Put, m.Asset(0, col)) },
		Fill:    fill,
		Bnd0:    bnd0,
		MaxDrop: 2,
	}
}

// tableFill returns the put's obstacle rows as views of its exercise table,
// the fill the fast solve and the sweeps share.
func tableFill(m *Model) fbstencil.FillFunc { return m.SweepProblem(option.Put).FillExercise }

// closedFormFill fills each obstacle row from Exercise, cell by cell.
func closedFormFill(m *Model) fbstencil.FillFunc {
	return func(d, lo, hi int, buf []float64) []float64 {
		out := buf[:hi-lo+1]
		for i := range out {
			out[i] = m.Exercise(option.Put, d, lo+i)
		}
		return out
	}
}

// TestGreenTableFallback runs a put far out of the money, whose exercise
// boundary sits near the left edge of the grid, so the engine's windows
// reach the virtual columns left of 0. The engine fills those itself: it
// asks the table for no fill off the grid, and the price is bitwise the
// closed form's and PriceFast's.
func TestGreenTableFallback(t *testing.T) {
	m, err := New(option.Params{S: 500, K: 100, R: 0.05, V: 0.1, Y: 0, E: 1}, 333, 0)
	if err != nil {
		t.Fatal(err)
	}
	prob := putProblem(m, tableFill(m))
	fill := prob.Fill
	var off, edge atomic.Int64
	prob.Fill = func(d, lo, hi int, buf []float64) []float64 {
		if lo < 0 || hi > prob.Hi0-2*d {
			off.Add(1)
		}
		if lo == 0 && d > 1 {
			edge.Add(1)
		}
		return fill(d, lo, hi, buf)
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
	want, _, err := fbstencil.SolveGreenLeftOneSided(putProblem(m, closedFormFill(m)), nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("table %v, closed form %v", got, want)
	}
	fast, err := m.PriceFast()
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(fast) != math.Float64bits(want) {
		t.Fatalf("PriceFast %v, closed form %v", fast, want)
	}
}
