package lattice_test

import (
	"math"
	"sync/atomic"
	"testing"

	"github.com/nlstencil/amop/internal/bopm"
	"github.com/nlstencil/amop/internal/fbstencil"
	"github.com/nlstencil/amop/internal/lattice"
	"github.com/nlstencil/amop/internal/option"
	"github.com/nlstencil/amop/internal/scratch"
	"github.com/nlstencil/amop/internal/topm"
)

// trees are the two weight sets every test here runs on.
var trees = []struct {
	name string
	new  func(option.Params, int) (*lattice.Model, error)
}{{"bopm", bopm.New}, {"topm", topm.New}}

// parityParams covers the regimes the exercise table must reproduce: at the
// money, deep in and out of the money both ways, dividend yield above the
// rate, and volatility at both edges of the analytic tier's envelope.
var parityParams = []option.Params{
	{S: 100, K: 100, R: 0.05, V: 0.3, Y: 0.02, E: 1},
	{S: 400, K: 50, R: 0.03, V: 0.2, Y: 0.01, E: 1},
	{S: 10, K: 300, R: 0.03, V: 0.2, Y: 0.01, E: 1},
	{S: 100, K: 95, R: 0.01, V: 0.25, Y: 0.08, E: 2},
	{S: 100, K: 100, R: 0.002, V: 0.01, Y: 0.001, E: 0.5},
	{S: 100, K: 110, R: 0.05, V: 2, Y: 0.03, E: 1},
}

var parityT = []int{1, 7, 64, 333, 2000, 4096}

// TestExerciseTableParity pins the table-backed fast call and put to the
// per-cell closed form: the same solve with its obstacle rows filled by
// evaluating Exercise cell by cell must return the identical float64. The
// call is checked on the production path, the put of the swapped model.
func TestExerciseTableParity(t *testing.T) {
	for _, tree := range trees {
		t.Run(tree.name, func(t *testing.T) {
			ran := 0
			for _, p := range parityParams {
				for _, T := range parityT {
					m, err := tree.new(p, T)
					if err != nil {
						continue // the tree is degenerate at this resolution
					}
					ran++
					// The call runs as the put of the swapped contract; see swap.
					var want float64
					sw, wantErr := lattice.Swap(m)
					if wantErr == nil {
						want, wantErr = closedFormPut(sw)
					}
					got, gotErr := m.PriceFast()
					checkParity(t, "call", p, T, got, want, gotErr, wantErr)

					want, wantErr = closedFormPut(m)
					got, gotErr = m.PriceFastPut()
					checkParity(t, "put", p, T, got, want, gotErr, wantErr)
				}
			}
			if ran < len(parityParams)*len(parityT)-6 {
				t.Fatalf("only %d of %d cases built a tree", ran, len(parityParams)*len(parityT))
			}
		})
	}
}

// closedFormPut is PriceFastPut with its obstacle rows filled from
// Exercise, cell by cell.
func closedFormPut(m *lattice.Model) (float64, error) {
	tab := lattice.ExerciseTable(m)
	defer scratch.PutFloats(tab)
	prob := lattice.PutProblem(m, tab)
	prob.Fill = func(d, lo, _ int, out []float64) {
		for i := range out {
			out[i] = m.Exercise(option.Put, d, lo+i)
		}
	}
	v, _, err := fbstencil.SolveGreenLeftOneSided(prob, nil)
	return v, err
}

// TestPutFillOnGrid runs a put far out of the money on both trees, whose
// exercise boundary sits near the left edge of the grid, so the engine's
// windows reach the virtual columns left of 0. The engine fills those
// itself: it asks the table for no fill off the grid, and the price is
// bitwise the closed form's.
func TestPutFillOnGrid(t *testing.T) {
	for _, tree := range trees {
		m, err := tree.new(option.Params{S: 500, K: 100, R: 0.05, V: 0.1, Y: 0, E: 1}, 333)
		if err != nil {
			t.Fatal(err)
		}
		tab := lattice.ExerciseTable(m)
		prob := lattice.PutProblem(m, tab)
		r := prob.Stencil.Span()
		fill := prob.Fill
		var off, edge atomic.Int64
		prob.Fill = func(d, lo, hi int, out []float64) {
			if lo < 0 || hi > prob.Hi0-r*d {
				off.Add(1)
			}
			if lo == 0 && d > 1 {
				edge.Add(1)
			}
			fill(d, lo, hi, out)
		}
		got, _, err := fbstencil.SolveGreenLeftOneSided(prob, nil)
		scratch.PutFloats(tab)
		if err != nil {
			t.Fatal(err)
		}
		if n := off.Load(); n != 0 {
			t.Errorf("%s: %d fills asked off the grid", tree.name, n)
		}
		if edge.Load() == 0 {
			t.Errorf("%s: no fill starts at column 0 below depth 1; pick a case whose boundary reaches the left edge", tree.name)
		}
		want, err := closedFormPut(m)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("%s: table %v, closed form %v", tree.name, got, want)
		}
	}
}

func checkParity(t *testing.T, kind string, p option.Params, T int, got, want float64, gotErr, wantErr error) {
	t.Helper()
	if (gotErr == nil) != (wantErr == nil) || math.Float64bits(got) != math.Float64bits(want) {
		t.Errorf("%s T=%d %+v: table %v (err %v), closed form %v (err %v)", kind, T, p, got, gotErr, want, wantErr)
	}
}
