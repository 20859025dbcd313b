package lattice_test

import (
	"math"
	"testing"

	"github.com/nlstencil/amop/internal/bopm"
	"github.com/nlstencil/amop/internal/fbstencil"
	"github.com/nlstencil/amop/internal/lattice"
	"github.com/nlstencil/amop/internal/option"
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
// per-cell closed form: the same solve driven by a GreenFunc that evaluates
// Exercise cell by cell must return the identical float64. The call is
// checked on the production path, the put of the swapped model.
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
						swPut := func(d, c int) float64 { return sw.Exercise(option.Put, d, c) }
						want, _, wantErr = fbstencil.SolveGreenLeftOneSided(lattice.PutProblem(sw, swPut), nil)
					}
					got, gotErr := m.PriceFast()
					checkParity(t, "call", p, T, got, want, gotErr, wantErr)

					put := func(d, c int) float64 { return m.Exercise(option.Put, d, c) }
					want, _, wantErr = fbstencil.SolveGreenLeftOneSided(lattice.PutProblem(m, put), nil)
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

func checkParity(t *testing.T, kind string, p option.Params, T int, got, want float64, gotErr, wantErr error) {
	t.Helper()
	if (gotErr == nil) != (wantErr == nil) || math.Float64bits(got) != math.Float64bits(want) {
		t.Errorf("%s T=%d %+v: table %v (err %v), closed form %v (err %v)", kind, T, p, got, gotErr, want, wantErr)
	}
}
