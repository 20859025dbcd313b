package lattice_test

import (
	"math"
	"slices"
	"sync/atomic"
	"testing"

	"github.com/nlstencil/amop/internal/bopm"
	"github.com/nlstencil/amop/internal/bsm"
	"github.com/nlstencil/amop/internal/fbstencil"
	"github.com/nlstencil/amop/internal/lattice"
	"github.com/nlstencil/amop/internal/option"
	"github.com/nlstencil/amop/internal/scratch"
	"github.com/nlstencil/amop/internal/topm"
)

// grid is one of the paper's models as a lattice: its name, its
// constructor, and whether it prices calls (as the put of its swapped tree).
type grid struct {
	name  string
	new   func(option.Params, int) (*lattice.Model, error)
	calls bool
}

// trees are the two trees, the grids of the call-side tests.
var trees = []grid{{"bopm", bopm.New, true}, {"topm", topm.New, true}}

// grids adds the BSM put grid to the trees, for the put-side tests.
var grids = append(slices.Clip(trees), grid{"bsm", newBSM, false})

func newBSM(p option.Params, T int) (*lattice.Model, error) {
	m, err := bsm.New(p, T, 0)
	if err != nil {
		return nil, err
	}
	return m.Model, nil
}

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

// TestExerciseTableParity pins the table-backed fast put on every grid, and
// the fast call on the trees, to the per-cell closed form: the same solve
// with its obstacle rows filled by evaluating Exercise cell by cell must
// return the identical float64. The call is checked on the production path,
// the put of the swapped model. The baseline sweeps' exercise rows, the
// put's on every grid and the call's on the trees, must equal Exercise cell
// for cell.
func TestExerciseTableParity(t *testing.T) {
	for _, g := range grids {
		t.Run(g.name, func(t *testing.T) {
			ran := 0
			for _, p := range parityParams {
				for _, T := range parityT {
					m, err := g.new(p, T)
					if err != nil {
						continue // the grid is degenerate at this resolution
					}
					ran++
					if g.calls {
						// The call runs as the put of the swapped contract; see swap.
						var want float64
						sw, wantErr := lattice.Swap(m)
						if wantErr == nil {
							want, wantErr = closedFormPut(sw)
						}
						got, gotErr := m.PriceFast()
						checkParity(t, "call", p, T, got, want, gotErr, wantErr)
						checkSweepRows(t, m, option.Call)
					}
					checkSweepRows(t, m, option.Put)

					want, wantErr := closedFormPut(m)
					got, gotErr := m.PriceFastPut()
					checkParity(t, "put", p, T, got, want, gotErr, wantErr)
				}
			}
			if ran < len(parityParams)*len(parityT)-6 {
				t.Fatalf("only %d of %d cases built a grid", ran, len(parityParams)*len(parityT))
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
	prob.Fill = func(d, lo, hi int, buf []float64) []float64 {
		out := buf[:hi-lo+1]
		for i := range out {
			out[i] = m.Exercise(option.Put, d, lo+i)
		}
		return out
	}
	v, _, err := fbstencil.SolveGreenLeftOneSided(prob, nil)
	return v, err
}

// TestPutFillOnGrid runs a put far out of the money on every grid, whose
// exercise boundary sits near the left edge of the grid, so the engine's
// windows reach the virtual columns left of 0. The engine fills those
// itself: it asks the table for no fill off the grid, and the price is
// bitwise the closed form's.
func TestPutFillOnGrid(t *testing.T) {
	for _, g := range grids {
		m, err := g.new(option.Params{S: 500, K: 100, R: 0.05, V: 0.1, Y: 0, E: 1}, 333)
		if err != nil {
			t.Fatal(err)
		}
		tab := lattice.ExerciseTable(m)
		prob := lattice.PutProblem(m, tab)
		r := prob.Stencil.Span()
		fill := prob.Fill
		var off, edge atomic.Int64
		prob.Fill = func(d, lo, hi int, buf []float64) []float64 {
			if lo < 0 || hi > prob.Hi0-r*d {
				off.Add(1)
			}
			if lo == 0 && d > 1 {
				edge.Add(1)
			}
			return fill(d, lo, hi, buf)
		}
		got, _, err := fbstencil.SolveGreenLeftOneSided(prob, nil)
		scratch.PutFloats(tab)
		if err != nil {
			t.Fatal(err)
		}
		if n := off.Load(); n != 0 {
			t.Errorf("%s: %d fills asked off the grid", g.name, n)
		}
		if edge.Load() == 0 {
			t.Errorf("%s: no fill starts at column 0 below depth 1; pick a case whose boundary reaches the left edge", g.name)
		}
		want, err := closedFormPut(m)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("%s: table %v, closed form %v", g.name, got, want)
		}
	}
}

// checkSweepRows compares the rows of m's kind sweep with Exercise, bit for
// bit: every row up to T=256, and rows 1+T/256 apart above.
func checkSweepRows(t *testing.T, m *lattice.Model, kind option.Kind) {
	t.Helper()
	fill := m.SweepProblem(kind).FillExercise
	r := len(m.W) - 1
	buf := make([]float64, r*m.T+1)
	for d := 0; d <= m.T; d += 1 + m.T/256 {
		hi := r * (m.T - d)
		for col, got := range fill(d, 0, hi, buf) {
			if want := m.Exercise(kind, d, col); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%v sweep T=%d %+v depth %d col %d: row %v, Exercise %v", kind, m.T, m.Prm, d, col, got, want)
			}
		}
	}
}

func checkParity(t *testing.T, kind string, p option.Params, T int, got, want float64, gotErr, wantErr error) {
	t.Helper()
	if (gotErr == nil) != (wantErr == nil) || math.Float64bits(got) != math.Float64bits(want) {
		t.Errorf("%s T=%d %+v: table %v (err %v), closed form %v (err %v)", kind, T, p, got, gotErr, want, wantErr)
	}
}

// TestBinomialRowViewMatchesStrideFill: the binomial exercise table is
// stored split by parity, so each obstacle row is a contiguous view of it.
// At every depth, of both parities, the view equals the stride-2 fill of a
// table in net-move order, cell (depth, col) at 2*col+depth, bitwise.
func TestBinomialRowViewMatchesStrideFill(t *testing.T) {
	for _, T := range []int{1, 2, 7, 64, 333} {
		m, err := bopm.New(parityParams[0], T)
		if err != nil {
			t.Fatal(err)
		}
		flat := make([]float64, 2*T+1)
		for k := range flat {
			flat[k] = m.Exercise(option.Put, k, 0) // net move k-T
		}
		tab := lattice.ExerciseTable(m)
		fill := lattice.PutProblem(m, tab).Fill
		for d := 0; d <= T; d++ {
			for lo := 0; lo <= T-d; lo++ {
				for _, hi := range []int{lo, (lo + T - d + 1) / 2, T - d} {
					row := fill(d, lo, hi, nil)
					if len(row) != hi-lo+1 {
						t.Fatalf("T=%d depth %d [%d, %d]: view of %d cells", T, d, lo, hi, len(row))
					}
					for i, got := range row {
						if want := flat[2*(lo+i)+d]; math.Float64bits(got) != math.Float64bits(want) {
							t.Fatalf("T=%d depth %d col %d: view %v, stride fill %v", T, d, lo+i, got, want)
						}
					}
				}
			}
		}
		scratch.PutFloats(tab)
	}
}
