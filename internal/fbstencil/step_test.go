package fbstencil

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"github.com/nlstencil/amop/internal/linstencil"
)

// threePassStep is the direct step as three passes, the reference the fused
// step must match bitwise: linstencil.Step on a copy of the window, the
// obstacle row filled into a buffer of its own, then the max and the
// boundary scan. row holds depth d on columns [from, from+len(row)); cells
// left of column 0 keep their linear update.
func threePassStep(row []float64, s linstencil.Stencil, fill FillFunc, d, from, b, floor int) ([]float64, int) {
	next := linstencil.Step(slices.Clone(row), s)
	v := min(max(-from, 0), len(next))
	ex := make([]float64, len(next))
	if v < len(next) {
		copy(ex[v:], fill(d+1, from+v, from+len(next)-1, ex[v:]))
	}
	newB := floor
	for i := v; i < len(next); i++ {
		if g := ex[i]; g > next[i] {
			next[i] = g
			if j := from + i; j <= b {
				newB = j
			}
		}
	}
	return next, newB
}

// TestStepMatchesThreePasses pins the engine's direct step, one
// StepObstacle pass over the obstacle read in place or filled, bitwise to
// threePassStep: random rows whose obstacle wins at scattered cells, spans 1
// to 3, windows that start left of column 0, floors, and a cell right of b
// that the obstacle wins by one ulp, which must not move the boundary.
func TestStepMatchesThreePasses(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	for trial := 0; trial < 3000; trial++ {
		r := 1 + trial%3
		w := make([]float64, r+1)
		for i := range w {
			w[i] = rng.Float64() / float64(r+1)
		}
		s := linstencil.Stencil{W: w}
		n := r + 1 + rng.Intn(80)
		from := rng.Intn(40) - 20
		d := rng.Intn(5)
		row := make([]float64, n)
		for i := range row {
			row[i] = rng.NormFloat64()
		}
		// The obstacle table covers the step's columns on the grid (>= 0),
		// a depth-d+1 row at tab[col+d+1], as TableFill reads it.
		tab := make([]float64, max(from+n, 0)+d+2)
		for i := range tab {
			tab[i] = rng.NormFloat64() - 0.5
		}
		lin := linstencil.Step(slices.Clone(row), s)
		b := from + rng.Intn(len(lin)+2) - 1
		if j := b + 1; j >= max(from, 0) && j < from+len(lin) {
			tab[j+d+1] = math.Nextafter(lin[j-from], math.Inf(1)) // a win right of b
		}
		floor := -1
		if trial%2 == 0 {
			floor = max(from, -1)
		}
		view := TableFill(tab)
		filled := func(depth, lo, hi int, buf []float64) []float64 {
			return append(buf[:0], view(depth, lo, hi, nil)...)
		}
		for _, fill := range []FillFunc{view, filled} {
			e := &glosEngine{s: s, r: r, fill: fill}
			want, wantB := threePassStep(row, s, fill, d, from, b, floor)
			buf := append(slices.Clone(row), make([]float64, n)...)
			got, gotB := e.step(buf[:n], buf[n:], d, from, b, floor)
			if gotB != wantB {
				t.Fatalf("trial %d (r=%d from=%d b=%d floor=%d): boundary %d, want %d", trial, r, from, b, floor, gotB, wantB)
			}
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("trial %d (r=%d from=%d): cell %d = %v, want %v", trial, r, from, from+i, got[i], want[i])
				}
			}
		}
	}
}
