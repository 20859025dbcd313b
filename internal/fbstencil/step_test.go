package fbstencil

import (
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"testing"

	"github.com/nlstencil/amop/internal/fft"
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
// threePassStep on the grid's cells: random rows whose obstacle wins at
// scattered cells, spans 1 to 3, windows that start left of column 0, whose
// virtual cells the engine neither stores nor steps, floors, and a cell
// right of b that the obstacle wins by one ulp, which must not move the
// boundary.
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
		// a depth-d+1 row at tab[col+d+1], as view reads it.
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
		view := func(depth, lo, hi int, _ []float64) []float64 { return tab[lo+depth : hi+depth+1] }
		filled := func(depth, lo, hi int, buf []float64) []float64 {
			return append(buf[:0], view(depth, lo, hi, nil)...)
		}
		for _, fill := range []FillFunc{view, filled} {
			// The engine's row holds column c at index c: the window's
			// cells on the grid, with the row's last column at hi(d).
			e := &glosEngine{s: s, w: w, r: r, fill: fill, hi0: from + n - 1 + d*r}
			want, wantB := threePassStep(row, s, fill, d, from, b, floor)
			lo := max(from, 0)
			buf := make([]float64, max(from+n, lo))
			if lo < from+n {
				copy(buf[lo:], row[lo-from:])
			}
			gotB := e.direct(buf, make([]float64, len(buf)), d, from, b, floor)
			if gotB != wantB {
				t.Fatalf("trial %d (r=%d from=%d b=%d floor=%d): boundary %d, want %d", trial, r, from, b, floor, gotB, wantB)
			}
			for c := lo; c < from+len(want); c++ {
				if math.Float64bits(buf[c]) != math.Float64bits(want[c-from]) {
					t.Fatalf("trial %d (r=%d from=%d): cell %d = %v, want %v", trial, r, from, c, buf[c], want[c-from])
				}
			}
		}
	}
}

// sameCell reports whether the kernel's cell a is the generic loop's b: the
// same bits, or both NaN. Go leaves a NaN's payload to the operand order the
// compiler picks, which the spec does not fix, so two NaNs count as one.
func sameCell(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

// checkStepKernel runs StepObstacle and stepObstacleGeneric on copies of the
// same rows, in place (dst = src[:n]) or out of place, and fails unless
// every cell of the buffers and the boundary agree.
func checkStepKernel(t *testing.T, src, ex, w []float64, n, b int, inPlace bool) {
	t.Helper()
	run := func(step func(dst, src, ex, w []float64, b int) int) ([]float64, []float64, int) {
		s := slices.Clone(src)
		dst := make([]float64, n)
		if inPlace {
			dst = s[:n]
		}
		return s, dst, step(dst, s, ex, w, b)
	}
	gotSrc, got, gotB := run(StepObstacle)
	wantSrc, want, wantB := run(stepObstacleGeneric)
	if gotB != wantB {
		t.Fatalf("span %d n=%d b=%d inPlace=%v: boundary %d, want %d", len(w)-1, n, b, inPlace, gotB, wantB)
	}
	for j := range want {
		if !sameCell(got[j], want[j]) {
			t.Fatalf("span %d n=%d b=%d inPlace=%v: cell %d = %v (%#x), want %v (%#x)", len(w)-1, n, b, inPlace,
				j, got[j], math.Float64bits(got[j]), want[j], math.Float64bits(want[j]))
		}
	}
	for j := range wantSrc {
		if !sameCell(gotSrc[j], wantSrc[j]) {
			t.Fatalf("span %d n=%d b=%d inPlace=%v: src cell %d = %v, want %v", len(w)-1, n, b, inPlace, j, gotSrc[j], wantSrc[j])
		}
	}
}

// TestStepKernelParity pins the dispatching StepObstacle bitwise to the
// generic loops: spans 1 and 2 (the AVX2 kernel's where the CPU has it) and
// span 3 (generic everywhere); every length 0..200, so every n%4 and the
// lengths below one block; in place and out of place; b below 0, in each
// lane of a block, at the last cell and beyond it. The obstacle rows tie,
// beat and miss the linear part by one ulp and hold NaN, ±0, ±Inf; the
// source rows hold NaN and runs of -0, whose products sum to +0 from the
// zero accumulator.
func TestStepKernelParity(t *testing.T) {
	t.Logf("step kernel: %s", fft.KernelName())
	rng := rand.New(rand.NewSource(38))
	special := []float64{math.NaN(), 0, math.Copysign(0, -1), math.Inf(-1), math.Inf(1)}
	for r := 1; r <= 3; r++ {
		for n := 0; n <= 200; n++ {
			w := make([]float64, r+1)
			for i := range w {
				w[i] = rng.Float64() / float64(r+1)
			}
			if n%7 == 3 {
				w[r] = -w[r]
			}
			src := make([]float64, n+r)
			for i := range src {
				switch u := rng.Intn(20); {
				case u == 0:
					src[i] = math.NaN()
				case u <= 2:
					src[i] = math.Copysign(0, -1)
				default:
					src[i] = rng.NormFloat64()
				}
			}
			if n >= 12 {
				for i := n / 2; i < n/2+r+4; i++ {
					src[i] = math.Copysign(0, -1) // a block of -0 products
				}
			}
			lin := make([]float64, n)
			noObstacle := slices.Repeat([]float64{math.Inf(-1)}, n)
			stepObstacleGeneric(lin, src, noObstacle, w, -1)
			ex := make([]float64, n)
			for j := range ex {
				switch u := rng.Intn(12); {
				case u == 0:
					ex[j] = special[rng.Intn(len(special))]
				case u == 1:
					ex[j] = lin[j] // a tie is no win
				case u == 2:
					ex[j] = math.Nextafter(lin[j], math.Inf(1))
				case u == 3:
					ex[j] = math.Nextafter(lin[j], math.Inf(-1))
				default:
					ex[j] = lin[j] + rng.NormFloat64()
				}
			}
			bs := []int{math.MinInt, -1, 0, n - 1, n, n + 5, math.MaxInt}
			for lane := 0; lane < 4; lane++ {
				bs = append(bs, 4*(n/8)+lane, 4+lane)
			}
			for _, b := range bs {
				for _, inPlace := range []bool{false, true} {
					checkStepKernel(t, src, ex, w, n, b, inPlace)
				}
			}
		}
	}
}

// FuzzStepObstacle drives the dispatching StepObstacle and the generic
// loops with arbitrary weights, rows (the bytes as float64s: the source row,
// then the obstacle row), b and in-place flag, and requires every cell and
// the boundary to agree.
func FuzzStepObstacle(f *testing.F) {
	row := func(xs ...float64) []byte {
		var out []byte
		for _, x := range xs {
			out = binary.LittleEndian.AppendUint64(out, math.Float64bits(x))
		}
		return out
	}
	f.Add(0.5, 0.5, 0.0, uint8(1), row(1, 2, 3, 4, 5, 6, 7, 8, 9, 0, 9, 0, 9, 0, 9, 0, 9), int64(5), false)
	f.Add(0.25, 0.5, 0.25, uint8(2), row(1, -1, 2, -2, 3, -3, 4, -4, 5, 2, -2, 3, -3, 4, -4, 5, 9, 0), int64(3), true)
	f.Add(0.3, 0.7, 0.0, uint8(1), row(math.Copysign(0, -1), math.Copysign(0, -1), math.Copysign(0, -1), math.Copysign(0, -1),
		math.Copysign(0, -1), math.Copysign(0, -1), math.NaN(), math.Inf(-1), 0, 0), int64(-1), false)
	f.Add(0.1, 0.2, 0.3, uint8(3), row(1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 1, 1, 1, 1, 1), int64(100), true)
	f.Fuzz(func(t *testing.T, w0, w1, w2 float64, span uint8, data []byte, b int64, inPlace bool) {
		w := []float64{w0, w1, w2, 0.5}[:2+int(span%3)]
		r := len(w) - 1
		xs := make([]float64, len(data)/8)
		for i := range xs {
			xs[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:]))
		}
		if len(xs) < r {
			return
		}
		n := (len(xs) - r) / 2
		checkStepKernel(t, xs[:n+r], xs[n+r:2*n+r], w, n, int(b), inPlace)
	})
}
