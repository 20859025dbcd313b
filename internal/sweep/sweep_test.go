package sweep

import (
	"math"
	"math/rand"
	"testing"
)

// randProblem builds a synthetic nonlinear instance with sub-stochastic
// weights and a smooth synthetic obstacle; the sweeps make no structural
// assumptions, so any instance is a valid cross-check.
func randProblem(rng *rand.Rand, r, T int) *Problem {
	w := make([]float64, r+1)
	sum := 0.0
	for i := range w {
		w[i] = 0.1 + rng.Float64()
		sum += w[i]
	}
	for i := range w {
		w[i] *= 0.995 / sum
	}
	scale := 1 + 4*rng.Float64()
	off := rng.NormFloat64()
	return &Problem{
		W:    w,
		T:    T,
		Hi0:  T * r,
		Leaf: func(col int) float64 { return math.Abs(math.Sin(float64(col)*0.01)) * scale },
		FillExercise: func(depth, lo, hi int, buf []float64) []float64 {
			out := buf[:hi-lo+1]
			for i := range out {
				x := float64(lo+i)*0.004 - float64(depth)*0.002 + off
				out[i] = scale * math.Exp(-x*x)
			}
			return out
		},
	}
}

func maxRel(a, b float64) float64 {
	return math.Abs(a-b) / (1 + math.Max(math.Abs(a), math.Abs(b)))
}

func TestAllSweepsAgreeRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	for trial := 0; trial < 25; trial++ {
		r := 1 + rng.Intn(2)
		T := 20 + rng.Intn(400)
		p := randProblem(rng, r, T)
		ref := Naive(p)
		if v := NaiveParallel(p); maxRel(v, ref) > 1e-12 {
			t.Errorf("trial %d (r=%d T=%d) parallel: %.15g vs %.15g", trial, r, T, v, ref)
		}
		if v := Recursive(p); maxRel(v, ref) > 1e-12 {
			t.Errorf("trial %d (r=%d T=%d) recursive: %.15g vs %.15g", trial, r, T, v, ref)
		}
		for _, wh := range [][2]int{{0, 0}, {64, 8}, {17, 3}, {2*r + 1, 1}} {
			if v := Tiled(p, wh[0], wh[1]); maxRel(v, ref) > 1e-12 {
				t.Errorf("trial %d (r=%d T=%d) tiled %v: %.15g vs %.15g", trial, r, T, wh, v, ref)
			}
		}
	}
}

func TestEuropeanSweeps(t *testing.T) {
	rng := rand.New(rand.NewSource(82))
	for trial := 0; trial < 10; trial++ {
		r := 1 + rng.Intn(2)
		p := randProblem(rng, r, 150)
		p.FillExercise = nil // linear (European) mode
		ref := Naive(p)
		if v := NaiveParallel(p); maxRel(v, ref) > 1e-12 {
			t.Errorf("trial %d parallel: %.15g vs %.15g", trial, v, ref)
		}
		if v := Recursive(p); maxRel(v, ref) > 1e-12 {
			t.Errorf("trial %d recursive: %.15g vs %.15g", trial, v, ref)
		}
		if v := Tiled(p, 0, 0); maxRel(v, ref) > 1e-12 {
			t.Errorf("trial %d tiled: %.15g vs %.15g", trial, v, ref)
		}
	}
}

func TestTinyProblems(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	for _, T := range []int{1, 2, 3, 5, 8} {
		for r := 1; r <= 2; r++ {
			p := randProblem(rng, r, T)
			ref := Naive(p)
			if v := Tiled(p, 0, 0); maxRel(v, ref) > 1e-13 {
				t.Errorf("T=%d r=%d tiled: %.15g vs %.15g", T, r, v, ref)
			}
			if v := Recursive(p); maxRel(v, ref) > 1e-13 {
				t.Errorf("T=%d r=%d recursive: %.15g vs %.15g", T, r, v, ref)
			}
			if v := NaiveParallel(p); maxRel(v, ref) > 1e-13 {
				t.Errorf("T=%d r=%d parallel: %.15g vs %.15g", T, r, v, ref)
			}
		}
	}
}

// TestWideGrid exercises Hi0 > T*r (a grid wider than the answer cone
// strictly needs, as in TOPM where Hi0 = 2T with r = 2... here with r = 1).
func TestWideGrid(t *testing.T) {
	rng := rand.New(rand.NewSource(84))
	p := randProblem(rng, 1, 100)
	p.Hi0 = 250
	ref := Naive(p)
	if v := Tiled(p, 32, 4); maxRel(v, ref) > 1e-13 {
		t.Errorf("tiled: %.15g vs %.15g", v, ref)
	}
	if v := Recursive(p); maxRel(v, ref) > 1e-13 {
		t.Errorf("recursive: %.15g vs %.15g", v, ref)
	}
}

// TestStepRow pins the row kernel bitwise to the plain loop it replaces, for
// each span, with and without the exercise chunk, in place and out of place.
func TestStepRow(t *testing.T) {
	rng := rand.New(rand.NewSource(85))
	for r := 1; r <= 2; r++ {
		for _, american := range []bool{false, true} {
			for _, inPlace := range []bool{false, true} {
				n := 1 + rng.Intn(700)
				w := make([]float64, r+1)
				for i := range w {
					w[i] = rng.Float64()
				}
				src := make([]float64, n+r)
				for i := range src {
					src[i] = rng.NormFloat64()
				}
				var ex []float64
				if american {
					ex = make([]float64, n)
					for i := range ex {
						ex[i] = rng.NormFloat64()
					}
				}
				want := make([]float64, n)
				for j := range want {
					var lin float64
					for o := 0; o <= r; o++ {
						lin += w[o] * src[j+o]
					}
					if ex != nil && ex[j] > lin {
						lin = ex[j]
					}
					want[j] = lin
				}
				dst := make([]float64, n)
				if inPlace {
					dst = src[:n]
				}
				stepRow(dst, src, ex, w)
				for j := range want {
					if math.Float64bits(dst[j]) != math.Float64bits(want[j]) {
						t.Fatalf("r=%d american=%v inPlace=%v cell %d: %v, want %v", r, american, inPlace, j, dst[j], want[j])
					}
				}
			}
		}
	}
}
