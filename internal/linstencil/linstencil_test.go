package linstencil

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/nlstencil/amop/internal/fft"
	"github.com/nlstencil/amop/internal/obs"
)

func randStencil(rng *rand.Rand) Stencil {
	span := 1 + rng.Intn(2) // polynomial degree 1 or 2, like the paper's models
	w := make([]float64, span+1)
	sum := 0.0
	for i := range w {
		w[i] = rng.Float64()
		sum += w[i]
	}
	// Normalize to sum just under 1, matching the sub-stochastic discounted
	// weights of the pricing models; keeps k-step values O(1).
	for i := range w {
		w[i] *= 0.999 / sum
	}
	return Stencil{MinOff: -rng.Intn(2), W: w}
}

func randRow(rng *rand.Rand, n int) []float64 {
	row := make([]float64, n)
	for i := range row {
		row[i] = rng.NormFloat64()
	}
	return row
}

func maxDiff(a, b []float64) float64 {
	m := 0.0
	for i := range a {
		if d := math.Abs(a[i] - b[i]); d > m {
			m = d
		}
	}
	return m
}

func TestEvolveConeMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		s := randStencil(rng)
		n := 8 + rng.Intn(300)
		maxK := (n - 1) / s.Span()
		if maxK == 0 {
			continue
		}
		k := 1 + rng.Intn(maxK)
		row := randRow(rng, n)

		fast, fpFast := EvolveCone(row, s, k)
		naive, fpNaive := EvolveConeNaive(row, s, k)
		if fpFast != fpNaive {
			t.Fatalf("firstPos mismatch: fast %d naive %d", fpFast, fpNaive)
		}
		if len(fast) != len(naive) {
			t.Fatalf("length mismatch: fast %d naive %d", len(fast), len(naive))
		}
		if d := maxDiff(fast, naive); d > 1e-9 {
			t.Fatalf("trial %d (n=%d k=%d span=%d): max diff %g", trial, n, k, s.Span(), d)
		}
	}
}

// TestEvolveConeForcesFFTPath uses sizes above the naive cutoff so the FFT
// path is definitely exercised.
func TestEvolveConeForcesFFTPath(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	s := Stencil{MinOff: 0, W: []float64{0.48, 0.51}}
	n := 4096
	k := 1024
	row := randRow(rng, n)
	fast, _ := EvolveCone(row, s, k)
	naive, _ := EvolveConeNaive(row, s, k)
	if d := maxDiff(fast, naive); d > 1e-9 {
		t.Fatalf("max diff %g", d)
	}
}

// TestEvolveConeCentered exercises the BSM-like centered stencil.
func TestEvolveConeCentered(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	s := Stencil{MinOff: -1, W: []float64{0.3, 0.35, 0.3}}
	n := 2048
	k := 500
	row := randRow(rng, n)
	fast, fp := EvolveCone(row, s, k)
	naive, fpn := EvolveConeNaive(row, s, k)
	if fp != k || fpn != k {
		t.Fatalf("firstPos = %d/%d, want %d", fp, fpn, k)
	}
	if d := maxDiff(fast, naive); d > 1e-9 {
		t.Fatalf("max diff %g", d)
	}
}

// TestEvolveComposition checks k1+k2 steps equals k2 steps applied to the
// result of k1 steps (semigroup property).
func TestEvolveComposition(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	s := Stencil{MinOff: 0, W: []float64{0.4, 0.55}}
	n := 600
	k1, k2 := 130, 170
	row := randRow(rng, n)

	oneShot, _ := EvolveCone(row, s, k1+k2)
	mid, _ := EvolveCone(row, s, k1)
	twoShot, _ := EvolveCone(mid, s, k2)
	if d := maxDiff(oneShot, twoShot); d > 1e-9 {
		t.Fatalf("composition violated: max diff %g", d)
	}
}

// TestEvolveConeZeroSteps returns the input unchanged.
func TestEvolveConeZeroSteps(t *testing.T) {
	row := []float64{1, 2, 3}
	out, fp := EvolveCone(row, Stencil{MinOff: 0, W: []float64{0.5, 0.5}}, 0)
	if fp != 0 || maxDiff(out, row) != 0 {
		t.Fatalf("zero-step evolve changed the row: %v", out)
	}
	out[0] = 99
	if row[0] == 99 {
		t.Fatal("zero-step evolve aliased the input")
	}
}

// TestImpulseGivesBinomialKernel evolves a unit impulse and checks the result
// against the analytically known binomial kernel of a 2-point stencil.
func TestImpulseGivesBinomialKernel(t *testing.T) {
	s0, s1 := 0.47, 0.52
	s := Stencil{MinOff: 0, W: []float64{s0, s1}}
	k := 40
	n := 2 * k
	row := make([]float64, n)
	// Correlation form: out[j] = sum_m C[m] row[j+m]; an impulse at p makes
	// out[j] = C[p-j].
	p := n - 1
	row[p] = 1
	out, _ := EvolveCone(row, s, k)

	binom := func(k, m int) float64 {
		lg, _ := math.Lgamma(float64(k + 1))
		lg1, _ := math.Lgamma(float64(m + 1))
		lg2, _ := math.Lgamma(float64(k - m + 1))
		return math.Exp(lg - lg1 - lg2)
	}
	for j := range out {
		m := p - j
		want := 0.0
		if m >= 0 && m <= k {
			want = binom(k, m) * math.Pow(s0, float64(k-m)) * math.Pow(s1, float64(m))
		}
		if math.Abs(out[j]-want) > 1e-10 {
			t.Fatalf("kernel coefficient %d: got %g want %g", m, out[j], want)
		}
	}
}

func TestKernelCoefficients(t *testing.T) {
	s := Stencil{MinOff: 0, W: []float64{0.5, 0.25}}
	c := KernelCoefficients(s, 2)
	want := []float64{0.25, 0.25, 0.0625}
	if len(c) != len(want) {
		t.Fatalf("kernel length %d, want %d", len(c), len(want))
	}
	if d := maxDiff(c, want); d > 1e-15 {
		t.Fatalf("kernel %v, want %v", c, want)
	}
}

func TestEvolvePeriodicMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{2, 8, 64, 256} {
		for trial := 0; trial < 10; trial++ {
			s := randStencil(rng)
			k := rng.Intn(3 * n)
			row := randRow(rng, n)
			fast := EvolvePeriodic(row, s, k)
			naive := EvolvePeriodicNaive(row, s, k)
			if d := maxDiff(fast, naive); d > 1e-8 {
				t.Fatalf("n=%d k=%d minOff=%d: max diff %g", n, k, s.MinOff, d)
			}
		}
	}
}

// TestEvolvePeriodicConservation: a stencil whose weights sum to 1 conserves
// the row sum on a ring.
func TestEvolvePeriodicConservation(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	s := Stencil{MinOff: -1, W: []float64{0.25, 0.5, 0.25}}
	row := randRow(rng, 128)
	var before float64
	for _, v := range row {
		before += v
	}
	out := EvolvePeriodic(row, s, 200)
	var after float64
	for _, v := range out {
		after += v
	}
	if math.Abs(before-after) > 1e-8*(1+math.Abs(before)) {
		t.Fatalf("row sum not conserved: %g -> %g", before, after)
	}
}

// TestEvolveLinearity (property): evolution is linear in the input row.
func TestEvolveLinearity(t *testing.T) {
	s := Stencil{MinOff: 0, W: []float64{0.45, 0.5}}
	k := 16
	prop := func(xa, ya [96]float64, alpha float64) bool {
		if math.IsNaN(alpha) || math.Abs(alpha) > 1e3 {
			alpha = 1.5
		}
		x, y := xa[:], ya[:]
		comb := make([]float64, len(x))
		for i := range comb {
			comb[i] = alpha*x[i] + y[i]
		}
		ec, _ := EvolveCone(comb, s, k)
		ex, _ := EvolveCone(x, s, k)
		ey, _ := EvolveCone(y, s, k)
		for i := range ec {
			want := alpha*ex[i] + ey[i]
			if math.Abs(ec[i]-want) > 1e-7*(1+math.Abs(want)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestValidate(t *testing.T) {
	if err := (Stencil{MinOff: 0, W: []float64{0.5}}).Validate(); err != nil {
		t.Errorf("valid stencil rejected: %v", err)
	}
	if err := (Stencil{}).Validate(); err == nil {
		t.Error("empty stencil accepted")
	}
	if err := (Stencil{W: []float64{math.NaN()}}).Validate(); err == nil {
		t.Error("NaN weight accepted")
	}
	if err := (Stencil{W: []float64{math.Inf(1)}}).Validate(); err == nil {
		t.Error("Inf weight accepted")
	}
}

func TestEvolveConePanics(t *testing.T) {
	s := Stencil{MinOff: 0, W: []float64{0.5, 0.5}}
	row := make([]float64, 4)
	for name, fn := range map[string]func(){
		"negative steps": func() { EvolveCone(row, s, -1) },
		"empty cone":     func() { EvolveCone(row, s, 4) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
}

// TestUnrolledStepsMatchGeneric pins the 2- and 3-point direct loops to the
// generic weight loop bit for bit, then checks whole direct evolutions
// against the k-step kernel.
func TestUnrolledStepsMatchGeneric(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 200; trial++ {
		s := randStencil(rng)
		row := randRow(rng, len(s.W)+rng.Intn(300))
		row[0] = math.Copysign(0, -1) // a signed zero must survive as in the generic loop
		want := stepW(append([]float64(nil), row...), s.W)
		var got []float64
		if w := s.W; len(w) == 2 {
			got = step2(append([]float64(nil), row...), w[0], w[1])
		} else {
			got = step3(append([]float64(nil), row...), w[0], w[1], w[2])
		}
		if len(got) != len(want) {
			t.Fatalf("trial %d: length %d, want %d", trial, len(got), len(want))
		}
		for j := range want {
			if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
				t.Fatalf("trial %d (span %d) cell %d: unrolled %v, generic %v", trial, s.Span(), j, got[j], want[j])
			}
		}
	}
	for _, w := range [][]float64{{0.47, 0.52}, {0.3, 0.35, 0.33}} {
		s := Stencil{W: w}
		for k := 1; k <= 16; k++ {
			row := randRow(rng, k*s.Span()+1+rng.Intn(40))
			got, _ := EvolveConeNaive(row, s, k)
			c := KernelCoefficients(s, k)
			for j := range got {
				var want float64
				for m, cm := range c {
					want += cm * row[j+m]
				}
				if math.Abs(got[j]-want) > 1e-12 {
					t.Fatalf("span %d k=%d cell %d: direct %v, kernel %v", s.Span(), k, j, got[j], want)
				}
			}
		}
	}
}

func BenchmarkEvolveCone64K(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	s := Stencil{MinOff: 0, W: []float64{0.48, 0.51}}
	n := 1 << 16
	row := randRow(rng, n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		EvolveCone(row, s, n/4)
	}
}

// Only FFT-path evolutions are timed: the k=0 copy and the direct loop
// record nothing, and each FFT-path call adds exactly one FFTEvolve record
// and one fft_evolve stage entry to the installed trace. An FFT-path call
// counts one forward and one inverse transform of the padded size, as the
// transform counters have always counted it.
func TestEvolveTelemetryFFTPathOnly(t *testing.T) {
	defer obs.SetEnabled(obs.SetEnabled(true))
	tr := obs.StartTrace("test", "")
	defer obs.SetActive(obs.SetActive(tr))
	s := Stencil{W: []float64{0.5, 0.49}}
	count := func() int64 { return obs.FFTEvolve.Snapshot().Count }

	before := count()
	EvolveCone(make([]float64, 64), s, 0)
	EvolveCone(make([]float64, 64), s, 3) // 64*3*2 cells: the direct loop
	if got := count(); got != before {
		t.Fatalf("direct-path evolutions added %d FFTEvolve records, want 0", got-before)
	}
	c0, b0 := fft.SoATransforms(), fft.TransformedBytes()
	EvolveCone(make([]float64, 4000), s, 512)
	if got := count(); got != before+1 {
		t.Fatalf("FFT-path EvolveCone added %d FFTEvolve records, want 1", got-before)
	}
	if c := fft.SoATransforms() - c0; c != 2 {
		t.Errorf("FFT-path EvolveCone counted %d transforms, want 2", c)
	}
	if b := fft.TransformedBytes() - b0; b != 2*8*4096 {
		t.Errorf("FFT-path EvolveCone counted %d transform bytes, want %d", b, 2*8*4096)
	}
	EvolvePeriodic(make([]float64, 64), s, 5)
	if got := count(); got != before+2 {
		t.Fatalf("EvolvePeriodic added %d FFTEvolve records, want 1", got-before-1)
	}
	stages := 0
	for _, st := range tr.Finish().Stages {
		if st.Stage == obs.StageFFTEvolve.String() {
			stages += int(st.Count)
		}
	}
	if stages != 2 {
		t.Errorf("trace holds %d fft_evolve entries, want 2", stages)
	}
}
