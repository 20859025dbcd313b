package fft

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/nlstencil/amop/internal/par"
)

// naiveDFT is the O(n^2) reference transform.
func naiveDFT(a []complex128, inverse bool) []complex128 {
	n := len(a)
	out := make([]complex128, n)
	sign := -1.0
	if inverse {
		sign = 1.0
	}
	for f := 0; f < n; f++ {
		var sum complex128
		for j := 0; j < n; j++ {
			ang := sign * 2 * math.Pi * float64(j) * float64(f) / float64(n)
			sum += a[j] * cmplx.Exp(complex(0, ang))
		}
		if inverse {
			sum /= complex(float64(n), 0)
		}
		out[f] = sum
	}
	return out
}

func randVec(rng *rand.Rand, n int) []complex128 {
	a := make([]complex128, n)
	for i := range a {
		a[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	return a
}

func maxAbsDiff(a, b []complex128) float64 {
	m := 0.0
	for i := range a {
		if d := cmplx.Abs(a[i] - b[i]); d > m {
			m = d
		}
	}
	return m
}

func TestForwardMatchesNaiveDFT(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 2, 4, 8, 16, 32, 64, 128, 256} {
		a := randVec(rng, n)
		want := naiveDFT(a, false)
		got := append([]complex128(nil), a...)
		NewPlan(n).Forward(got)
		if d := maxAbsDiff(got, want); d > 1e-9 {
			t.Errorf("n=%d: forward differs from naive DFT by %g", n, d)
		}
	}
}

func TestInverseMatchesNaiveDFT(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, n := range []int{1, 2, 8, 64, 256} {
		a := randVec(rng, n)
		want := naiveDFT(a, true)
		got := append([]complex128(nil), a...)
		NewPlan(n).Inverse(got)
		if d := maxAbsDiff(got, want); d > 1e-9 {
			t.Errorf("n=%d: inverse differs from naive DFT by %g", n, d)
		}
	}
}

func TestRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{1, 2, 16, 1024, 4096} {
		a := randVec(rng, n)
		got := append([]complex128(nil), a...)
		p := NewPlan(n)
		p.Forward(got)
		p.Inverse(got)
		if d := maxAbsDiff(got, a); d > 1e-10*float64(n) {
			t.Errorf("n=%d: round trip error %g", n, d)
		}
	}
}

// TestRoundTripQuick is a property test: Forward then Inverse recovers any
// input vector.
func TestRoundTripQuick(t *testing.T) {
	prop := func(re, im [64]float64) bool {
		a := make([]complex128, 64)
		for i := range a {
			a[i] = complex(re[i], im[i])
		}
		got := append([]complex128(nil), a...)
		p := PlanFor(64)
		p.Forward(got)
		p.Inverse(got)
		for i := range a {
			scale := 1 + cmplx.Abs(a[i])
			if cmplx.Abs(got[i]-a[i]) > 1e-9*scale {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestLinearity checks DFT(alpha*x + y) == alpha*DFT(x) + DFT(y).
func TestLinearity(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	n := 512
	p := NewPlan(n)
	x := randVec(rng, n)
	y := randVec(rng, n)
	alpha := complex(1.7, -0.3)

	comb := make([]complex128, n)
	for i := range comb {
		comb[i] = alpha*x[i] + y[i]
	}
	p.Forward(comb)

	fx := append([]complex128(nil), x...)
	fy := append([]complex128(nil), y...)
	p.Forward(fx)
	p.Forward(fy)
	for i := range fx {
		fx[i] = alpha*fx[i] + fy[i]
	}
	if d := maxAbsDiff(comb, fx); d > 1e-9 {
		t.Errorf("linearity violated: max diff %g", d)
	}
}

// TestParseval checks sum |a|^2 == (1/n) sum |A|^2.
func TestParseval(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	n := 2048
	a := randVec(rng, n)
	var timeE float64
	for _, v := range a {
		timeE += real(v)*real(v) + imag(v)*imag(v)
	}
	f := append([]complex128(nil), a...)
	NewPlan(n).Forward(f)
	var freqE float64
	for _, v := range f {
		freqE += real(v)*real(v) + imag(v)*imag(v)
	}
	freqE /= float64(n)
	if math.Abs(timeE-freqE) > 1e-8*timeE {
		t.Errorf("Parseval violated: time %g freq %g", timeE, freqE)
	}
}

// TestImpulse checks that a unit impulse transforms to the all-ones vector.
func TestImpulse(t *testing.T) {
	n := 128
	a := make([]complex128, n)
	a[0] = 1
	NewPlan(n).Forward(a)
	for i, v := range a {
		if cmplx.Abs(v-1) > 1e-12 {
			t.Fatalf("impulse transform at %d = %v, want 1", i, v)
		}
	}
}

// TestShiftTheorem checks DFT(shift(a, s))[f] == DFT(a)[f] * exp(-2*pi*i*s*f/n).
func TestShiftTheorem(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	n := 256
	s := 37
	a := randVec(rng, n)
	shifted := make([]complex128, n)
	for i := range a {
		shifted[(i+s)%n] = a[i]
	}
	p := NewPlan(n)
	fa := append([]complex128(nil), a...)
	p.Forward(fa)
	p.Forward(shifted)
	for f := 0; f < n; f++ {
		ang := -2 * math.Pi * float64(s) * float64(f) / float64(n)
		want := fa[f] * cmplx.Exp(complex(0, ang))
		if cmplx.Abs(shifted[f]-want) > 1e-9 {
			t.Fatalf("shift theorem violated at f=%d", f)
		}
	}
}

// TestParallelMatchesSerial verifies the parallel stage code computes exactly
// what the serial path computes on a transform large enough to trigger it.
func TestParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	n := parThreshold() * 4
	a := randVec(rng, n)
	p := NewPlan(n)

	serial := append([]complex128(nil), a...)
	prev := par.SetWorkers(1)
	p.Forward(serial)
	par.SetWorkers(prev)

	parallel := append([]complex128(nil), a...)
	p.Forward(parallel)

	if d := maxAbsDiff(serial, parallel); d > 0 {
		// Parallel and serial orderings perform identical arithmetic per
		// butterfly, so results should be bit-identical.
		t.Errorf("parallel transform differs from serial by %g", d)
	}
}

func TestNextPow2(t *testing.T) {
	cases := map[int]int{
		-5: 1, 0: 1, 1: 1, 2: 2, 3: 4, 4: 4, 5: 8,
		1023: 1024, 1024: 1024, 1025: 2048,
	}
	for in, want := range cases {
		if got := NextPow2(in); got != want {
			t.Errorf("NextPow2(%d) = %d, want %d", in, got, want)
		}
	}
}

func TestNewPlanPanicsOnBadSize(t *testing.T) {
	for _, n := range []int{0, -1, 3, 6, 100} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewPlan(%d) did not panic", n)
				}
			}()
			NewPlan(n)
		}()
	}
}

func TestTransformPanicsOnLengthMismatch(t *testing.T) {
	p := NewPlan(8)
	defer func() {
		if recover() == nil {
			t.Error("Forward with wrong length did not panic")
		}
	}()
	p.Forward(make([]complex128, 4))
}

func TestPow(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 100; trial++ {
		z := complex(rng.NormFloat64(), rng.NormFloat64())
		// Normalize to avoid overflow for large k; stencil symbols always
		// have modulus <= 1.
		z /= complex(cmplx.Abs(z)+0.1, 0)
		k := rng.Intn(1 << 20)
		got := Pow(z, k)
		want := cmplx.Pow(z, complex(float64(k), 0))
		if cmplx.Abs(got-want) > 1e-8*(1+cmplx.Abs(want)) {
			t.Fatalf("Pow(%v, %d) = %v, want %v", z, k, got, want)
		}
	}
	if got := Pow(complex(2, 3), 0); got != 1 {
		t.Errorf("Pow(z, 0) = %v, want 1", got)
	}
}

func TestPowPanicsOnNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Pow with negative exponent did not panic")
		}
	}()
	Pow(1i, -1)
}

func TestPlanForCaches(t *testing.T) {
	a := PlanFor(256)
	b := PlanFor(256)
	if a != b {
		t.Error("PlanFor returned distinct plans for the same size")
	}
}

// TestSetParThreshold checks the setter returns the previous value, that
// n <= 0 restores the default, and that a tiny threshold (forcing the
// parallel path onto small transforms) preserves parity with the naive DFT.
func TestSetParThreshold(t *testing.T) {
	orig := ParThreshold()
	if prev := setParThreshold(64); prev != orig {
		t.Errorf("setParThreshold returned %d, want previous value %d", prev, orig)
	}
	if got := ParThreshold(); got != 64 {
		t.Errorf("ParThreshold() = %d after setParThreshold(64)", got)
	}
	rng := rand.New(rand.NewSource(44))
	for _, n := range []int{128, 256} {
		a := randVec(rng, n)
		got := append([]complex128(nil), a...)
		PlanFor(n).Forward(got)
		if d := maxAbsDiff(got, naiveDFT(a, false)); d > 1e-9 {
			t.Errorf("n=%d with threshold 64: differs from naive DFT by %g", n, d)
		}
	}
	if prev := setParThreshold(0); prev != 64 {
		t.Errorf("setParThreshold(0) returned %d, want 64", prev)
	}
	if got := ParThreshold(); got != 1<<13 {
		t.Errorf("ParThreshold() = %d after reset, want default %d", got, 1<<13)
	}
	setParThreshold(orig)
}

// TestPrewarmPopulatesPlanCaches checks Prewarm installs the whole plan
// ladder, so a later PlanFor/RPlanFor is a pure cache hit.
func TestPrewarmPopulatesPlanCaches(t *testing.T) {
	Prewarm(1000) // ladder up to 1024
	for s := 1; s <= 1024; s <<= 1 {
		if _, ok := planCache.Load(s); !ok {
			t.Errorf("Prewarm(1000) did not cache the complex plan of size %d", s)
		}
		if _, ok := rplanCache.Load(s); !ok {
			t.Errorf("Prewarm(1000) did not cache the real plan of size %d", s)
		}
	}
}

func BenchmarkForward1K(b *testing.B)   { benchForward(b, 1<<10) }
func BenchmarkForward64K(b *testing.B)  { benchForward(b, 1<<16) }
func BenchmarkForward512K(b *testing.B) { benchForward(b, 1<<19) }

func benchForward(b *testing.B, n int) {
	rng := rand.New(rand.NewSource(9))
	a := randVec(rng, n)
	buf := make([]complex128, n)
	p := PlanFor(n)
	b.SetBytes(int64(16 * n))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(buf, a)
		p.Forward(buf)
	}
}
