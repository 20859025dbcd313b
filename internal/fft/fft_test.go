package fft

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/nlstencil/amop/internal/par"
)

// naiveDFT is the O(n^2) reference transform. The twiddle angle is reduced
// mod n in integers so the reference carries no argument-growth error.
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
			ang := sign * 2 * math.Pi * float64(j*f%n) / float64(n)
			sum += a[j] * cmplx.Exp(complex(0, ang))
		}
		if inverse {
			sum /= complex(float64(n), 0)
		}
		out[f] = sum
	}
	return out
}

func randReal(rng *rand.Rand, n int) []float64 {
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	return x
}

// randUnit returns n samples uniform in [-1, 1].
func randUnit(rng *rand.Rand, n int) []float64 {
	x := make([]float64, n)
	for i := range x {
		x[i] = 2*rng.Float64() - 1
	}
	return x
}

func toComplex(x []float64) []complex128 {
	a := make([]complex128, len(x))
	for i, v := range x {
		a[i] = complex(v, 0)
	}
	return a
}

// fullSpectrum extends a half spectrum to all n bins by the conjugate
// symmetry X[n-k] = conj(X[k]) of a real row.
func fullSpectrum(spec []complex128, n int) []complex128 {
	full := make([]complex128, n)
	for k := range full {
		if k < len(spec) {
			full[k] = spec[k]
		} else {
			full[k] = cmplx.Conj(spec[n-k])
		}
	}
	return full
}

// randHalfSpectrum returns a random half spectrum of a real row of length
// n: the DC and Nyquist bins are real.
func randHalfSpectrum(rng *rand.Rand, n int) []complex128 {
	spec := make([]complex128, n/2+1)
	for k := range spec {
		spec[k] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	spec[0] = complex(real(spec[0]), 0)
	spec[n/2] = complex(real(spec[n/2]), 0)
	return spec
}

func maxAbsDiff(a, b []complex128) float64 {
	m := 0.0
	for i := range a {
		if d := cmplx.Abs(a[i] - b[i]); d > m || math.IsNaN(d) {
			m = d // once NaN, m stays NaN
		}
	}
	return m
}

// forwardSoA returns rp's half spectrum of x as complex numbers.
func forwardSoA(rp *RPlan, x []float64) []complex128 {
	sr := make([]float64, rp.HalfLen())
	si := make([]float64, rp.HalfLen())
	rp.ForwardSoA(x, sr, si)
	spec := make([]complex128, len(sr))
	for k := range spec {
		spec[k] = complex(sr[k], si[k])
	}
	return spec
}

// inverseSoA returns the real row whose half spectrum is spec, leaving spec
// untouched.
func inverseSoA(rp *RPlan, spec []complex128) []float64 {
	sr := make([]float64, len(spec))
	si := make([]float64, len(spec))
	for k, z := range spec {
		sr[k], si[k] = real(z), imag(z)
	}
	x := make([]float64, rp.Size())
	rp.InverseSoA(sr, si, x)
	return x
}

// TestForwardMatchesNaiveDFT checks the half spectrum against the O(n^2)
// DFT. Sizes up to 4 are computed in closed form and must agree within
// 1e-15 on inputs in [-1, 1]; the kernel sizes within 1e-9.
func TestForwardMatchesNaiveDFT(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 2, 4, 8, 16, 32, 64, 128, 256} {
		x := randUnit(rng, n)
		want := naiveDFT(toComplex(x), false)
		got := forwardSoA(RPlanFor(n), x)
		tol := 1e-9
		if n <= 4 {
			tol = 1e-15
		}
		if d := maxAbsDiff(got, want[:n/2+1]); !(d <= tol) {
			t.Errorf("n=%d: forward differs from naive DFT by %g", n, d)
		}
	}
}

// TestInverseMatchesNaiveDFT feeds a random half spectrum of a real row to
// InverseSoA and checks the row against the O(n^2) inverse DFT of the full
// conjugate-symmetric spectrum, within 1e-15 for the closed-form sizes.
func TestInverseMatchesNaiveDFT(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, n := range []int{1, 2, 4, 8, 64, 256} {
		spec := randHalfSpectrum(rng, n)
		for k := range spec {
			spec[k] /= 4 // components of order 1/4
		}
		want := naiveDFT(fullSpectrum(spec, n), true)
		got := inverseSoA(RPlanFor(n), spec)
		tol := 1e-9
		if n <= 4 {
			tol = 1e-15
		}
		if d := maxAbsDiff(toComplex(got), want); !(d <= tol) {
			t.Errorf("n=%d: inverse differs from naive DFT by %g", n, d)
		}
	}
}

func TestRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{1, 2, 16, 1024, 4096} {
		x := randReal(rng, n)
		rp := RPlanFor(n)
		got := inverseSoA(rp, forwardSoA(rp, x))
		if d := maxAbsDiff(toComplex(got), toComplex(x)); !(d <= 1e-10*float64(n)) {
			t.Errorf("n=%d: round trip error %g", n, d)
		}
	}
}

// TestRoundTripQuick is a property test: ForwardSoA then InverseSoA
// recovers any input row.
func TestRoundTripQuick(t *testing.T) {
	prop := func(v [64]float64) bool {
		x := make([]float64, 64)
		for i := range x {
			// quick generates magnitudes up to MaxFloat64; scale into a range
			// whose partial sums cannot overflow (the property is scale-free).
			x[i] = v[i] / 1e300
		}
		rp := RPlanFor(64)
		got := inverseSoA(rp, forwardSoA(rp, x))
		for i := range x {
			if !(math.Abs(got[i]-x[i]) <= 1e-9*(1+math.Abs(x[i]))) {
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
	rp := RPlanFor(n)
	x := randReal(rng, n)
	y := randReal(rng, n)
	alpha := 1.7

	comb := make([]float64, n)
	for i := range comb {
		comb[i] = alpha*x[i] + y[i]
	}
	got := forwardSoA(rp, comb)

	want := forwardSoA(rp, x)
	fy := forwardSoA(rp, y)
	for k := range want {
		want[k] = complex(alpha, 0)*want[k] + fy[k]
	}
	if d := maxAbsDiff(got, want); !(d <= 1e-9) {
		t.Errorf("linearity violated: max diff %g", d)
	}
}

// TestParseval checks sum x^2 == (1/n) sum |X|^2 over all n bins, where the
// bins 1..n/2-1 of the half spectrum each stand for two.
func TestParseval(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	n := 2048
	x := randReal(rng, n)
	var timeE float64
	for _, v := range x {
		timeE += v * v
	}
	spec := forwardSoA(RPlanFor(n), x)
	var freqE float64
	for k, z := range spec {
		e := real(z)*real(z) + imag(z)*imag(z)
		if k != 0 && k != n/2 {
			e *= 2
		}
		freqE += e
	}
	freqE /= float64(n)
	if !(math.Abs(timeE-freqE) <= 1e-8*timeE) {
		t.Errorf("Parseval violated: time %g freq %g", timeE, freqE)
	}
}

// TestImpulse checks that a unit impulse transforms to the all-ones spectrum.
func TestImpulse(t *testing.T) {
	n := 128
	x := make([]float64, n)
	x[0] = 1
	for k, z := range forwardSoA(RPlanFor(n), x) {
		if !(cmplx.Abs(z-1) <= 1e-12) {
			t.Fatalf("impulse transform at %d = %v, want 1", k, z)
		}
	}
}

// TestShiftTheorem checks DFT(shift(x, s))[f] == DFT(x)[f] * exp(-2*pi*i*s*f/n).
func TestShiftTheorem(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	n := 256
	s := 37
	x := randReal(rng, n)
	shifted := make([]float64, n)
	for i := range x {
		shifted[(i+s)%n] = x[i]
	}
	rp := RPlanFor(n)
	fx := forwardSoA(rp, x)
	fs := forwardSoA(rp, shifted)
	for f := range fx {
		ang := -2 * math.Pi * float64(s*f%n) / float64(n)
		want := fx[f] * cmplx.Exp(complex(0, ang))
		if !(cmplx.Abs(fs[f]-want) <= 1e-9) {
			t.Fatalf("shift theorem violated at f=%d", f)
		}
	}
}

// TestParallelMatchesSerial runs the stage ladder of a plan large enough to
// take the parallel path (4*ParThreshold, odd log2, so the trailing radix-2
// stage splits too) with one worker and with four: the parallel split only
// partitions loop ranges, so the planes must be bit-identical.
func TestParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	n := 4 * ParThreshold
	p := planFor(n)
	re, im := randReal(rng, n), randReal(rng, n)
	run := func(workers int) (r, i []float64) {
		prev := par.SetWorkers(workers)
		defer par.SetWorkers(prev)
		r, i = append([]float64(nil), re...), append([]float64(nil), im...)
		p.ditStages(r, i)
		return r, i
	}
	sr, si := run(1)
	pr, pi := run(4)
	for j := range sr {
		if pr[j] != sr[j] || pi[j] != si[j] {
			t.Fatalf("lane %d: parallel stages differ from serial (want bit-identical)", j)
		}
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
					t.Errorf("newPlan(%d) did not panic", n)
				}
			}()
			newPlan(n)
		}()
	}
}

// TestTransformPanicsOnLengthMismatch checks the closed-form sizes validate
// their buffers like the kernel sizes do (TestRPlanSoAPlanePanics).
func TestTransformPanicsOnLengthMismatch(t *testing.T) {
	for _, n := range []int{1, 2, 4} {
		rp := RPlanFor(n)
		h := rp.HalfLen()
		for _, fn := range []func(){
			func() { rp.ForwardSoA(make([]float64, n+1), make([]float64, h), make([]float64, h)) },
			func() { rp.ForwardSoA(make([]float64, n), make([]float64, h+1), make([]float64, h)) },
			func() { rp.InverseSoA(make([]float64, h), make([]float64, h-1), make([]float64, n)) },
			func() { rp.InverseSoA(make([]float64, h), make([]float64, h), make([]float64, 2*n)) },
		} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("n=%d: mismatched plane lengths did not panic", n)
					}
				}()
				fn()
			}()
		}
	}
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
	if planFor(256) != planFor(256) {
		t.Error("planFor returned distinct plans for the same size")
	}
	if RPlanFor(512).inner != planFor(256) {
		t.Error("RPlan does not share the cached inner plan")
	}
}

// TestPrewarmPopulatesPlanCaches checks Prewarm installs the whole plan
// ladder, so a later RPlanFor is a pure cache hit.
func TestPrewarmPopulatesPlanCaches(t *testing.T) {
	Prewarm(1000) // ladder up to 1024
	for s := 1; s <= 1024; s <<= 1 {
		if _, ok := rplanCache.Load(s); !ok {
			t.Errorf("Prewarm(1000) did not cache the real plan of size %d", s)
		}
	}
}

func BenchmarkForwardSoA1K(b *testing.B)   { benchSoA(b, 1<<10, false) }
func BenchmarkForwardSoA128K(b *testing.B) { benchSoA(b, 1<<17, false) }
func BenchmarkForwardSoA512K(b *testing.B) { benchSoA(b, 1<<19, false) }

func BenchmarkRoundTripSoA64K(b *testing.B)  { benchSoA(b, 1<<16, true) }
func BenchmarkRoundTripSoA512K(b *testing.B) { benchSoA(b, 1<<19, true) }

// benchSoA times one forward transform of a real row of n samples, or a
// forward+inverse round trip.
func benchSoA(b *testing.B, n int, roundTrip bool) {
	x := randReal(rand.New(rand.NewSource(9)), n)
	rp := RPlanFor(n)
	sr := make([]float64, rp.HalfLen())
	si := make([]float64, rp.HalfLen())
	b.SetBytes(int64(8 * n))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rp.ForwardSoA(x, sr, si)
		if roundTrip {
			rp.InverseSoA(sr, si, x)
		}
	}
}
