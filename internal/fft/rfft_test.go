package fft

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"github.com/nlstencil/amop/internal/par"
)

func randReal(rng *rand.Rand, n int) []float64 {
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	return x
}

// TestRPlanForwardMatchesComplexAndNaive is the three-way golden parity test:
// the real-input half spectrum must match both the complex Plan and the
// O(n^2) naive DFT on the retained frequencies, across sizes including the
// degenerate 1 and 2.
func TestRPlanForwardMatchesComplexAndNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, n := range []int{1, 2, 4, 8, 16, 32, 64, 128, 256, 1024} {
		x := randReal(rng, n)
		a := make([]complex128, n)
		for i, v := range x {
			a[i] = complex(v, 0)
		}
		naive := naiveDFT(a, false)
		cplx := append([]complex128(nil), a...)
		PlanFor(n).Forward(cplx)

		rp := RPlanFor(n)
		spec := make([]complex128, rp.HalfLen())
		rp.Forward(append([]float64(nil), x...), spec)

		for k := 0; k <= n/2; k++ {
			if d := cmplx.Abs(spec[k] - naive[k]); d > 1e-9 {
				t.Fatalf("n=%d k=%d: real path differs from naive DFT by %g", n, k, d)
			}
			if d := cmplx.Abs(spec[k] - cplx[k]); d > 1e-9 {
				t.Fatalf("n=%d k=%d: real path differs from complex plan by %g", n, k, d)
			}
		}
	}
}

func TestRPlanRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for _, n := range []int{1, 2, 4, 16, 256, 4096, 1 << 15} {
		x := randReal(rng, n)
		rp := RPlanFor(n)
		spec := make([]complex128, rp.HalfLen())
		got := append([]float64(nil), x...)
		rp.Forward(got, spec)
		rp.Inverse(spec, got)
		for i := range x {
			if math.Abs(got[i]-x[i]) > 1e-10*(1+math.Abs(x[i]))*float64(n) {
				t.Fatalf("n=%d: round trip error %g at %d", n, got[i]-x[i], i)
			}
		}
	}
}

// TestRPlanInverseMatchesComplex feeds the same conjugate-symmetric spectrum
// through both inverse paths.
func TestRPlanInverseMatchesComplex(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, n := range []int{2, 4, 8, 64, 512} {
		// Build a valid half spectrum from a real signal's forward transform.
		x := randReal(rng, n)
		full := make([]complex128, n)
		for i, v := range x {
			full[i] = complex(v, 0)
		}
		p := PlanFor(n)
		p.Forward(full)
		spec := append([]complex128(nil), full[:n/2+1]...)

		p.Inverse(full)
		got := make([]float64, n)
		RPlanFor(n).Inverse(spec, got)
		for i := range got {
			if math.Abs(got[i]-real(full[i])) > 1e-9 {
				t.Fatalf("n=%d: inverse mismatch at %d: %g vs %g", n, i, got[i], real(full[i]))
			}
		}
	}
}

// TestRPlanParallelMatchesSerial checks the parallel pack/unpack staging on a
// transform large enough to trigger it.
func TestRPlanParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	n := parThreshold() * 4
	x := randReal(rng, n)
	rp := RPlanFor(n)

	serialSpec := make([]complex128, rp.HalfLen())
	prev := par.SetWorkers(1)
	rp.Forward(append([]float64(nil), x...), serialSpec)
	serialOut := make([]float64, n)
	specCopy := append([]complex128(nil), serialSpec...)
	rp.Inverse(specCopy, serialOut)
	par.SetWorkers(prev)

	parSpec := make([]complex128, rp.HalfLen())
	rp.Forward(append([]float64(nil), x...), parSpec)
	if d := maxAbsDiff(serialSpec, parSpec); d > 0 {
		t.Errorf("parallel forward differs from serial by %g", d)
	}
	parOut := make([]float64, n)
	rp.Inverse(parSpec, parOut)
	for i := range parOut {
		if parOut[i] != serialOut[i] {
			t.Errorf("parallel inverse differs from serial at %d", i)
			break
		}
	}
}

func TestRPlanTwiddle(t *testing.T) {
	rp := RPlanFor(16)
	for k := 0; k <= 8; k++ {
		want := cmplx.Exp(complex(0, -2*math.Pi*float64(k)/16))
		if d := cmplx.Abs(rp.Twiddle(k) - want); d > 1e-12 {
			t.Errorf("Twiddle(%d) off by %g", k, d)
		}
	}
}

func TestRPlanPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"bad size":       func() { NewRPlan(3) },
		"zero size":      func() { NewRPlan(0) },
		"short input":    func() { RPlanFor(8).Forward(make([]float64, 4), make([]complex128, 5)) },
		"short spectrum": func() { RPlanFor(8).Forward(make([]float64, 8), make([]complex128, 4)) },
		"inverse sizes":  func() { RPlanFor(8).Inverse(make([]complex128, 8), make([]float64, 8)) },
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

func TestRPlanForCaches(t *testing.T) {
	if RPlanFor(128) != RPlanFor(128) {
		t.Error("RPlanFor returned distinct plans for the same size")
	}
}

func TestTransformedBytesAdvances(t *testing.T) {
	before := TransformedBytes()
	n := 256
	rp := RPlanFor(n)
	spec := make([]complex128, rp.HalfLen())
	rp.Forward(make([]float64, n), spec)
	if got := TransformedBytes() - before; got < int64(8*n) {
		t.Errorf("TransformedBytes advanced by %d, want >= %d", got, 8*n)
	}
}

func BenchmarkRealFFT64K(b *testing.B)  { benchRealFFT(b, 1<<16) }
func BenchmarkRealFFT512K(b *testing.B) { benchRealFFT(b, 1<<19) }

// benchRealFFT times one forward+inverse real round trip; compare against
// BenchmarkForward* to see the half-transform win.
func benchRealFFT(b *testing.B, n int) {
	rng := rand.New(rand.NewSource(25))
	x := randReal(rng, n)
	buf := make([]float64, n)
	rp := RPlanFor(n)
	spec := make([]complex128, rp.HalfLen())
	b.SetBytes(int64(8 * n))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(buf, x)
		rp.Forward(buf, spec)
		rp.Inverse(spec, buf)
	}
}
