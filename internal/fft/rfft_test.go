package fft

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"github.com/nlstencil/amop/internal/par"
)

// TestRPlanForwardMatchesComplexAndNaive checks that the half spectrum is
// the full complex DFT of the real row: bins 0..n/2 match the O(n^2) DFT
// directly, and bins above n/2 match by conjugate symmetry, across sizes
// including the degenerate 1 and 2.
func TestRPlanForwardMatchesComplexAndNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, n := range []int{1, 2, 4, 8, 16, 32, 64, 128, 256, 1024} {
		x := randReal(rng, n)
		naive := naiveDFT(toComplex(x), false)
		full := fullSpectrum(forwardSoA(RPlanFor(n), x), n)
		for k := range naive {
			if d := cmplx.Abs(full[k] - naive[k]); !(d <= 1e-9) {
				t.Fatalf("n=%d k=%d: real path differs from the complex DFT by %g", n, k, d)
			}
		}
	}
}

func TestRPlanRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for _, n := range []int{1, 2, 4, 16, 256, 4096, 1 << 15} {
		x := randReal(rng, n)
		rp := RPlanFor(n)
		got := inverseSoA(rp, forwardSoA(rp, x))
		for i := range x {
			if !(math.Abs(got[i]-x[i]) <= 1e-10*(1+math.Abs(x[i]))*float64(n)) {
				t.Fatalf("n=%d: round trip error %g at %d", n, got[i]-x[i], i)
			}
		}
	}
}

// TestRPlanInverseMatchesComplex takes the complex DFT of a real row, keeps
// its bins 0..n/2, and checks InverseSoA recovers the row.
func TestRPlanInverseMatchesComplex(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, n := range []int{2, 4, 8, 64, 512} {
		x := randReal(rng, n)
		full := naiveDFT(toComplex(x), false)
		got := inverseSoA(RPlanFor(n), full[:n/2+1])
		for i := range got {
			if !(math.Abs(got[i]-x[i]) <= 1e-9) {
				t.Fatalf("n=%d: inverse mismatch at %d: %g vs %g", n, i, got[i], x[i])
			}
		}
	}
}

// TestRPlanParallelMatchesSerial checks the parallel pack, unpack, repack
// and unzip passes at the largest production sizes (inner sizes 2^16 and
// 2^17): one worker and four must give bit-identical spectra and rows.
func TestRPlanParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	for _, n := range []int{1 << 17, 1 << 18} {
		x := randReal(rng, n)
		rp := RPlanFor(n)
		run := func(workers int) ([]complex128, []float64) {
			prev := par.SetWorkers(workers)
			defer par.SetWorkers(prev)
			spec := forwardSoA(rp, x)
			return spec, inverseSoA(rp, spec)
		}
		serialSpec, serialOut := run(1)
		parSpec, parOut := run(4)
		for k := range serialSpec {
			if parSpec[k] != serialSpec[k] {
				t.Fatalf("n=%d bin %d: parallel forward differs from serial", n, k)
			}
		}
		for i := range parOut {
			if parOut[i] != serialOut[i] {
				t.Fatalf("n=%d sample %d: parallel inverse differs from serial", n, i)
			}
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
		"short input":    func() { RPlanFor(8).ForwardSoA(make([]float64, 4), make([]float64, 5), make([]float64, 5)) },
		"short spectrum": func() { RPlanFor(8).ForwardSoA(make([]float64, 8), make([]float64, 4), make([]float64, 4)) },
		"inverse sizes":  func() { RPlanFor(8).InverseSoA(make([]float64, 8), make([]float64, 8), make([]float64, 8)) },
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

// TestTransformedBytesAdvances checks both directions count 8 bytes per real
// sample, on the kernel path and on the closed-form sizes.
func TestTransformedBytesAdvances(t *testing.T) {
	for _, n := range []int{4, 256} {
		rp := RPlanFor(n)
		before := TransformedBytes()
		inverseSoA(rp, forwardSoA(rp, make([]float64, n)))
		if got := TransformedBytes() - before; got < int64(2*8*n) {
			t.Errorf("n=%d: TransformedBytes advanced by %d, want >= %d", n, got, 2*8*n)
		}
	}
}
