package fft

import (
	"math"
	"math/cmplx"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"github.com/nlstencil/amop/internal/par"
	"github.com/nlstencil/amop/internal/scratch"
)

// withGenericSoA runs fn with the butterflies forced through the portable
// generic kernel, covering the non-assembly side of the dispatch seam even
// on machines where the assembly is active.
func withGenericSoA(fn func()) {
	soaForceGeneric.Store(true)
	defer soaForceGeneric.Store(false)
	fn()
}

// soaKernelVariants runs fn once per available butterfly kernel, labeled.
func soaKernelVariants(t *testing.T, fn func(t *testing.T)) {
	t.Run("generic", func(t *testing.T) { withGenericSoA(func() { fn(t) }) })
	if kernelAsmAvailable() {
		t.Run(kernelArch, fn)
	}
}

// transformCopy returns p's forward or inverse transform of a, leaving a
// untouched.
func transformCopy(p *Plan, a []complex128, inverse bool) []complex128 {
	out := append([]complex128(nil), a...)
	if inverse {
		p.Inverse(out)
	} else {
		p.Forward(out)
	}
	return out
}

// relDiff returns the max absolute difference between a and b scaled by the
// largest magnitude in b: the parity bound for comparing the two butterfly
// implementations, whose only legitimate divergence is rounding (the
// assembly contracts multiplies and adds into FMAs; the generic loops do
// not).
func relDiff(a, b []complex128) float64 {
	norm := 0.0
	for _, z := range b {
		if m := cmplx.Abs(z); m > norm {
			norm = m
		}
	}
	if norm == 0 {
		norm = 1
	}
	return maxAbsDiff(a, b) / norm
}

// parityCase is one transform input with the generic butterflies' output as
// the reference the active kernel must match.
type parityCase struct {
	a       []complex128
	inverse bool
	generic []complex128
}

// parityCases draws one forward and one inverse input per size and computes
// their generic-kernel transforms.
func parityCases(rng *rand.Rand, sizes []int) []parityCase {
	var cases []parityCase
	for _, n := range sizes {
		for _, inverse := range []bool{false, true} {
			c := parityCase{a: randVec(rng, n), inverse: inverse}
			withGenericSoA(func() { c.generic = transformCopy(PlanFor(n), c.a, inverse) })
			cases = append(cases, c)
		}
	}
	return cases
}

// soaParitySizes covers the directly computed transforms (1, 2), the
// smallest split-plane size 4, every odd-log2 shape up to 512 (which
// exercises the trailing radix-2 stage), and the even shapes in between.
var soaParitySizes = []int{1, 2, 4, 8, 16, 32, 64, 128, 256, 512}

// TestSoAMatchesComplexAndNaive pins the complex128 entry point of the
// split-plane kernel: for each size and direction, Plan.Forward/Inverse
// under each butterfly implementation must agree with the O(n^2) DFT within
// 1e-9 and with the generic butterflies within 1e-12 relative.
func TestSoAMatchesComplexAndNaive(t *testing.T) {
	cases := parityCases(rand.New(rand.NewSource(61)), soaParitySizes)
	soaKernelVariants(t, func(t *testing.T) {
		for _, c := range cases {
			n := len(c.a)
			got := transformCopy(PlanFor(n), c.a, c.inverse)
			if d := maxAbsDiff(got, naiveDFT(c.a, c.inverse)); d > 1e-9 {
				t.Errorf("n=%d inverse=%v: differs from naive DFT by %g", n, c.inverse, d)
			}
			if d := relDiff(got, c.generic); d > 1e-12 {
				t.Errorf("n=%d inverse=%v: differs from generic butterflies by %g relative", n, c.inverse, d)
			}
		}
	})
}

// directBins checks got against the DFT of a evaluated directly at 32
// random bins: O(n) per bin, so the absolute oracle reaches sizes where the
// full O(n^2) DFT is out of reach. The twiddle angle is reduced mod n in
// integers so the reference carries no argument-growth error.
func directBins(t *testing.T, rng *rand.Rand, a, got []complex128, inverse bool) {
	t.Helper()
	n := len(a)
	sign := -1.0
	if inverse {
		sign = 1
	}
	norm := 0.0
	for _, z := range got {
		norm = math.Max(norm, cmplx.Abs(z))
	}
	for b := 0; b < 32; b++ {
		f := rng.Intn(n)
		var sum complex128
		for j, x := range a {
			s, c := math.Sincos(sign * 2 * math.Pi * float64(j*f%n) / float64(n))
			sum += x * complex(c, s)
		}
		if inverse {
			sum /= complex(float64(n), 0)
		}
		if d := cmplx.Abs(got[f]-sum) / norm; d > 1e-10 {
			t.Errorf("n=%d inverse=%v bin %d: differs from direct DFT sum by %g relative", n, inverse, f, d)
		}
	}
}

// TestSoALargeParity extends the parity to production-scale sizes up to
// 2^17 (the harness's top transform size, odd log2): each butterfly
// implementation must match the generic one within 1e-12 relative, and 32
// random bins per transform must match a direct DFT sum.
func TestSoALargeParity(t *testing.T) {
	cases := parityCases(rand.New(rand.NewSource(62)), []int{1 << 10, 1 << 13, 1 << 16, 1 << 17})
	soaKernelVariants(t, func(t *testing.T) {
		bins := rand.New(rand.NewSource(72))
		for _, c := range cases {
			got := transformCopy(PlanFor(len(c.a)), c.a, c.inverse)
			if d := relDiff(got, c.generic); d > 1e-12 {
				t.Errorf("n=%d inverse=%v: differs from generic butterflies by %g relative", len(c.a), c.inverse, d)
			}
			directBins(t, bins, c.a, got, c.inverse)
		}
	})
}

// TestSoARoundTrip checks Inverse(Forward(a)) == a under each butterfly
// implementation, which pins the inverse's conjugation identity and the 1/n
// scaling.
func TestSoARoundTrip(t *testing.T) {
	soaKernelVariants(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(63))
		for _, n := range []int{4, 8, 64, 512, 1 << 12} {
			a := randVec(rng, n)
			rt := append([]complex128(nil), a...)
			p := PlanFor(n)
			p.Forward(rt)
			p.Inverse(rt)
			if d := maxAbsDiff(rt, a); d > 1e-9 {
				t.Errorf("n=%d: round trip error %g", n, d)
			}
		}
	})
}

// TestRPlanSoAPlaneParity pins the plane-native real-input path against the
// complex-spectrum API across the packing edge cases: n=1 (DC only), n=2
// (delegated, no inner plan quads), n=4 and n=8 (delegated, inner size < 4),
// n=16 (smallest plane-native size), self-paired-bin sizes, and odd-log2
// inner sizes.
func TestRPlanSoAPlaneParity(t *testing.T) {
	soaKernelVariants(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(64))
		for _, n := range []int{1, 2, 4, 8, 16, 32, 64, 256, 1024, 1 << 13} {
			x := randReal(rng, n)
			rp := RPlanFor(n)

			spec := make([]complex128, rp.HalfLen())
			rp.Forward(append([]float64(nil), x...), spec)

			sr := make([]float64, rp.HalfLen())
			si := make([]float64, rp.HalfLen())
			rp.ForwardSoA(append([]float64(nil), x...), sr, si)

			norm := 0.0
			for _, z := range spec {
				if m := cmplx.Abs(z); m > norm {
					norm = m
				}
			}
			if norm == 0 {
				norm = 1
			}
			for k := range spec {
				d := cmplx.Abs(complex(sr[k], si[k]) - spec[k])
				if d/norm > 1e-12 {
					t.Errorf("n=%d k=%d: plane spectrum (%g,%g) differs from complex %v", n, k, sr[k], si[k], spec[k])
				}
			}

			out := make([]float64, n)
			rp.InverseSoA(sr, si, out)
			for i := range x {
				if math.Abs(out[i]-x[i]) > 1e-9 {
					t.Errorf("n=%d: plane round trip error %g at %d", n, out[i]-x[i], i)
					break
				}
			}
		}
	})
}

// TestRPlanSoAPlanePanics checks the plane APIs reject mismatched lengths.
func TestRPlanSoAPlanePanics(t *testing.T) {
	rp := RPlanFor(16)
	for _, fn := range []func(){
		func() { rp.ForwardSoA(make([]float64, 8), make([]float64, 9), make([]float64, 9)) },
		func() { rp.ForwardSoA(make([]float64, 16), make([]float64, 8), make([]float64, 9)) },
		func() { rp.InverseSoA(make([]float64, 9), make([]float64, 8), make([]float64, 16)) },
		func() { rp.InverseSoA(make([]float64, 9), make([]float64, 9), make([]float64, 15)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("mismatched plane lengths did not panic")
				}
			}()
			fn()
		}()
	}
}

// TestSoAParallelMatchesSerial verifies the parallel staging performs
// bit-identical arithmetic to the serial pass: the parallel split only
// partitions loop ranges (quad-granular, so the kernel choice per butterfly
// is unchanged), it never reassociates the butterfly algebra.
func TestSoAParallelMatchesSerial(t *testing.T) {
	if par.Workers() <= 1 {
		prev := par.SetWorkers(4)
		defer par.SetWorkers(prev)
	}
	soaKernelVariants(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(65))
		prevThresh := setParThreshold(1 << 6)
		defer setParThreshold(prevThresh)
		for _, n := range []int{1 << 8, 1 << 9} {
			for _, inverse := range []bool{false, true} {
				a := randVec(rng, n)
				p := PlanFor(n)

				parallel := append([]complex128(nil), a...)
				p.transform(parallel, inverse)

				setParThreshold(1 << 30) // force the serial path
				serial := append([]complex128(nil), a...)
				p.transform(serial, inverse)
				setParThreshold(1 << 6)

				if d := maxAbsDiff(parallel, serial); d > 0 {
					t.Errorf("n=%d inverse=%v: parallel differs from serial by %g (want bit-identical)", n, inverse, d)
				}
			}
		}
	})
}

// TestRadix4ParallelMatchesSerial is the plane-native counterpart: the
// radix-4 ladder's parallel staging, reached through RPlan.ForwardSoA and
// InverseSoA (with their parallel pack, unpack, repack and unzip passes),
// must be bit-identical to the serial pass, on an even- and an odd-log2
// inner size.
func TestRadix4ParallelMatchesSerial(t *testing.T) {
	if par.Workers() <= 1 {
		prev := par.SetWorkers(4)
		defer par.SetWorkers(prev)
	}
	rng := rand.New(rand.NewSource(43))
	prevThresh := setParThreshold(1 << 6)
	defer setParThreshold(prevThresh)
	for _, n := range []int{1 << 9, 1 << 10} {
		x := randReal(rng, n)
		rp := RPlanFor(n)
		round := func() (sr, si, out []float64) {
			sr = make([]float64, rp.HalfLen())
			si = make([]float64, rp.HalfLen())
			out = make([]float64, n)
			rp.ForwardSoA(x, sr, si)
			rp.InverseSoA(append([]float64(nil), sr...), append([]float64(nil), si...), out)
			return sr, si, out
		}
		pr, pi, pout := round()
		setParThreshold(1 << 30) // force the serial path
		sr, si, sout := round()
		setParThreshold(1 << 6)
		for k := range sr {
			if pr[k] != sr[k] || pi[k] != si[k] {
				t.Fatalf("n=%d bin %d: parallel forward differs from serial (want bit-identical)", n, k)
			}
		}
		for j := range sout {
			if pout[j] != sout[j] {
				t.Fatalf("n=%d sample %d: parallel inverse differs from serial (want bit-identical)", n, j)
			}
		}
	}
}

// TestRadix4RoundTripQuick is the property form of the kernel parity: on
// arbitrary input vectors across a mix of even- and odd-log2 sizes, the
// radix-4 ladder's forward+inverse recovers the input, and the active
// butterflies match the generic ones bin for bin.
func TestRadix4RoundTripQuick(t *testing.T) {
	sizes := []int{2, 8, 64, 128}
	idx := 0
	prop := func(re, im [128]float64) bool {
		n := sizes[idx%len(sizes)]
		idx++
		a := make([]complex128, n)
		for i := range a {
			// quick generates magnitudes up to MaxFloat64; scale into a range
			// whose partial sums cannot overflow (the property is scale-free).
			a[i] = complex(re[i]/1e300, im[i]/1e300)
		}
		p := PlanFor(n)

		got := transformCopy(p, a, false)
		var generic []complex128
		withGenericSoA(func() { generic = transformCopy(p, a, false) })
		for i := range got {
			scale := 1 + cmplx.Abs(generic[i])
			if cmplx.Abs(got[i]-generic[i]) > 1e-9*scale {
				return false
			}
		}

		p.Inverse(got)
		for i := range a {
			scale := 1 + cmplx.Abs(a[i])
			if cmplx.Abs(got[i]-a[i]) > 1e-9*scale {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestRadix4RPlanParity pins the complex-spectrum real-input API, whose inner
// transform runs at n/2: the half spectrum must agree between the butterfly
// implementations and with the naive DFT within 1e-9, and the real round
// trip must recover the input, across the RPlan packing edge cases — n=1
// (DC only), n=2 (empty recombination loop), n=4 (Nyquist-pair bin only),
// the self-paired-bin sizes, and odd-log2 inner sizes.
func TestRadix4RPlanParity(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, n := range []int{1, 2, 4, 8, 16, 64, 256, 1024} {
		x := randReal(rng, n)
		rp := RPlanFor(n)

		spec := make([]complex128, rp.HalfLen())
		rp.Forward(append([]float64(nil), x...), spec)
		generic := make([]complex128, rp.HalfLen())
		withGenericSoA(func() { rp.Forward(append([]float64(nil), x...), generic) })
		if d := maxAbsDiff(spec, generic); d > 1e-9 {
			t.Errorf("n=%d: half spectrum differs from generic butterflies by %g", n, d)
		}

		a := make([]complex128, n)
		for i, v := range x {
			a[i] = complex(v, 0)
		}
		naive := naiveDFT(a, false)
		for k := 0; k <= n/2; k++ {
			if d := cmplx.Abs(spec[k] - naive[k]); d > 1e-9 {
				t.Errorf("n=%d k=%d: half spectrum differs from naive DFT by %g", n, k, d)
			}
		}

		out := make([]float64, n)
		rp.Inverse(spec, out)
		for i := range x {
			if math.Abs(out[i]-x[i]) > 1e-9 {
				t.Errorf("n=%d: real round trip error %g at %d", n, out[i]-x[i], i)
				break
			}
		}
	}
}

// TestKernelName checks the kernel label is consistent with availability.
func TestKernelName(t *testing.T) {
	got := KernelName()
	if kernelAsmAvailable() {
		if got != kernelArch || got == "generic" {
			t.Errorf("KernelName() = %q with accelerated kernel available", got)
		}
		withGenericSoA(func() {
			if name := KernelName(); name != "generic" {
				t.Errorf("KernelName() = %q under forced generic", name)
			}
		})
	} else if got != "generic" {
		t.Errorf("KernelName() = %q without accelerated kernel", got)
	}
}

// TestSoATransformsCounter checks the split-plane transform counter
// advances exactly when the kernel runs (not on the directly computed size
// 2), and that transformed-bytes accounting ticks with it.
func TestSoATransformsCounter(t *testing.T) {
	p := PlanFor(64)
	a := randVec(rand.New(rand.NewSource(66)), 64)

	c0, b0 := SoATransforms(), TransformedBytes()
	p.Forward(a)
	c1, b1 := SoATransforms(), TransformedBytes()
	if c1 != c0+1 {
		t.Errorf("SoATransforms went %d -> %d across one transform, want +1", c0, c1)
	}
	if b1-b0 != 16*64 {
		t.Errorf("TransformedBytes advanced %d across one transform, want %d", b1-b0, 16*64)
	}

	PlanFor(2).Forward(a[:2])
	if c2 := SoATransforms(); c2 != c1 {
		t.Errorf("SoATransforms advanced on a size-2 transform: %d -> %d", c1, c2)
	}

	// The plane-native real path counts one per direction at 8 bytes/sample.
	rp := RPlanFor(64)
	x := randReal(rand.New(rand.NewSource(67)), 64)
	sr := make([]float64, rp.HalfLen())
	si := make([]float64, rp.HalfLen())
	b2 := TransformedBytes()
	rp.ForwardSoA(x, sr, si)
	rp.InverseSoA(sr, si, x)
	if c3 := SoATransforms(); c3 != c1+2 {
		t.Errorf("SoATransforms went %d -> %d across an RPlan plane round trip, want +2", c1, c3)
	}
	if db := TransformedBytes() - b2; db != 2*8*64 {
		t.Errorf("TransformedBytes advanced %d across an RPlan plane round trip, want %d", db, 2*8*64)
	}
}

// TestSoAConcurrentTransforms hammers one shared plan (and the shared
// scratch pool) from many goroutines under both kernel entry points. Run
// with -race this pins the concurrency contract: plan tables are read-only,
// scratch planes are private per transform, and no transform state leaks
// across goroutines.
func TestSoAConcurrentTransforms(t *testing.T) {
	const n = 1 << 10
	p := PlanFor(n)
	rp := RPlanFor(2 * n)
	rng := rand.New(rand.NewSource(68))
	a := randVec(rng, n)
	want := append([]complex128(nil), a...)
	p.Forward(want)
	x := randReal(rng, 2*n)
	wantSr := make([]float64, rp.HalfLen())
	wantSi := make([]float64, rp.HalfLen())
	rp.ForwardSoA(append([]float64(nil), x...), wantSr, wantSi)

	var wg sync.WaitGroup
	errs := make(chan string, 16)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for iter := 0; iter < 8; iter++ {
				buf := scratch.Complexes(n)
				copy(buf, a)
				p.Forward(buf)
				if d := maxAbsDiff(buf, want); d > 0 {
					errs <- "concurrent transform diverged"
				}
				scratch.PutComplexes(buf)

				sr := scratch.Floats(rp.HalfLen())
				si := scratch.Floats(rp.HalfLen())
				rp.ForwardSoA(x, sr, si)
				for k := range sr {
					if sr[k] != wantSr[k] || si[k] != wantSi[k] {
						errs <- "concurrent RPlan plane transform diverged"
						break
					}
				}
				scratch.PutFloats(sr)
				scratch.PutFloats(si)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Fatal(msg)
	}
}

func BenchmarkRPlanForwardSoA128K(b *testing.B) {
	const n = 1 << 17
	x := randReal(rand.New(rand.NewSource(71)), n)
	rp := RPlanFor(n)
	sr := make([]float64, rp.HalfLen())
	si := make([]float64, rp.HalfLen())
	b.SetBytes(int64(8 * n))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rp.ForwardSoA(x, sr, si)
	}
}
