package fft

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"github.com/nlstencil/amop/internal/par"
	"github.com/nlstencil/amop/internal/scratch"
)

// planeRelDiff returns the max absolute difference between the planes
// (ar, ai) and (br, bi) scaled by the largest magnitude in b: the parity
// bound for comparing the two butterfly implementations, whose only
// legitimate divergence is rounding (the assembly contracts multiplies and
// adds into FMAs; the generic loops do not).
func planeRelDiff(ar, ai, br, bi []float64) float64 {
	d, norm := 0.0, 0.0
	for j := range br {
		d = math.Max(d, math.Max(math.Abs(ar[j]-br[j]), math.Abs(ai[j]-bi[j])))
		norm = math.Max(norm, math.Max(math.Abs(br[j]), math.Abs(bi[j])))
	}
	if norm == 0 {
		norm = 1
	}
	return d / norm
}

// TestButterflyKernelParity runs every stage of the plans from 2^2 to 2^17
// (odd log2 sizes included, so the trailing radix-2 stage is covered)
// through the dispatched butterflies and through the generic loops on
// identical random planes, in both directions (the DIT butterflies and
// their DIF transposes); the two must agree within 1e-12 relative. Where
// the CPU has AVX2+FMA the dispatched side is the assembly; the dispatched
// ranges are split quad-granularly, as the parallel stages split them.
// Under -tags amop_purego both sides are the generic loops.
func TestButterflyKernelParity(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for n := 4; n <= 1<<17; n <<= 1 {
		p := newPlan(n)
		re, im := randReal(rng, n), randReal(rng, n)
		check := func(stage string, dispatched, generic func(re, im []float64)) {
			ar, ai := append([]float64(nil), re...), append([]float64(nil), im...)
			gr, gi := append([]float64(nil), re...), append([]float64(nil), im...)
			dispatched(ar, ai)
			generic(gr, gi)
			if d := planeRelDiff(ar, ai, gr, gi); !(d <= 1e-12) {
				t.Errorf("n=%d %s: %s butterflies differ from generic by %g relative", n, stage, KernelName(), d)
			}
		}
		for _, dir := range []struct {
			name                string
			bfly4, bfly4Generic bfly4Func
			bfly2, bfly2Generic bfly2Func
		}{
			{"DIT", bfly4Range, bfly4RangeGeneric, bfly2Range, bfly2RangeGeneric},
			{"DIF", bfly4DIFRange, bfly4DIFRangeGeneric, bfly2DIFRange, bfly2DIFRangeGeneric},
		} {
			for si := range p.stages {
				st := &p.stages[si]
				h := st.h
				mid := (h / 2) &^ 3
				check(fmt.Sprintf("%s radix-4 h=%d", dir.name, h), func(re, im []float64) {
					for b := 0; b < n/(4*h); b++ {
						dir.bfly4(re, im, b*4*h, st, 0, mid)
						dir.bfly4(re, im, b*4*h, st, mid, h)
					}
				}, func(re, im []float64) {
					for b := 0; b < n/(4*h); b++ {
						dir.bfly4Generic(re, im, b*4*h, st, 0, h)
					}
				})
			}
			if p.finalR2 {
				half := n / 2
				mid := (half / 2) &^ 3
				check(dir.name+" radix-2", func(re, im []float64) {
					dir.bfly2(re, im, p.twRe, p.twIm, half, 0, mid)
					dir.bfly2(re, im, p.twRe, p.twIm, half, mid, half)
				}, func(re, im []float64) {
					dir.bfly2Generic(re, im, p.twRe, p.twIm, half, 0, half)
				})
			}
		}
	}
}

// planeRelErr returns the max difference between got and want scaled by
// the largest magnitude in want.
func planeRelErr(got, want []complex128) float64 {
	norm := 0.0
	for _, z := range want {
		norm = math.Max(norm, cmplx.Abs(z))
	}
	if norm == 0 {
		norm = 1
	}
	return maxAbsDiff(got, want) / norm
}

// soaParitySizes covers the closed-form sizes (1, 2, 4), the smallest
// kernel size 8, every odd-log2 inner shape up to 512 (which exercises the
// trailing radix-2 stage), and the even shapes in between.
var soaParitySizes = []int{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024}

// TestSoAMatchesComplexAndNaive pins both directions against the complex
// O(n^2) DFT within 1e-12 relative: ForwardSoA of a real row and InverseSoA
// of a random half spectrum of a real row.
func TestSoAMatchesComplexAndNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for _, n := range soaParitySizes {
		rp := RPlanFor(n)
		x := randReal(rng, n)
		if d := planeRelErr(forwardSoA(rp, x), naiveDFT(toComplex(x), false)[:n/2+1]); !(d <= 1e-12) {
			t.Errorf("n=%d forward: differs from naive DFT by %g relative", n, d)
		}
		spec := randHalfSpectrum(rng, n)
		want := naiveDFT(fullSpectrum(spec, n), true)
		if d := planeRelErr(toComplex(inverseSoA(rp, spec)), want); !(d <= 1e-12) {
			t.Errorf("n=%d inverse: differs from naive DFT by %g relative", n, d)
		}
	}
}

// directBins checks got against the DFT of a evaluated directly at 32
// random bins f in [0, len(got)): O(n) per bin, so the absolute oracle
// reaches sizes where the full O(n^2) DFT is out of reach. The twiddle angle
// is reduced mod n in integers so the reference carries no argument-growth
// error.
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
		f := rng.Intn(len(got))
		var sum complex128
		for j, x := range a {
			s, c := math.Sincos(sign * 2 * math.Pi * float64(j*f%n) / float64(n))
			sum += x * complex(c, s)
		}
		if inverse {
			sum /= complex(float64(n), 0)
		}
		if d := cmplx.Abs(got[f]-sum) / norm; !(d <= 1e-10) {
			t.Errorf("n=%d inverse=%v bin %d: differs from direct DFT sum by %g relative", n, inverse, f, d)
		}
	}
}

// TestSoALargeParity extends the parity to production-scale sizes, inner
// plans 2^10 to 2^17 (the harness's top transform size, odd log2): 32
// random bins of each forward spectrum and 32 random samples of each
// inverse row must match a direct DFT sum.
func TestSoALargeParity(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	for _, n := range []int{1 << 11, 1 << 14, 1 << 17, 1 << 18} {
		rp := RPlanFor(n)
		x := randReal(rng, n)
		directBins(t, rng, toComplex(x), forwardSoA(rp, x), false)
		spec := randHalfSpectrum(rng, n)
		directBins(t, rng, fullSpectrum(spec, n), toComplex(inverseSoA(rp, spec)), true)
	}
}

// TestSoARoundTrip checks InverseSoA(ForwardSoA(x)) == x on the smallest
// kernel sizes and a few larger ones, which pins the inverse's conjugation
// identity and the 1/n scaling.
func TestSoARoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(63))
	for _, n := range []int{8, 16, 32, 128, 1024, 1 << 13} {
		x := randReal(rng, n)
		rp := RPlanFor(n)
		if d := maxAbsDiff(toComplex(inverseSoA(rp, forwardSoA(rp, x))), toComplex(x)); !(d <= 1e-9) {
			t.Errorf("n=%d: round trip error %g", n, d)
		}
	}
}

// TestRPlanSoAPlaneParity pins the packing edge cases against the naive
// DFT: n=1 (DC only), n=2 and n=4 (closed forms), n=8 (inner size 4, the
// smallest kernel size, where the fused entry butterfly is the whole
// ladder), n=16 (trailing radix-2 stage only), then even- and odd-log2
// inner sizes. The DC and Nyquist bins must be exactly real, the
// self-paired bin n/4 and every other bin must match within 1e-12
// relative, and the row must round trip.
func TestRPlanSoAPlaneParity(t *testing.T) {
	rng := rand.New(rand.NewSource(64))
	for _, n := range []int{1, 2, 4, 8, 16, 32, 64, 256, 1024} {
		x := randReal(rng, n)
		rp := RPlanFor(n)
		spec := forwardSoA(rp, x)
		if imag(spec[0]) != 0 || imag(spec[n/2]) != 0 {
			t.Errorf("n=%d: DC %v or Nyquist %v bin not exactly real", n, spec[0], spec[n/2])
		}
		if d := planeRelErr(spec, naiveDFT(toComplex(x), false)[:n/2+1]); !(d <= 1e-12) {
			t.Errorf("n=%d: plane spectrum differs from naive DFT by %g relative", n, d)
		}
		out := inverseSoA(rp, spec)
		for i := range x {
			if !(math.Abs(out[i]-x[i]) <= 1e-9) {
				t.Errorf("n=%d: plane round trip error %g at %d", n, out[i]-x[i], i)
				break
			}
		}
	}
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

// TestSoAParallelMatchesSerial checks each direction separately at n = 2^14
// and 2^15, whose inner sizes are 2^13 (odd log2, exactly ParThreshold) and
// 2^14 (even log2): with one worker every pass runs serially, with four
// the entry, stage and exit passes split across workers. The split only
// partitions loop ranges (quad-granular, so the kernel choice per butterfly
// is unchanged) and never reassociates the algebra, so the outputs must be
// bit-identical.
func TestSoAParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(65))
	for _, n := range []int{1 << 14, 1 << 15} {
		rp := RPlanFor(n)
		x := randReal(rng, n)
		spec := randHalfSpectrum(rng, n)
		run := func(workers int) ([]complex128, []float64) {
			prev := par.SetWorkers(workers)
			defer par.SetWorkers(prev)
			return forwardSoA(rp, x), inverseSoA(rp, spec)
		}
		sSpec, sOut := run(1)
		pSpec, pOut := run(4)
		for k := range sSpec {
			if pSpec[k] != sSpec[k] {
				t.Fatalf("n=%d bin %d: parallel forward differs from serial (want bit-identical)", n, k)
			}
		}
		for j := range sOut {
			if pOut[j] != sOut[j] {
				t.Fatalf("n=%d sample %d: parallel inverse differs from serial (want bit-identical)", n, j)
			}
		}
	}
}

// TestRadix4ParallelMatchesSerial is the round-trip counterpart: ForwardSoA
// then InverseSoA of its own spectrum, at the same sizes, with one worker and
// with four, must give bit-identical spectra and rows.
func TestRadix4ParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for _, n := range []int{1 << 14, 1 << 15} {
		x := randReal(rng, n)
		rp := RPlanFor(n)
		round := func(workers int) ([]complex128, []float64) {
			prev := par.SetWorkers(workers)
			defer par.SetWorkers(prev)
			spec := forwardSoA(rp, x)
			return spec, inverseSoA(rp, spec)
		}
		sSpec, sOut := round(1)
		pSpec, pOut := round(4)
		for k := range sSpec {
			if pSpec[k] != sSpec[k] {
				t.Fatalf("n=%d bin %d: parallel forward differs from serial (want bit-identical)", n, k)
			}
		}
		for j := range sOut {
			if pOut[j] != sOut[j] {
				t.Fatalf("n=%d sample %d: parallel inverse differs from serial (want bit-identical)", n, j)
			}
		}
	}
}

// TestRadix4RoundTripQuick is the property form of the parity: on arbitrary
// rows across a mix of closed-form, even- and odd-log2 sizes, the half
// spectrum matches the naive DFT and the round trip recovers the row.
func TestRadix4RoundTripQuick(t *testing.T) {
	sizes := []int{2, 8, 64, 128}
	idx := 0
	prop := func(v [128]float64) bool {
		n := sizes[idx%len(sizes)]
		idx++
		x := make([]float64, n)
		for i := range x {
			// quick generates magnitudes up to MaxFloat64; scale into a range
			// whose partial sums cannot overflow (the property is scale-free).
			x[i] = v[i] / 1e300
		}
		rp := RPlanFor(n)
		spec := forwardSoA(rp, x)
		naive := naiveDFT(toComplex(x), false)
		for k, z := range spec {
			if !(cmplx.Abs(z-naive[k]) <= 1e-9*(1+cmplx.Abs(naive[k]))) {
				return false
			}
		}
		got := inverseSoA(rp, spec)
		for i := range x {
			if !(math.Abs(got[i]-x[i]) <= 1e-9*(1+math.Abs(x[i]))) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestRadix4RPlanParity pins the recombination around the inner transform,
// whose size is n/2: on rows that excite only the DC, Nyquist or self-paired
// bin (a constant, an alternating row, a quarter-period cosine), the
// spectrum must be exact up to rounding and the row must round trip.
func TestRadix4RPlanParity(t *testing.T) {
	for _, n := range []int{4, 8, 16, 64, 256, 1024} {
		rp := RPlanFor(n)
		for name, tc := range map[string]struct {
			at   func(j int) float64
			bin  int
			want complex128
		}{
			"constant":    {func(int) float64 { return 1 }, 0, complex(float64(n), 0)},
			"alternating": {func(j int) float64 { return 1 - 2*float64(j%2) }, n / 2, complex(float64(n), 0)},
			"quarter":     {func(j int) float64 { return []float64{1, 0, -1, 0}[j%4] }, n / 4, complex(float64(n)/2, 0)},
		} {
			x := make([]float64, n)
			for j := range x {
				x[j] = tc.at(j)
			}
			spec := forwardSoA(rp, x)
			for k, z := range spec {
				want := complex128(0)
				if k == tc.bin {
					want = tc.want
				}
				if !(cmplx.Abs(z-want) <= 1e-12*float64(n)) {
					t.Errorf("n=%d %s: bin %d = %v, want %v", n, name, k, z, want)
				}
			}
			out := inverseSoA(rp, spec)
			for j := range x {
				if !(math.Abs(out[j]-x[j]) <= 1e-12) {
					t.Errorf("n=%d %s: round trip error %g at %d", n, name, out[j]-x[j], j)
					break
				}
			}
		}
	}
}

// TestKernelName checks the kernel label is consistent with availability.
func TestKernelName(t *testing.T) {
	want := "generic"
	if kernelAsmAvailable() {
		want = kernelArch
	}
	if got := KernelName(); got != want {
		t.Errorf("KernelName() = %q, want %q (assembly available: %v)", got, want, kernelAsmAvailable())
	}
}

// TestSoATransformsCounter checks the split-plane transform counter
// advances once per direction exactly when the kernel runs (not on the
// closed-form sizes), and that transformed-bytes accounting ticks with it
// at 8 bytes per real sample. A Convolve counts as the forward and inverse
// it replaces: two transforms and 2*8n bytes.
func TestSoATransformsCounter(t *testing.T) {
	rp := RPlanFor(64)
	x := randReal(rand.New(rand.NewSource(67)), 64)
	sr := make([]float64, rp.HalfLen())
	si := make([]float64, rp.HalfLen())

	c0, b0 := SoATransforms(), TransformedBytes()
	rp.ForwardSoA(x, sr, si)
	rp.InverseSoA(sr, si, x)
	c1, b1 := SoATransforms(), TransformedBytes()
	if c1 != c0+2 {
		t.Errorf("SoATransforms went %d -> %d across a plane round trip, want +2", c0, c1)
	}
	if b1-b0 != 2*8*64 {
		t.Errorf("TransformedBytes advanced %d across a plane round trip, want %d", b1-b0, 2*8*64)
	}

	small := RPlanFor(4)
	small.ForwardSoA(x[:4], sr[:3], si[:3])
	if c2 := SoATransforms(); c2 != c1 {
		t.Errorf("SoATransforms advanced on a closed-form size-4 transform: %d -> %d", c1, c2)
	}
	if db := TransformedBytes() - b1; db != 8*4 {
		t.Errorf("TransformedBytes advanced %d across a size-4 transform, want %d", db, 8*4)
	}

	for _, n := range []int{4, 64} {
		rp := RPlanFor(n)
		c0, b0 := SoATransforms(), TransformedBytes()
		rp.Convolve(x[:n-1], make([]float64, 2*rp.HalfLen()), make([]float64, n/2), nil)
		wantC := int64(2)
		if n < 8 {
			wantC = 0
		}
		if c := SoATransforms() - c0; c != wantC {
			t.Errorf("n=%d: SoATransforms advanced %d across a Convolve, want %d", n, c, wantC)
		}
		if db := TransformedBytes() - b0; db != int64(2*8*n) {
			t.Errorf("n=%d: TransformedBytes advanced %d across a Convolve, want %d", n, db, 2*8*n)
		}
	}
}

// TestSoAConcurrentTransforms hammers one shared plan (and the shared
// scratch pool) from many goroutines in both directions. Run with -race
// this pins the concurrency contract: plan tables are read-only, scratch
// planes are private per transform, and no transform state leaks across
// goroutines.
func TestSoAConcurrentTransforms(t *testing.T) {
	const n = 1 << 11
	rp := RPlanFor(n)
	rng := rand.New(rand.NewSource(68))
	x := randReal(rng, n)
	wantSpec := forwardSoA(rp, x)
	spec := randHalfSpectrum(rng, n)
	wantRow := inverseSoA(rp, spec)

	const goroutines, iters = 8, 8
	var wg sync.WaitGroup
	errs := make(chan string, 2*goroutines*iters) // at most two sends per iteration
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for iter := 0; iter < iters; iter++ {
				sr := scratch.Floats(rp.HalfLen())
				si := scratch.Floats(rp.HalfLen())
				rp.ForwardSoA(x, sr, si)
				for k := range sr {
					if complex(sr[k], si[k]) != wantSpec[k] {
						errs <- "concurrent forward transform diverged"
						break
					}
				}
				for k, z := range spec {
					sr[k], si[k] = real(z), imag(z)
				}
				row := scratch.Floats(n)
				rp.InverseSoA(sr, si, row)
				for j := range row {
					if row[j] != wantRow[j] {
						errs <- "concurrent inverse transform diverged"
						break
					}
				}
				scratch.PutFloats(row)
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
