package fft

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/nlstencil/amop/internal/par"
)

// bitrev reverses the log2(m) low bits of i, one bit at a time.
func bitrev(i, m int) int {
	r := 0
	for b := 1; b < m; b <<= 1 {
		r <<= 1
		if i&b != 0 {
			r |= 1
		}
	}
	return r
}

// ditGathered is the reference the DIF ladder is the transpose of: the
// input gathered into bit-reversed order, the trivial first radix-4 stage
// (quadStore), then the DIT ladder — the complex DFT of (zr, zi) in
// natural order.
func ditGathered(p *plan, zr, zi []float64) (re, im []float64) {
	m := p.n
	re, im = make([]float64, m), make([]float64, m)
	for i := range re {
		r := bitrev(i, m)
		re[i], im[i] = zr[r], zi[r]
	}
	for i := 0; i+4 <= m; i += 4 {
		quadStore(re, im, i, re[i], im[i], re[i+1], im[i+1], re[i+2], im[i+2], re[i+3], im[i+3])
	}
	p.ditStages(re, im)
	return re, im
}

// difBitReversed runs the DIF ladder on natural-order (zr, zi) and
// finishes it with the trivial last radix-4 stage (quadDIF): the complex
// DFT in bit-reversed order.
func difBitReversed(p *plan, zr, zi []float64) (re, im []float64) {
	m := p.n
	re, im = append([]float64(nil), zr...), append([]float64(nil), zi...)
	p.difStages(re, im)
	for i := 0; i+4 <= m; i += 4 {
		re[i], im[i], re[i+1], im[i+1], re[i+2], im[i+2], re[i+3], im[i+3] =
			quadDIF(re[i], im[i], re[i+1], im[i+1], re[i+2], im[i+2], re[i+3], im[i+3])
	}
	return re, im
}

// TestDIFLadderIsBitReversedDIT checks the DIF ladder against the gathered
// DIT ladder on every inner size 2^1..2^17 (odd log2 included, so the
// leading radix-2 stage is covered): the DIF output at position i must
// equal the DIT output at rev(i) within 1e-12 relative. At the sizes on
// either side of ParThreshold and at it, four workers must reproduce one
// worker's DIF output bit for bit.
func TestDIFLadderIsBitReversedDIT(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for m := 2; m <= 1<<17; m <<= 1 {
		p := planFor(m)
		zr, zi := randReal(rng, m), randReal(rng, m)
		run := func(workers int) (re, im []float64) {
			prev := par.SetWorkers(workers)
			defer par.SetWorkers(prev)
			return difBitReversed(p, zr, zi)
		}
		dr, di := run(1)
		wr, wi := ditGathered(p, zr, zi)
		gr, gi := make([]float64, m), make([]float64, m)
		for i := range gr {
			r := bitrev(i, m)
			gr[i], gi[i] = wr[r], wi[r]
		}
		if d := planeRelDiff(dr, di, gr, gi); !(d <= 1e-12) {
			t.Errorf("m=%d: DIF output differs from the bit-reversed DIT output by %g relative", m, d)
		}
		if m < ParThreshold/2 || m > 2*ParThreshold {
			continue
		}
		pr, pi := run(4)
		for i := range dr {
			if pr[i] != dr[i] || pi[i] != di[i] {
				t.Fatalf("m=%d lane %d: parallel DIF ladder differs from serial (want bit-identical)", m, i)
			}
		}
	}
}

// randMult returns a random multiplier in Convolve's layout for a plan of
// size n, and the same multiplier in natural bin order.
func randMult(rng *rand.Rand, rp *RPlan) (mult []float64, natural []complex128) {
	h := rp.HalfLen()
	mult = make([]float64, 2*h)
	natural = make([]complex128, h)
	for pos := 0; pos < h; pos++ {
		z := complex(rng.NormFloat64(), rng.NormFloat64())
		mult[pos], mult[h+pos] = real(z), imag(z)
		natural[rp.Bin(pos)] = z
	}
	return mult, natural
}

// convolveReference is Convolve composed from the natural-order
// transforms: ForwardSoA of the zero-padded row, the multiply bin by bin,
// InverseSoA, truncated to outN samples.
func convolveReference(rp *RPlan, x []float64, natural []complex128, outN int) []float64 {
	row := make([]float64, rp.Size())
	copy(row, x)
	spec := forwardSoA(rp, row)
	for f := range spec {
		spec[f] *= natural[f]
	}
	// The transform ignores the imaginary parts of the DC and Nyquist bins;
	// so does Convolve.
	h := len(spec) - 1
	spec[0] = complex(real(spec[0]), 0)
	spec[h] = complex(real(spec[h]), 0)
	return inverseSoA(rp, spec)[:outN]
}

// TestConvolveMatchesComposition pins the fused pipeline against
// ForwardSoA, the multiply and InverseSoA within 1e-12 relative: on the
// closed-form sizes, at inner sizes 4, 8 and 16 where the octaves hold a
// quad or less (only the head quads and one mirrored pair), at the first
// size the assembly takes (inner size 64) and at production sizes, with
// full, short (implicitly padded) and odd-length rows and truncated
// outputs.
func TestConvolveMatchesComposition(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	for _, n := range []int{1, 2, 4, 8, 16, 32, 64, 128, 256, 1 << 12, 1 << 15, 1 << 18} {
		rp := RPlanFor(n)
		mult, natural := randMult(rng, rp)
		for _, c := range []struct{ inN, outN int }{
			{n, n}, {n/2 + 1, n}, {max(n-3, 1), n/2 + 1}, {n, max(n-1, 1)},
		} {
			x := randReal(rng, c.inN)
			got := make([]float64, c.outN)
			rp.Convolve(x, mult, got)
			want := convolveReference(rp, x, natural, c.outN)
			if d := planeRelDiff(got, got, want, want); !(d <= 1e-12) {
				t.Errorf("n=%d in=%d out=%d: Convolve differs from ForwardSoA*M*InverseSoA by %g relative",
					n, c.inN, c.outN, d)
			}
		}
	}
}

// TestConvolveParallelMatchesSerial runs Convolve at inner sizes
// ParThreshold and 2*ParThreshold (odd and even log2) with one worker and
// with four: the entry, spectral and exit passes and the ladders only
// partition loop ranges, so the rows must be bit-identical.
func TestConvolveParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	for _, n := range []int{2 * ParThreshold, 4 * ParThreshold} {
		rp := RPlanFor(n)
		mult, _ := randMult(rng, rp)
		x := randReal(rng, n-5)
		run := func(workers int) []float64 {
			prev := par.SetWorkers(workers)
			defer par.SetWorkers(prev)
			out := make([]float64, n-7)
			rp.Convolve(x, mult, out)
			return out
		}
		serial, parallel := run(1), run(4)
		for i := range serial {
			if parallel[i] != serial[i] {
				t.Fatalf("n=%d sample %d: parallel Convolve differs from serial (want bit-identical)", n, i)
			}
		}
	}
}

// TestSpectralKernelParity compares the dispatched spectral pass, entry
// pass and exit pass with their generic loops on identical random data,
// at every inner size 2^4..2^17 and over group ranges split as the
// parallel pass splits them. The spectral pass must agree within 1e-12
// relative (the assembly fuses multiply-adds); the entry and exit passes
// only move and negate, so they must agree exactly. Under -tags
// amop_purego both sides are the generic loops.
func TestSpectralKernelParity(t *testing.T) {
	rng := rand.New(rand.NewSource(74))
	for n := 32; n <= 1<<18; n <<= 1 {
		rp := RPlanFor(n)
		m := rp.half
		re, im := randReal(rng, m), randReal(rng, m)
		mult, _ := randMult(rng, rp)
		groups := (m/8 + 3) / 4
		ar, ai := append([]float64(nil), re...), append([]float64(nil), im...)
		gr, gi := append([]float64(nil), re...), append([]float64(nil), im...)
		mid := groups / 3
		rp.spectralGroups(ar, ai, mult, 0, mid)
		rp.spectralGroups(ar, ai, mult, mid, groups)
		rp.spectralGroupsGeneric(gr, gi, mult, 0, groups)
		if d := planeRelDiff(ar, ai, gr, gi); !(d <= 1e-12) {
			t.Errorf("n=%d: %s spectral pass differs from generic by %g relative", n, KernelName(), d)
		}

		x := randReal(rng, n)
		lo, hi := 3, m-2
		ar, ai = make([]float64, m), make([]float64, m)
		gr, gi = make([]float64, m), make([]float64, m)
		packSamples(x, ar, ai, lo, hi)
		packSamplesGeneric(x, gr, gi, lo, hi)
		a, g := make([]float64, n), make([]float64, n)
		unzipSamples(re, im, a, lo, hi)
		unzipSamplesGeneric(re, im, g, lo, hi)
		for i := range ar {
			if ar[i] != gr[i] || ai[i] != gi[i] {
				t.Fatalf("n=%d sample %d: %s entry pass differs from generic", n, i, KernelName())
			}
		}
		for i := range a {
			if a[i] != g[i] {
				t.Fatalf("n=%d sample %d: %s exit pass differs from generic", n, i, KernelName())
			}
		}
	}
}

// TestConvolvePanics checks Convolve rejects an oversized row or output
// and a multiplier of the wrong length.
func TestConvolvePanics(t *testing.T) {
	rp := RPlanFor(16)
	mult := make([]float64, 2*rp.HalfLen())
	for i, fn := range []func(){
		func() { rp.Convolve(make([]float64, 17), mult, make([]float64, 16)) },
		func() { rp.Convolve(make([]float64, 16), mult, make([]float64, 17)) },
		func() { rp.Convolve(make([]float64, 16), mult[1:], make([]float64, 16)) },
	} {
		t.Run(fmt.Sprint(i), func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Error("mismatched lengths did not panic")
				}
			}()
			fn()
		})
	}
}
