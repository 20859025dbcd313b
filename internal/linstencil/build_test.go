package linstencil

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"github.com/nlstencil/amop/internal/fft"
)

// buildSpectrumFull is the multiplier build without the bin skip, the
// oracle buildSpectrum must match bit for bit: every bin powered by binary
// exponentiation (with the unused last squaring), then every component
// below 2^-600 of the largest flushed to zero, then a NaN or Inf component
// refused with a panic.
func buildSpectrumFull(w []float64, shift, n, k int, rp *fft.RPlan) []float64 {
	h := n/2 + 1
	m := make([]float64, 2*h)
	for pos := range h {
		omega := rp.Twiddle(rp.Bin(pos))
		sym := complex(w[len(w)-1], 0)
		for i := len(w) - 2; i >= 0; i-- {
			sym = sym*omega + complex(w[i], 0)
		}
		switch {
		case shift > 0:
			sym *= powFull(omega, shift)
		case shift < 0:
			mod := powFull(omega, -shift)
			sym *= complex(real(mod), -imag(mod))
		}
		kp := powFull(sym, k)
		m[pos], m[h+pos] = real(kp), -imag(kp)
	}
	var top float64
	for _, v := range m {
		top = max(top, math.Abs(v))
	}
	floor := math.Ldexp(top, -600)
	for i, v := range m {
		if math.Abs(v) < floor {
			m[i] = 0
		}
	}
	for i, v := range m {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			panic(fmt.Sprintf("linstencil: non-finite kernel spectrum at %d (n=%d, k=%d, weights=%v): %v", i, n, k, w, v))
		}
	}
	return m
}

func powFull(z complex128, k int) complex128 {
	result := complex(1, 0)
	for k > 0 {
		if k&1 == 1 {
			result *= z
		}
		z *= z
		k >>= 1
	}
	return result
}

// firstBitDiff returns the first index where a and b differ in bits, or -1.
func firstBitDiff(a, b []float64) int {
	if len(a) != len(b) {
		return 0
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i
		}
	}
	return -1
}

// buildOrPanic runs build and returns its multiplier, or the panic it
// raised.
func buildOrPanic(build func([]float64, int, int, int, *fft.RPlan) []float64, w []float64, shift, n, k int) (m []float64, p any) {
	defer func() { p = recover() }()
	return build(w, shift, n, k, fft.RPlanFor(n)), nil
}

// checkBuild compares buildSpectrum with the full build on one input: the
// same bits, or the same panic.
func checkBuild(t *testing.T, w []float64, shift, n, k int) {
	t.Helper()
	got, gotP := buildOrPanic(buildSpectrum, w, shift, n, k)
	want, wantP := buildOrPanic(buildSpectrumFull, w, shift, n, k)
	if fmt.Sprint(gotP) != fmt.Sprint(wantP) {
		t.Fatalf("w=%v shift=%d n=%d k=%d: build panicked %v, full build %v", w, shift, n, k, gotP, wantP)
	}
	if i := firstBitDiff(got, want); i >= 0 {
		t.Fatalf("w=%v shift=%d n=%d k=%d: component %d is %v, full build %v", w, shift, n, k, i, got[i], want[i])
	}
}

// spectrumWeights are the oracle's stencils: the models' shapes, negative
// weights (where DC is not the largest modulus), weights summing to 0
// (DC 0), five weights (a spilled key), and a sum above 1 (a DC that
// overflows at large k).
var spectrumWeights = [][]float64{
	{0.47, 0.52},
	{0.3, 0.35, 0.3},
	{0.6, -0.5},
	{-0.45, 0.5},
	{0.5, -0.5},
	{0.25, -0.5, 0.25},
	{-0.2, 0.7, -0.3, 0.1},
	{0.1, 0.2, 0.3, 0.2, 0.15},
	{1.2, 0.3},
}

// spectrumSteps are k in {0, 1, 2, 3} and 2^j - 1, 2^j, 2^j + 1 up to 2^17.
func spectrumSteps() []int {
	ks := []int{0, 1, 2, 3}
	for j := 2; j <= 17; j++ {
		ks = append(ks, 1<<j-1, 1<<j, 1<<j+1)
	}
	return ks
}

// TestBuildSpectrumMatchesFullBuild pins the bin-skipping build to the full
// build bit for bit: every stencil, shift -2..2 and step count at n up to
// 256, and at n = 512..2^17 one shift per stencil with a sample of step
// counts and k = n/4, the solver's shape.
func TestBuildSpectrumMatchesFullBuild(t *testing.T) {
	ks := spectrumSteps()
	rng := rand.New(rand.NewSource(37))
	for lg := 1; lg <= 17; lg++ {
		n := 1 << lg
		for wi, w := range spectrumWeights {
			if n <= 256 {
				for shift := -2; shift <= 2; shift++ {
					for _, k := range ks {
						checkBuild(t, w, shift, n, k)
					}
				}
				continue
			}
			shift := (wi+lg)%5 - 2
			checkBuild(t, w, shift, n, n/4)
			for range 4 {
				checkBuild(t, w, shift, n, ks[rng.Intn(len(ks))])
			}
		}
	}
}

// FuzzBuildSpectrum compares buildSpectrum with the full build on
// arbitrary weights (two to five, squashed into [-1, 1] and scaled by up
// to 4, so sums above 1 and overflowing powers occur), shifts -2..2, sizes
// 2..2^17 and step counts 0..2^17+1: the same bits, or the same panic.
func FuzzBuildSpectrum(f *testing.F) {
	f.Add(uint8(0), uint8(16), uint32(16384), []byte{0, 2, 1, 2, 3, 4, 5, 6, 7, 8})
	f.Add(uint8(3), uint8(7), uint32(129), []byte{1, 0, 0x3f, 0xe0, 0, 0, 0, 0, 0, 0})
	f.Add(uint8(2), uint8(12), uint32(1025), []byte{3, 3, 0xbf, 0xf0, 0x12, 0x34, 0x56, 0x78, 0x9a, 0xbc, 0xde})
	f.Add(uint8(4), uint8(0), uint32(3), []byte{2, 1, 0xff, 0xee, 0xdd, 0xcc, 0xbb, 0xaa, 0x99, 0x88})
	f.Fuzz(func(t *testing.T, shiftRaw, lgRaw uint8, kRaw uint32, data []byte) {
		if len(data) < 2 {
			return
		}
		nw := 2 + int(data[0])%4
		scale := 1 + float64(data[1]%4)
		w := make([]float64, nw)
		for i := range w {
			w[i] = scale * fuzzSample(data[2:], i)
		}
		n := 2 << (lgRaw % 17)
		k := int(kRaw % (1<<17 + 2))
		checkBuild(t, w, int(shiftRaw%5)-2, n, k)
	})
}
