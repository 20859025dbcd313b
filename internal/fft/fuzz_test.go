package fft

import (
	"encoding/binary"
	"math"
	"math/cmplx"
	"testing"
)

// FuzzForwardInverseRoundTrip drives both butterfly implementations with
// arbitrary finite inputs. The fuzzer picks the transform size (every power
// of two up to 64, covering the directly computed sizes 1 and 2, the
// trailing radix-2 shapes, and the radix-4 ladder) and the sample values;
// the properties are:
//
//   - Inverse(Forward(a)) recovers a, under the active and the generic
//     butterflies;
//   - both forward transforms agree with the O(n^2) DFT — an absolute
//     oracle, so a kernel bug cannot hide by breaking both directions
//     symmetrically;
//   - the real-input plane path matches the complex half spectrum.
//
// Values are squashed into a bounded range: overflow to Inf is not an
// interesting finding (the transform is linear), but any disagreement with
// the oracle on finite data is.
func FuzzForwardInverseRoundTrip(f *testing.F) {
	f.Add(uint8(2), []byte{})
	f.Add(uint8(3), []byte{0x3f, 0xf0, 0, 0, 0, 0, 0, 0, 0x40, 0x08, 0, 0, 0, 0, 0, 0})
	f.Add(uint8(5), []byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16})
	f.Add(uint8(6), []byte{0xff, 0xee, 0xdd, 0xcc, 0xbb, 0xaa, 0x99, 0x88})
	f.Add(uint8(0), []byte{0x80})
	f.Fuzz(func(t *testing.T, lg uint8, data []byte) {
		n := 1 << (lg % 7) // 1 .. 64
		a := make([]complex128, n)
		for i := range a {
			a[i] = complex(fuzzSample(data, 2*i), fuzzSample(data, 2*i+1))
		}
		p := PlanFor(n)
		want := naiveDFT(a, false)

		check := func(label string) {
			fwd := append([]complex128(nil), a...)
			p.Forward(fwd)
			if d := maxAbsDiff(fwd, want); d > 1e-9 {
				t.Errorf("%s: n=%d forward differs from naive DFT by %g", label, n, d)
			}
			p.Inverse(fwd)
			if d := maxAbsDiff(fwd, a); d > 1e-9 {
				t.Errorf("%s: n=%d round trip error %g", label, n, d)
			}
		}
		check(KernelName())
		withGenericSoA(func() { check("generic") })

		// Real-input plane path vs the complex half spectrum of the same row.
		x := make([]float64, n)
		for i := range x {
			x[i] = real(a[i])
		}
		rp := RPlanFor(n)
		spec := make([]complex128, rp.HalfLen())
		rp.Forward(append([]float64(nil), x...), spec)
		sr := make([]float64, rp.HalfLen())
		si := make([]float64, rp.HalfLen())
		rp.ForwardSoA(append([]float64(nil), x...), sr, si)
		for k := range spec {
			if d := cmplx.Abs(complex(sr[k], si[k]) - spec[k]); d > 1e-9 {
				t.Errorf("rplan: n=%d k=%d plane spectrum differs by %g", n, k, d)
			}
		}
		out := make([]float64, n)
		rp.InverseSoA(sr, si, out)
		for i := range x {
			if math.Abs(out[i]-x[i]) > 1e-9 {
				t.Errorf("rplan: n=%d real round trip error %g at %d", n, out[i]-x[i], i)
				break
			}
		}
	})
}

// fuzzSample derives the idx-th sample from the fuzz payload: 8 bytes
// reinterpreted as a float64, squashed into [-1, 1] so partial sums stay
// finite for any input. Indices past the payload cycle through it (an empty
// payload yields zeros).
func fuzzSample(data []byte, idx int) float64 {
	if len(data) == 0 {
		return 0
	}
	var chunk [8]byte
	for j := range chunk {
		chunk[j] = data[(8*idx+j)%len(data)]
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(chunk[:]))
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 1
	}
	// Squash arbitrary magnitudes smoothly; preserves sign and small values.
	return v / (1 + math.Abs(v))
}
